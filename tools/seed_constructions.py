"""Bench-scale seed-construction identity check.

Builds the RQ1 seed constructions of ``Study(InternetConfig.bench(42))``
— ``full``, ``offline_dealiased``, ``online_dealiased``,
``joint_dealiased`` and ``all_active``, in that order — and compares,
per construction, its size and the sha256 of its sorted addresses (16
big-endian bytes each), plus the constructions scanner's
``packets_sent`` and lifetime ``ScanStats``, with the record in
``tests/data/seed_constructions_bench42.json``.  The end-to-end digests
only cover tiny worlds; this covers collection and both dealiasers on
~80k seeds and ~570k verification probes.

Run:  python tools/seed_constructions.py            (exit 1 on a mismatch)
      python tools/seed_constructions.py --record   (rewrite the record)

Re-record only with a change that means to move results, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.experiments import Study
from repro.internet import InternetConfig

RECORD = Path(__file__).resolve().parent.parent / "tests" / "data" / "seed_constructions_bench42.json"
CONSTRUCTIONS = ("full", "offline_dealiased", "online_dealiased", "joint_dealiased", "all_active")
SEED = 42


def measure() -> tuple[dict, float, float]:
    """The identity record of a fresh bench world, the seconds its seed
    collection took (world derivation included) and the seconds the
    constructions took on top."""
    study = Study(config=InternetConfig.bench(SEED))
    start = time.perf_counter()
    constructions = study.constructions
    collected = time.perf_counter()
    record: dict = {"seed": SEED, "constructions": {}}
    for name in CONSTRUCTIONS:
        addresses = sorted(getattr(constructions, name).addresses)
        digest = hashlib.sha256(b"".join(a.to_bytes(16, "big") for a in addresses))
        record["constructions"][name] = {"size": len(addresses), "sha256": digest.hexdigest()}
    built = time.perf_counter()
    scanner = constructions.preprocessor.scanner
    record["packets_sent"] = scanner.rate_limiter.packets_sent
    record["lifetime_stats"] = scanner.lifetime_stats.as_dict()
    return record, collected - start, built - collected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the record")
    args = parser.parse_args(argv)
    record, collect_s, build_s = measure()
    sizes = {name: entry["size"] for name, entry in record["constructions"].items()}
    print(f"world + collection {collect_s:.2f}s, constructions {build_s:.2f}s")
    print(f"sizes {sizes}, packets_sent {record['packets_sent']}")
    if args.record:
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"recorded {RECORD}")
        return 0
    expected = json.loads(RECORD.read_text())
    if record == expected:
        print("identical to the record")
        return 0
    for key in sorted(set(record) | set(expected)):
        if record.get(key) != expected.get(key):
            print(f"MISMATCH {key}: got {record.get(key)}, recorded {expected.get(key)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
