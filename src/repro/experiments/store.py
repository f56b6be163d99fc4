"""Persistence of experiment results: the RunStore checkpoint format.

Long experiment grids are expensive; this module persists
:class:`RunResult` objects (including hit sets) so studies can be
checkpointed, resumed after a crash, shared and re-analysed without
recomputation.

The on-disk format (format 3, the only one :class:`RunStore` reads or
writes) is JSON Lines.  The first line is a header carrying the format
number and a sha256 digest of the world configuration the results were
computed against; every subsequent line is one ``(RunKey, RunResult)``
record.  Records are appended (and flushed) as cells complete, so a
checkpoint is crash-safe by construction: whatever survives an
interruption is a valid prefix, and a torn final line is detected and
dropped on load.  Keys a record carries beyond ``key`` and ``result``
(older writers added a per-cell ``wall_s``) are ignored.

Addresses are stored as hex strings to keep files compact and
diff-friendly; everything round-trips exactly.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..internet import Port
from ..metrics import MetricSet
from ..telemetry.provenance import config_digest
from .results import RunResult

__all__ = [
    "RunStore",
    "study_digest",
    "dump_results",
    "load_results",
    "result_to_dict",
    "result_from_dict",
]


def _encode_addresses(addresses: Iterable[int]) -> list[str]:
    return [format(address, "x") for address in sorted(addresses)]


def _decode_addresses(encoded: Iterable[str]) -> frozenset[int]:
    return frozenset(int(text, 16) for text in encoded)


def result_to_dict(result: RunResult) -> dict:
    """Full (lossless) dict form of a RunResult."""
    return {
        "tga": result.tga_name,
        "dataset": result.dataset_name,
        "port": result.port.value,
        "budget": result.budget,
        "generated": result.generated,
        "clean_hits": _encode_addresses(result.clean_hits),
        "aliased_hits": _encode_addresses(result.aliased_hits),
        "active_ases": sorted(result.active_ases),
        "metrics": result.metrics.as_dict(),
        "probes_sent": result.probes_sent,
        "rounds": result.rounds,
        "round_history": [list(pair) for pair in result.round_history],
    }


def result_from_dict(data: dict) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
    metrics = data["metrics"]
    return RunResult(
        tga_name=data["tga"],
        dataset_name=data["dataset"],
        port=Port(data["port"]),
        budget=data["budget"],
        generated=data["generated"],
        clean_hits=_decode_addresses(data["clean_hits"]),
        aliased_hits=_decode_addresses(data["aliased_hits"]),
        active_ases=frozenset(data["active_ases"]),
        metrics=MetricSet(
            hits=metrics["hits"], ases=metrics["ases"], aliases=metrics["aliases"]
        ),
        probes_sent=data["probes_sent"],
        rounds=data["rounds"],
        round_history=tuple(
            (generated, hits) for generated, hits in data.get("round_history", [])
        ),
    )


def study_digest(study) -> str:
    """``sha256:`` digest of everything that determines a study's cell
    results: the world config, round size, scan rate and blocklist.

    The TGA roster and default budget are deliberately excluded — they
    select *which* cells run, not what any one cell computes — so a
    checkpoint stays resumable after adding generators or changing the
    grid's budget (budgets are part of each record's key).
    """
    config = study.internet.config
    return config_digest(
        {
            "config": dataclasses.asdict(config),
            "round_size": study.round_size,
            "packets_per_second": study.packets_per_second,
            "blocklist": sorted(
                (prefix.value, prefix.length)
                for prefix in study.blocklist.prefixes()
            ),
        }
    )


def _result_key(result: RunResult) -> tuple:
    return (result.tga_name, result.dataset_name, result.port, result.budget)


class RunStore:
    """A checkpoint of per-cell results, keyed by RunKey, append-safe.

    Keys are ``(tga, dataset_name, Port, budget)`` — the same shape the
    Study run cache uses.  Typical lifecycle::

        store = RunStore("checkpoint.jsonl")
        if resuming and store.path.exists():
            store.load()
            store.verify(study_digest(study))     # refuse stale worlds
        store.begin(config=study_digest(study))   # header, once
        ...
        store.append(key, result)                 # per completed cell

    ``load`` tolerates a torn final line (a crash mid-append) and
    counts it in :attr:`dropped`; any earlier corruption is an error.
    """

    #: The on-disk format number: the only one :meth:`load` accepts.
    FORMAT = 3

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.header: dict | None = None
        self._records: list[tuple[tuple, RunResult]] = []
        self._by_key: dict[tuple, RunResult] = {}
        self._handle = None
        #: Records read from disk by :meth:`load`.
        self.loaded = 0
        #: Records written by :meth:`append` this session.
        self.appended = 0
        #: Torn trailing lines discarded by :meth:`load`.
        self.dropped = 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: tuple) -> bool:
        return key in self._by_key

    def get(self, key: tuple) -> RunResult | None:
        """The stored result for ``key``, or None."""
        return self._by_key.get(key)

    def keys(self) -> list[tuple]:
        return list(self._by_key)

    @property
    def records(self) -> list[tuple[tuple, RunResult]]:
        """All (key, result) records in append order (duplicates kept)."""
        return list(self._records)

    def results(self) -> list[RunResult]:
        """All stored results in append order."""
        return [result for _, result in self._records]

    @property
    def config(self) -> str | None:
        """The world digest recorded in the header, if any."""
        return (self.header or {}).get("config")

    # -- loading -----------------------------------------------------------

    def load(self) -> int:
        """Read an existing format-3 checkpoint.

        Returns the number of records loaded.  Raises ``ValueError``
        naming the path for anything that does not open with a format-3
        header (an older format included) and for mid-file corruption;
        a torn *final* line is dropped silently (crash mid-append) and
        counted in :attr:`dropped`.
        """
        lines = self.path.read_text(encoding="utf-8").splitlines()
        try:
            header = json.loads(lines[0]) if lines else None
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("format") != self.FORMAT:
            raise ValueError(
                f"{self.path}: not a format-{self.FORMAT} results checkpoint"
            )
        self.header = header
        for index, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines):  # torn final append: a crash artifact
                    self.dropped += 1
                    break
                raise ValueError(
                    f"{self.path}: corrupt checkpoint record on line {index}"
                ) from None
            tga, dataset, port_value, budget = record["key"]
            key = (tga, dataset, Port(port_value), budget)
            self._add(key, result_from_dict(record["result"]))
            self.loaded += 1
        return self.loaded

    def _add(self, key: tuple, result: RunResult) -> None:
        self._records.append((key, result))
        self._by_key[key] = result

    def verify(self, digest: str) -> None:
        """Refuse to resume against a different world.

        ``digest`` is the current study's :func:`study_digest`; it must
        equal the digest recorded in the checkpoint header.  Stores
        written without a digest (such as :func:`dump_results` output)
        cannot be verified and are rejected here — load them explicitly
        with :func:`load_results` if the mismatch is intentional.
        """
        recorded = self.config
        if recorded is None:
            raise ValueError(
                f"{self.path}: checkpoint carries no config digest; "
                "cannot verify it matches this study"
            )
        if recorded != digest:
            raise ValueError(
                f"{self.path}: checkpoint was recorded against a different "
                f"world (checkpoint {recorded}, study {digest}); refusing "
                "to resume"
            )

    # -- writing -----------------------------------------------------------

    def begin(self, config: str | None = None, **meta) -> None:
        """Open the store for appending, writing the header if new.

        On an existing (loaded) store this is idempotent: records are
        appended under the header already on disk.
        """
        if self._handle is not None:
            return
        fresh = self.header is None
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh and self._handle.tell() == 0:
            self.header = {"format": self.FORMAT, "config": config, **meta}
            self._write_line(self.header)

    def append(self, key: tuple, result: RunResult) -> None:
        """Persist one completed cell (appends and flushes immediately)."""
        if self._handle is None:
            self.begin()
        tga, dataset, port, budget = key
        self._write_line(
            {
                "key": [tga, dataset, port.value, budget],
                "result": result_to_dict(result),
            }
        )
        self._add(key, result)
        self.appended += 1

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()

    def reset(self) -> None:
        """Discard the on-disk checkpoint and all in-memory state."""
        self.close()
        self.path.unlink(missing_ok=True)
        self.header = None
        self._records.clear()
        self._by_key.clear()
        self.loaded = self.appended = self.dropped = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[tuple[tuple, RunResult]]:
        return iter(self._records)


def dump_results(path: str | Path, results: Iterable[RunResult]) -> int:
    """Write results to a fresh format-3 checkpoint; returns the count.

    Thin wrapper over :class:`RunStore` (kept for compatibility; new
    code that checkpoints incrementally should use the store directly).
    """
    store = RunStore(path)
    store.reset()
    with store:
        store.begin()
        for result in results:
            store.append(_result_key(result), result)
        return store.appended


def load_results(path: str | Path) -> list[RunResult]:
    """Load a checkpoint written by :func:`dump_results` or
    :class:`RunStore` (format 3; raises ``ValueError`` otherwise)."""
    store = RunStore(path)
    store.load()
    return store.results()
