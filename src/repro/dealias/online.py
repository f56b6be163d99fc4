"""Online dealiasing: 6Gen's randomised /96 verification.

The principle (Murdock et al., deployed online by 6Sense and adopted by
the paper): in a large enough prefix, if several *random* addresses all
respond, essentially every address must respond — the prefix is aliased.

Concretely, for each previously unseen /96 containing an active address
we probe 3 uniformly random addresses inside the /96 (each probe retried
up to 3 times); if 2 or more answer, the whole /96 is classified aliased.
Results are cached per /96, and detected prefixes accumulate into an
:class:`AliasPrefixSet`.

Every reply is a pure function of (target, port, attempt), so the
verifier classifies the targets of all unseen prefixes in one batch
(like the IPv6 Hitlist, which probes all its candidate prefixes as one
scan), then replays the per-prefix probe sequence — retries, early exit
and all — and charges the scanner for exactly the probes that sequence
sends.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from ..addr import Prefix
from ..addr.rand import hash64_batch
from ..addr.vector import PackedAddresses, np
from ..internet import Port
from ..scanner import ResponseType, Scanner, affirmative_response
from ..telemetry import get_telemetry
from .prefixset import AliasPrefixSet

__all__ = ["OnlineDealiaser"]

_SALT_PROBE = 0xA1
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


class OnlineDealiaser:
    """Adaptive alias detection by randomised in-prefix probing."""

    def __init__(
        self,
        scanner: Scanner,
        prefix_bits: int = 96,
        probes_per_prefix: int = 3,
        retries: int = 3,
        threshold: int = 2,
    ) -> None:
        if not 0 < prefix_bits < 128:
            raise ValueError("prefix_bits must be in (0, 128)")
        if threshold > probes_per_prefix:
            raise ValueError("threshold cannot exceed probes_per_prefix")
        self.scanner = scanner
        self.prefix_bits = prefix_bits
        self.probes_per_prefix = probes_per_prefix
        self.retries = retries
        self.threshold = threshold
        self.detected = AliasPrefixSet()
        self._verdicts: dict[int, bool] = {}
        self.verification_probes = 0

    # -- queries ---------------------------------------------------------

    def is_aliased(self, address: int, port: Port) -> bool:
        """Check (verifying on first encounter) whether the address's
        enclosing /96 is aliased on ``port``."""
        net = address >> (128 - self.prefix_bits)
        verdict = self._verdicts.get(net)
        if verdict is None:
            self._verify_nets([net], port)
            verdict = self._verdicts[net]
        return verdict

    def partition(self, addresses: Iterable[int], port: Port) -> tuple[set[int], set[int]]:
        """Split active addresses into (clean, aliased) via online checks."""
        if not isinstance(addresses, (list, tuple, set, frozenset)):
            addresses = list(addresses)
        shift = 128 - self.prefix_bits
        verdicts = self._verdicts
        unseen = [
            net
            for net in dict.fromkeys(address >> shift for address in addresses)
            if net not in verdicts
        ]
        if unseen:
            self._verify_nets(unseen, port)
        clean: set[int] = set()
        aliased: set[int] = set()
        for address in addresses:
            if verdicts[address >> shift]:
                aliased.add(address)
            else:
                clean.add(address)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("dealias.online.aliased_addresses", len(aliased))
            tel.count("dealias.online.clean_addresses", len(clean))
        return clean, aliased

    # -- internals --------------------------------------------------------

    def _targets(self, nets: list[int]) -> PackedAddresses:
        """The verification targets: row ``k * probes_per_prefix + i``
        holds probe ``i`` of ``nets[k]``, a uniformly random address
        inside the prefix drawn from ``hash64(_SALT_PROBE, net, i)``."""
        shift = 128 - self.prefix_bits
        probes = self.probes_per_prefix
        words = PackedAddresses.from_addresses(nets)
        draws = hash64_batch(
            _SALT_PROBE,
            PackedAddresses(
                np.repeat(words.prefix64, probes), np.repeat(words.iid64, probes)
            ),
            np.tile(np.arange(probes, dtype=np.uint64), len(nets)),
        )
        bases = PackedAddresses.from_addresses([net << shift for net in nets])
        return PackedAddresses(
            np.repeat(bases.prefix64, probes),
            np.repeat(bases.iid64, probes)
            | (draws & np.uint64(min((1 << shift) - 1, _MASK64))),
        )

    def _replies(
        self, targets: PackedAddresses, port: Port
    ) -> tuple[list[ResponseType], dict[int, list[ResponseType]]]:
        """Each target's attempt-0 reply, and the later replies of the
        targets whose reply can change with the attempt.

        Attempt 0 is classified for every target at once.  Only a
        rate-limited aliased region answers differently per attempt, so
        its missed targets (keyed by row) get their later attempts drawn
        up to the first affirmative one, at most ``max(1, retries)`` in
        all; any other miss would repeat its first reply.
        """
        scanner = self.scanner
        first = scanner.classify(targets, port, 0)
        later: dict[int, list[ResponseType]] = {}
        if self.retries <= 1:
            return first, later
        hit = affirmative_response(port)
        misses = [
            row
            for row, reply in enumerate(first)
            if reply is not hit and reply is not ResponseType.BLOCKED
        ]
        # Regions are looked up by each target's own /64: a prefix
        # shorter than /64 spans several.
        net64s = targets.prefix64.tolist()
        regions = scanner.internet.topology.regions_for_net64s(
            {net64s[row] for row in misses}
        )
        pending = []
        for row in misses:
            region = regions[net64s[row]]
            if region is not None and region.aliased and region.alias_response_prob < 1.0:
                pending.append(row)
                later[row] = []
        for attempt in range(1, self.retries):
            if not pending:
                break
            rows = np.array(pending, dtype=np.intp)
            retried = scanner.classify(
                PackedAddresses(targets.prefix64[rows], targets.iid64[rows]), port, attempt
            )
            for row, reply in zip(pending, retried):
                later[row].append(reply)
            pending = [row for row, reply in zip(pending, retried) if reply is not hit]
        return first, later

    def _verify_nets(self, nets: list[int], port: Port) -> None:
        """Verify unseen prefixes: replay the probe sequence per prefix.

        Probe ``i`` of a prefix is sent only if the prefix is still
        undecided: it stops at ``threshold`` affirmative probes, or once
        too few probes remain to reach it.  A sent probe is retried, as
        :meth:`Scanner.probe_with_retries` retries it, until a reply is
        affirmative or ``BLOCKED`` or ``max(1, retries)`` attempts are
        spent.  Exactly the replies that sequence gets are charged to
        the scanner.
        """
        shift = 128 - self.prefix_bits
        probes = self.probes_per_prefix
        threshold = self.threshold
        attempts = max(1, self.retries)
        hit = affirmative_response(port)
        targets = self._targets(nets)
        first, later = self._replies(targets, port) if len(targets) else ([], {})
        charged: list[ResponseType] = []
        repeated: list[ResponseType] = []  # misses charged on every attempt
        sent = 0
        aliased = 0
        for position, net in enumerate(nets):
            affirmative = 0
            verdict = None
            for index in range(probes):
                row = position * probes + index
                sent += 1
                reply = first[row]
                if reply is not hit and reply is not ResponseType.BLOCKED:
                    retried = later.get(row)
                    if retried is None:
                        repeated.append(reply)
                    else:
                        charged.append(reply)
                        charged.extend(retried)
                        reply = retried[-1]
                else:
                    charged.append(reply)
                if reply is hit:
                    affirmative += 1
                    if affirmative >= threshold:
                        verdict = True
                        break
                if affirmative + probes - index - 1 < threshold:
                    verdict = False
                    break
            if verdict is None:
                verdict = affirmative >= threshold
            self._verdicts[net] = verdict
            if verdict:
                aliased += 1
                self.detected.add(Prefix(net << shift, self.prefix_bits))
        tally = Counter(charged)
        for reply, count in Counter(repeated).items():
            tally[reply] += count * attempts
        self.scanner.charge(tally, port)
        self.verification_probes += sent
        tel = get_telemetry()
        if tel.enabled:
            tel.count("dealias.online.prefixes_checked", len(nets))
            tel.count("dealias.online.verification_probes", sent)
            if aliased:
                tel.count("dealias.online.aliased_prefixes", aliased)
