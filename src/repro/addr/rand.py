"""Deterministic hashing and pseudo-randomness.

Every stochastic decision in the simulated Internet — whether an address
is responsive, which pattern a region uses, whether a probe is dropped by
rate limiting — derives from pure functions of ``(seed, salt, inputs)``
built on the splitmix64 finaliser.  This keeps the whole study perfectly
reproducible: the same configuration always yields the same Internet,
seeds, scans and TGA outputs, independent of iteration order.
"""

from __future__ import annotations

__all__ = [
    "mix64",
    "hash64",
    "hash_address",
    "uniform",
    "coin",
    "choice_index",
    "DeterministicStream",
    "mix64_batch",
    "hash64_batch",
    "uniform_batch",
    "coin_batch",
]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_GOLDEN = 0x9E37_79B9_7F4A_7C15
_MIX1 = 0xBF58_476D_1CE4_E5B9
_MIX2 = 0x94D0_49BB_1331_11EB


def mix64(x: int) -> int:
    """splitmix64 finaliser: a fast, well-distributed 64-bit bijection."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def hash64(*parts: int) -> int:
    """Combine integer parts into a 64-bit hash.

    Parts may be arbitrarily large (e.g. 128-bit addresses); they are
    folded 64 bits at a time.
    """
    state = 0x5DEE_CE66_D1A4_F087
    for part in parts:
        if part < 0:
            raise ValueError("hash64 parts must be non-negative")
        while True:
            state = mix64(state ^ (part & _MASK64))
            part >>= 64
            if part == 0:
                break
    return state


def hash_address(seed: int, salt: int, address: int) -> int:
    """64-bit hash of an address under a (seed, salt) domain."""
    return hash64(seed, salt, address >> 64, address & _MASK64)


def uniform(*parts: int) -> float:
    """Deterministic uniform float in [0, 1) from integer parts."""
    return hash64(*parts) / 18446744073709551616.0  # 2**64


def coin(probability: float, *parts: int) -> bool:
    """Deterministic Bernoulli draw with the given probability."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return uniform(*parts) < probability


def choice_index(n: int, *parts: int) -> int:
    """Deterministic choice of an index in [0, n)."""
    if n <= 0:
        raise ValueError("cannot choose from an empty range")
    return hash64(*parts) % n


# -- vectorized counterparts -----------------------------------------------
#
# The batch kernels below reproduce the scalar functions element for
# element on uint64 numpy arrays: uint64 arithmetic wraps modulo 2**64
# exactly like the masked Python-int formulation, and the final uniform
# division by 2**64 performs the same correctly-rounded int->double
# conversion CPython does, so `uniform_batch(...) < p` and
# `coin(p, ...)` agree bit for bit.  The scalar≡vectorized contract is
# asserted wholesale in tests/test_vector_parity.py.

from .vector import PackedAddresses, np  # noqa: E402

_HASH_STATE = 0x5DEE_CE66_D1A4_F087
_TWO64 = 18446744073709551616.0  # 2**64
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFTS_U64 = (np.uint64(30), np.uint64(27), np.uint64(31))


def mix64_batch(x):
    """Vectorized :func:`mix64` over a uint64 array (wraps modulo 2**64)."""
    s30, s27, s31 = _SHIFTS_U64
    x = x + _GOLDEN_U64
    x ^= x >> s30
    x *= _MIX1_U64
    x ^= x >> s27
    x *= _MIX2_U64
    x ^= x >> s31
    return x


def hash64_batch(*parts):
    """Vectorized :func:`hash64`: parts are ints, uint64 arrays or
    :class:`~repro.addr.vector.PackedAddresses`.

    Scalar integer parts may be arbitrarily large (folded 64 bits at a
    time, like the scalar function); array parts must already be uint64
    lanes (one fold each).  A ``PackedAddresses`` part is a lane of
    128-bit integers (addresses, or any value below 2**128) folded the
    way the scalar function folds a wide int: the low word, then the
    high word only where it is non-zero.  Parts are folded in order with
    full broadcasting, so per-element lanes (e.g. per-region salts) can
    sit at any position.  Returns a uint64 array — or a ``np.uint64``
    scalar when no part was an array.
    """
    state = _HASH_STATE
    vector = False
    for part in parts:
        if isinstance(part, PackedAddresses):
            low = part.iid64
            state = mix64_batch((state ^ low) if vector else (low ^ np.uint64(state)))
            high = part.prefix64
            state = np.where(high != 0, mix64_batch(state ^ high), state)
            vector = True
        elif isinstance(part, np.ndarray):
            arr = part if part.dtype == np.uint64 else part.astype(np.uint64)
            state = (state ^ arr) if vector else (arr ^ np.uint64(state))
            state = mix64_batch(state)
            vector = True
        else:
            if part < 0:
                raise ValueError("hash64 parts must be non-negative")
            while True:
                word = part & _MASK64
                if vector:
                    state = mix64_batch(state ^ np.uint64(word))
                else:
                    state = mix64(state ^ word)
                part >>= 64
                if part == 0:
                    break
    if not vector:
        return np.uint64(state)
    return state


def uniform_batch(*parts):
    """Vectorized :func:`uniform`: float64 array in [0, 1)."""
    return hash64_batch(*parts) / _TWO64


def coin_batch(probability, *parts):
    """Vectorized :func:`coin`: boolean array of Bernoulli draws.

    ``probability`` may be a float or a per-element float64 array.  The
    elementwise comparison ``uniform < p`` equals the scalar ``coin``
    for every p (draws lie in [0, 1), so p <= 0 never passes and
    p >= 1 always does), which keeps the short-circuit branches of the
    scalar function bit-compatible without special-casing.
    """
    if not isinstance(probability, np.ndarray):
        if probability <= 0.0:
            return np.zeros(_broadcast_length(parts), dtype=bool)
        if probability >= 1.0:
            return np.ones(_broadcast_length(parts), dtype=bool)
    return uniform_batch(*parts) < probability


def _broadcast_length(parts) -> int:
    """Result length for coin_batch's constant branches."""
    for part in parts:
        if isinstance(part, (np.ndarray, PackedAddresses)):
            return len(part)
    return 1


#: Draws a stream computes per block, and the block's state offsets:
#: draw ``k`` (from 1) of a stream seeded at ``s0`` is ``mix64(s0 + k*GOLDEN)``.
_BLOCK = 256
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GOLDEN_U64


class DeterministicStream:
    """A sequential deterministic random stream.

    Unlike the pure hash functions above (which are addressed by their
    inputs), a stream produces a reproducible *sequence* — useful inside
    TGAs that need many draws whose count depends on data.

    Draw ``k`` is ``mix64(s0 + k * GOLDEN)`` for the seeded state ``s0``
    (a splitmix64 sequence); the stream computes them ``_BLOCK`` at a time
    with :func:`mix64_batch` and hands them out one by one, or as an
    array through :meth:`take`.
    """

    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, *seed_parts: int) -> None:
        #: State after the last computed block.
        self._state = hash64(*seed_parts) if seed_parts else 0x853C_49E6_748F_EA9B
        self._block: list[int] = []
        self._pos = 0

    def next64(self) -> int:
        """Next 64-bit value in the stream."""
        pos = self._pos
        block = self._block
        if pos == len(block):
            state = self._state
            block = self._block = mix64_batch(_BLOCK_STEPS + np.uint64(state)).tolist()
            self._state = (state + _BLOCK * _GOLDEN) & _MASK64
            pos = 0
        self._pos = pos + 1
        return block[pos]

    def take(self, n: int):
        """The next ``n`` draws as a uint64 array.

        Same values as ``n`` calls to :meth:`next64`, and the stream is
        left where those calls would leave it: the rest of the current
        block first, then whole new blocks, whose unused tail becomes
        the current block.
        """
        pos = self._pos
        head = self._block[pos : pos + n]
        self._pos = pos + len(head)
        rest = n - len(head)
        if not rest:
            return np.array(head, dtype=np.uint64)
        blocks = -(-rest // _BLOCK)
        if blocks == 1:
            steps = _BLOCK_STEPS
        else:
            steps = np.arange(1, blocks * _BLOCK + 1, dtype=np.uint64) * _GOLDEN_U64
        draws = mix64_batch(steps + np.uint64(self._state))
        self._state = (self._state + blocks * _BLOCK * _GOLDEN) & _MASK64
        last = (blocks - 1) * _BLOCK
        if rest - last == _BLOCK:
            # Every new draw is taken: the next single draw starts a block.
            self._block, self._pos = [], 0
        else:
            self._block = draws[last:].tolist()
            self._pos = rest - last
        if not head:
            return draws[:rest]
        return np.concatenate((np.array(head, dtype=np.uint64), draws[:rest]))

    def next_uniform(self) -> float:
        """Next uniform float in [0, 1)."""
        return self.next64() / 18446744073709551616.0

    def next_below(self, n: int) -> int:
        """Next integer uniform in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next64() % n

    def next_address_bits(self, bits: int) -> int:
        """Next integer with the given number of random bits (up to 128)."""
        if not 0 <= bits <= 128:
            raise ValueError("bits must be in [0, 128]")
        if bits == 0:
            return 0
        value = self.next64()
        if bits > 64:
            value = (value << 64) | self.next64()
            return value >> (128 - bits)
        return value >> (64 - bits)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by the stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: list, k: int) -> list:
        """Deterministic sample of ``k`` distinct items (k clipped to len)."""
        k = min(k, len(items))
        if k == 0:
            return []
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]
