"""IPv6 address primitives: integer addresses, nybbles, prefixes, tries, hashing."""

from .address import (
    ADDRESS_BITS,
    ADDRESS_NYBBLES,
    MAX_ADDRESS,
    format_address,
    format_address_full,
    interface_identifier,
    is_valid_address,
    network_part,
    parse_address,
)
from .nybbles import (
    common_prefix_len,
    differing_positions,
    from_nybbles,
    get_nybble,
    nybble_counts,
    set_nybble,
    to_nybbles,
)
from .prefix import Prefix
from .rand import (
    DeterministicStream,
    choice_index,
    coin,
    coin_batch,
    hash64,
    hash64_batch,
    hash_address,
    mix64,
    mix64_batch,
    uniform,
    uniform_batch,
)
from .seeds import SeedList
from .trie import PrefixTrie
from .vector import PackedAddresses

__all__ = [
    "ADDRESS_BITS",
    "ADDRESS_NYBBLES",
    "MAX_ADDRESS",
    "parse_address",
    "format_address",
    "format_address_full",
    "is_valid_address",
    "interface_identifier",
    "network_part",
    "get_nybble",
    "set_nybble",
    "to_nybbles",
    "from_nybbles",
    "common_prefix_len",
    "differing_positions",
    "nybble_counts",
    "Prefix",
    "PrefixTrie",
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
    "PackedAddresses",
    "SeedList",
]
