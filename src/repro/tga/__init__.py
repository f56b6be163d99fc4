"""The eight Target Generation Algorithms and shared machinery."""

from .base import (
    ALL_TGA_NAMES,
    TGA_ALIASES,
    TGA_TABLE1,
    Table1Row,
    TargetGenerator,
    canonical_tga_name,
    create_tga,
    register_tga,
    tga_class,
)
from .addrminer import AddrMiner
from .det import DET
from .entropy_ip import EntropyIP
from .leafpool import LeafPool
from .modelcache import (
    CacheStats,
    ModelCache,
    cached_space_tree,
    get_model_cache,
    seed_fingerprint,
    use_model_cache,
)
from .modelstore import (
    ModelStore,
    StoreStats,
    get_model_store,
    resolve_model_store,
    set_model_store,
    use_model_store,
)
from .sixgen import SixGen
from .sixgraph import SixGraph
from .sixhit import SixHit
from .sixscan import SixScan
from .sixsense import SixSense
from .sixtree import SixTree
from .spacetree import (
    LeafTable,
    SpaceTree,
    SpaceTreeLeaf,
    expanded_values,
    leaf_candidates,
    space_forest,
)

__all__ = [
    "TargetGenerator",
    "create_tga",
    "tga_class",
    "canonical_tga_name",
    "register_tga",
    "ALL_TGA_NAMES",
    "TGA_ALIASES",
    "Table1Row",
    "TGA_TABLE1",
    "SpaceTree",
    "SpaceTreeLeaf",
    "LeafTable",
    "LeafPool",
    "expanded_values",
    "leaf_candidates",
    "space_forest",
    "CacheStats",
    "ModelCache",
    "cached_space_tree",
    "get_model_cache",
    "seed_fingerprint",
    "use_model_cache",
    "ModelStore",
    "StoreStats",
    "get_model_store",
    "resolve_model_store",
    "set_model_store",
    "use_model_store",
    "SixTree",
    "SixScan",
    "SixHit",
    "SixGen",
    "SixGraph",
    "SixSense",
    "DET",
    "EntropyIP",
    "AddrMiner",
]
