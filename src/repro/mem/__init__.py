"""Memory subsystem models: caches, TLBs, prefetch, DRAM, page tables."""

from .cache import Cache, CacheStats  # noqa: F401
from .dram import Dram, DramConfig  # noqa: F401
from .hierarchy import MemHierConfig, MemoryHierarchy  # noqa: F401
from .prefetch import PrefetchConfig, StreamPrefetcher  # noqa: F401
from .ptw import (  # noqa: F401
    PageFault,
    PageTableBuilder,
    PageTableWalker,
    Translation,
)
from .tlb import Tlb, TlbConfig, TlbEntry  # noqa: F401
