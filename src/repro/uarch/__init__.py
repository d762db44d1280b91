"""Microarchitecture timing models: predictors, pipeline, presets."""

from .branch import DirectionConfig, HybridDirectionPredictor  # noqa: F401
from .btb import (  # noqa: F401
    BtbConfig,
    BtbLevel,
    CascadedBtb,
    IndirectPredictor,
    ReturnAddressStack,
)
from .config import CoreConfig, FrontendConfig, FuConfig, LsuConfig  # noqa: F401
from .core import PipelineModel  # noqa: F401
from .loopbuf import LoopBuffer, LoopBufferConfig  # noqa: F401
from .lsu import MemDepPredictor, StoreRecord  # noqa: F401
from .presets import PRESETS, get_preset  # noqa: F401
from .stats import CoreStats  # noqa: F401
