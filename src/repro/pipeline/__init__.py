"""Out-of-order execution core substrate: resources and cycle-level timing."""

from repro.pipeline.core import TimingCore
from repro.pipeline.resources import (
    CoreParams,
    ExecProfile,
    narrow_core_params,
    narrow_fu_counts,
    wide_core_params,
    wide_fu_counts,
)

__all__ = [
    "CoreParams",
    "ExecProfile",
    "TimingCore",
    "narrow_core_params",
    "narrow_fu_counts",
    "wide_core_params",
    "wide_fu_counts",
]
