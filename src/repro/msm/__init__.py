"""The MSM stage substrate: naive oracle, window decomposition,
bellperson-model sub-MSM Pippenger, MINA-model Straus, the GZKP
consolidated MSM (Algorithm 1), windowed scalar multiplication
(Algorithm 1 at one fixed base, and a few variable bases), workload
scheduling, CPU baseline, and the Figure 9 memory model."""

from repro.msm.windows import DigitStats, bucket_histogram, num_windows, scalar_digits
from repro.msm.naive import naive_msm
from repro.msm.pippenger import SubMsmPippenger, bucket_reduce
from repro.msm.straus import StrausMsm
from repro.msm.context import MsmContext, MsmContextCache
from repro.msm.gzkp import GzkpMsm, GzkpMsmConfig
from repro.msm.fixed_base import FixedBaseTable, batch_scalar_mul, fixed_base_mul
from repro.msm.cpu import CpuMsm, optimal_cpu_window
from repro.msm.scheduling import (
    TaskGroup,
    WarpAssignment,
    group_tasks_by_load,
    map_tasks_to_warps,
    schedule_quality,
)
from repro.msm.memory_model import memory_curve, msm_memory_usage
from repro.msm.common import affine_point_bytes, coord_bits, fq_mul_factor_of

__all__ = [
    "DigitStats",
    "bucket_histogram",
    "num_windows",
    "scalar_digits",
    "naive_msm",
    "SubMsmPippenger",
    "bucket_reduce",
    "StrausMsm",
    "GzkpMsm",
    "GzkpMsmConfig",
    "FixedBaseTable",
    "fixed_base_mul",
    "batch_scalar_mul",
    "MsmContext",
    "MsmContextCache",
    "CpuMsm",
    "optimal_cpu_window",
    "TaskGroup",
    "WarpAssignment",
    "group_tasks_by_load",
    "map_tasks_to_warps",
    "schedule_quality",
    "memory_curve",
    "msm_memory_usage",
    "affine_point_bytes",
    "coord_bits",
    "fq_mul_factor_of",
]
