"""Epoch-timing benchmarks on synthesized implicit tensors.

Two sweeps probe the training cost model: epoch time against the number
of stored cells at fixed feature count (expected affine) and against the
feature count at fixed cells (expected roughly quadratic at practical
sizes).  Timings use the median over repeated epochs after a warmup.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .solver import TrainConfig, fit
from .tensor import ObservationTensor, TensorShape

__all__ = [
    "BenchPoint",
    "BenchResult",
    "synthetic_tensor",
    "median_epoch_time",
    "run_benchmark",
    "benchmark_csv",
]

DEFAULT_DIMS = (500, 500, 10)
DEFAULT_K_GRID = (10, 20, 40, 80)
DEFAULT_NPLUS_GRID = (10_000, 20_000, 40_000, 80_000)


@dataclass
class BenchPoint:
    sweep: str
    features: int
    n_plus: int
    median_epoch_s: float
    repeats: int
    status: str = "ok"


@dataclass
class BenchResult:
    points: list = field(default_factory=list)
    nplus_fit: Optional[dict] = None  # slope, intercept, r2
    k_fit: Optional[dict] = None  # exponent, r2


def synthetic_tensor(dims: Sequence[int], n_plus: int, seed: int = 0) -> ObservationTensor:
    """Random tensor with exactly n_plus distinct uniform cells."""
    dims = tuple(int(s) for s in dims)
    n_cells = int(np.prod(dims))
    if n_plus > n_cells:
        raise ValueError(f"cannot place {n_plus} distinct cells in {n_cells}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.shape[0] < n_plus:
        draw = rng.integers(0, n_cells, size=int(1.2 * (n_plus - chosen.shape[0])) + 16)
        chosen = np.unique(np.concatenate([chosen, draw]))
    chosen = rng.permutation(chosen)[:n_plus]
    coords = np.stack(np.unravel_index(chosen, dims), axis=1)
    weights = rng.uniform(2.0, 101.0, size=n_plus)
    roles = ["user", "item"] + [f"context-{i + 1}" for i in range(len(dims) - 2)]
    return ObservationTensor(TensorShape(dims, roles), coords, weights)


def median_epoch_time(
    obs: ObservationTensor,
    config: TrainConfig,
    repeats: int = 3,
    warmup: int = 1,
) -> float:
    """Median wall time of a full axis sweep, after warmup epochs.

    Runs ``fit`` for warmup + repeats epochs and times each epoch from
    the end of the previous one; the first epoch's time also covers the
    seeded init.
    """
    ends = [time.perf_counter()]

    def after_axis(model, epoch, axis):
        if axis == obs.ndim - 1:
            ends.append(time.perf_counter())

    fit(obs, replace(config, epochs=warmup + repeats), after_axis=after_axis)
    return float(np.median(np.diff(ends)[warmup:]))


def _fit_line(x: np.ndarray, y: np.ndarray) -> dict:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def run_benchmark(
    k_grid: Sequence[int] = DEFAULT_K_GRID,
    nplus_grid: Sequence[int] = DEFAULT_NPLUS_GRID,
    dims: Sequence[int] = DEFAULT_DIMS,
    k_fixed: int = 20,
    nplus_fixed: int = 50_000,
    repeats: int = 3,
    reg: float = 0.1,
    seed: int = 0,
) -> BenchResult:
    """Time both sweeps and fit their scaling laws.

    A grid point that runs out of memory is recorded with an error status
    instead of aborting the run.
    """
    result = BenchResult()

    def timed(sweep: str, k: int, n_plus: int) -> None:
        try:
            obs = synthetic_tensor(dims, n_plus, seed)
            config = TrainConfig(features=k, epochs=1, reg=reg, seed=seed)
            median = median_epoch_time(obs, config, repeats=repeats)
            result.points.append(BenchPoint(sweep, k, n_plus, median, repeats))
        except MemoryError:
            result.points.append(BenchPoint(sweep, k, n_plus, float("nan"), repeats, "oom"))

    for n_plus in nplus_grid:
        timed("nplus", k_fixed, int(n_plus))
    for k in k_grid:
        timed("k", int(k), nplus_fixed)

    nplus_pts = [p for p in result.points if p.sweep == "nplus" and p.status == "ok"]
    if len(nplus_pts) >= 2:
        x = np.array([p.n_plus for p in nplus_pts], dtype=np.float64)
        y = np.array([p.median_epoch_s for p in nplus_pts])
        result.nplus_fit = _fit_line(x, y)
    k_pts = [p for p in result.points if p.sweep == "k" and p.status == "ok"]
    if len(k_pts) >= 2:
        x = np.log(np.array([p.features for p in k_pts], dtype=np.float64))
        y = np.log(np.array([p.median_epoch_s for p in k_pts]))
        fit = _fit_line(x, y)
        result.k_fit = {"exponent": fit["slope"], "r2": fit["r2"]}
    return result


def benchmark_csv(result: BenchResult) -> str:
    """One row per grid point; fit statistics repeat on their sweep's rows."""
    buf = io.StringIO()
    buf.write(
        "sweep,features,n_plus,median_epoch_s,repeats,status,"
        "fit_slope,fit_intercept,fit_r2,fit_exponent\n"
    )
    for p in result.points:
        slope = intercept = r2 = exponent = ""
        if p.sweep == "nplus" and result.nplus_fit:
            slope = f"{result.nplus_fit['slope']:.6g}"
            intercept = f"{result.nplus_fit['intercept']:.6g}"
            r2 = f"{result.nplus_fit['r2']:.6g}"
        if p.sweep == "k" and result.k_fit:
            exponent = f"{result.k_fit['exponent']:.6g}"
            r2 = f"{result.k_fit['r2']:.6g}"
        median = "" if np.isnan(p.median_epoch_s) else f"{p.median_epoch_s:.6g}"
        buf.write(
            f"{p.sweep},{p.features},{p.n_plus},{median},{p.repeats},{p.status},"
            f"{slope},{intercept},{r2},{exponent}\n"
        )
    return buf.getvalue()
