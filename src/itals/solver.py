"""ALS training for implicit-feedback tensor factorization.

The model approximates a binary D-dimensional tensor as the elementwise
product of one factor column per axis, summed over K features.  Training
alternates over axes; each axis update solves, per column, the
confidence-weighted ridge system

    (J + sum_cells (w - 1) v v^T + lambda I) m = sum_cells w v

where v is the Hadamard product of the other axes' columns at a stored
cell's coordinates and J, the contribution of every implicit zero cell,
is the Hadamard product of the other axes' cached K x K Gram matrices.
Splitting each stored weight as 1 + (w - 1) is what removes the full
tensor sweep: zero cells are covered entirely by the Gram product, so an
epoch costs O(K^2 N+ + K^3 sum S_i) instead of touching all cells.

``solve_axis`` is the only ALS kernel: it trains iTALS, and the iALS and
iCA baselines as its D = 2 case.  It forms each block of columns'
systems with batched matrix products and solves them with one batched
LU factorization.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import ObservationTensor, TensorShape

__all__ = [
    "TrainConfig",
    "Model",
    "SolverError",
    "effective_lambda",
    "effective_lambdas",
    "predict_cell",
    "solve_axis",
    "fit",
    "init_factors",
]

log = logging.getLogger("itals")

REG_MODES = ("constant", "support")


class SolverError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Training hyperparameters.

    ``reg_mode='support'`` scales the base regularization by each
    column's stored-cell count (floored at 1 for empty columns);
    ``'constant'`` applies ``reg`` uniformly.  ``init_scale`` defaults to
    1/sqrt(features) so initial predictions start near the data scale.
    """

    features: int = 20
    epochs: int = 10
    reg: float = 0.0
    reg_mode: str = "constant"
    seed: int = 0
    init_scale: Optional[float] = None

    def __post_init__(self):
        if self.features < 1:
            raise ValueError("features must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.reg < 0:
            raise ValueError("reg must be >= 0")
        if self.reg_mode not in REG_MODES:
            raise ValueError(f"reg_mode must be one of {REG_MODES}")
        if self.init_scale is None:
            self.init_scale = 1.0 / np.sqrt(self.features)
        if self.init_scale <= 0:
            raise ValueError("init_scale must be > 0")


@dataclass
class Model:
    """Trained factorization: one K x S_i factor matrix per axis.

    ``grams[i]`` caches factors[i] @ factors[i].T and is kept consistent
    by the axis updates.  ``id_maps`` optionally carries the original
    string ids per axis (None for axes without one).
    """

    shape: TensorShape
    factors: list
    grams: list
    config: TrainConfig
    id_maps: Optional[list] = None

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    @property
    def features(self) -> int:
        return int(self.factors[0].shape[0])


def init_factors(config: TrainConfig, dims: Sequence[int]) -> list:
    """Seeded positive uniform init in (0, init_scale), axis by axis."""
    rng = np.random.default_rng(config.seed)
    return [
        rng.uniform(0.0, config.init_scale, size=(config.features, int(s)))
        for s in dims
    ]


def effective_lambda(
    config: TrainConfig, obs: ObservationTensor, axis: int, column: int
) -> float:
    """Per-column regularization; support mode floors empty columns at reg * 1."""
    if config.reg_mode == "constant":
        return config.reg
    return config.reg * max(int(obs.support[axis][column]), 1)


def effective_lambdas(config: TrainConfig, obs: ObservationTensor, axis: int) -> np.ndarray:
    """Vectorized effective_lambda over all columns of one axis."""
    size = obs.shape.dims[axis]
    if config.reg_mode == "constant":
        return np.full(size, config.reg, dtype=np.float64)
    return config.reg * np.maximum(obs.support[axis], 1).astype(np.float64)


def predict_cell(model: Model, coord: Sequence[int]) -> float:
    """Score one cell: sum over features of the product of factor entries."""
    coord = tuple(int(c) for c in coord)
    if len(coord) != model.ndim:
        raise IndexError(f"coordinate must have {model.ndim} entries")
    v = np.ones(model.features, dtype=np.float64)
    for axis, c in enumerate(coord):
        if not (0 <= c < model.shape.dims[axis]):
            raise IndexError(
                f"coordinate {c} out of bounds on axis {axis} "
                f"(size {model.shape.dims[axis]})"
            )
        v = v * model.factors[axis][:, c]
    return float(v.sum())


# block limits for the batched axis solve: padded cells per block keep the
# gathered (cols, width, K) stack cache-sized, columns per block bound the
# stacked (cols, K, K) system buffer
CELL_BLOCK = 8192
SOLVE_BLOCK = 1024


def _column_blocks(counts: np.ndarray, max_cells: int, max_cols: int) -> list:
    """Split ascending per-column cell counts into [b0, b1) blocks.

    A block pads every column to its widest (last) one, so it holds at
    most max_cells padded cells and max_cols columns; a single column
    wider than max_cells becomes its own block.
    """
    blocks = []
    b0 = 0
    while b0 < len(counts):
        widths = counts[b0 : b0 + max_cols]
        padded = np.arange(1, len(widths) + 1) * widths
        b1 = b0 + max(1, int(np.searchsorted(padded, max_cells, side="right")))
        blocks.append((b0, b1))
        b0 = b1
    return blocks


def solve_axis(
    model: Model,
    obs: ObservationTensor,
    axis: int,
    lambda_eff,
) -> None:
    """Exactly solve every column of one factor matrix, then refresh its Gram.

    ``lambda_eff`` is a scalar or per-column array of ridge terms.  The
    Gram matrices of all other axes must be consistent with their factors
    when called; ``fit`` maintains that invariant.

    Columns without stored cells are set to 0, the exact minimizer of
    their ridge problem.  The others are sorted by stored-cell count and
    cut into blocks; each block's Hadamard cell vectors are gathered into
    a zero-padded (cols, width, K) stack, its systems and right-hand
    sides come from batched matrix products, and one batched LU solve
    finishes the block.
    """
    d = model.ndim
    size = obs.shape.dims[axis]
    k = model.features
    others = [a for a in range(d) if a != axis]

    base = model.grams[others[0]].copy()
    for a in others[1:]:
        base *= model.grams[a]

    lam = np.broadcast_to(np.asarray(lambda_eff, dtype=np.float64), (size,))
    order, starts = obs.axis_groups(axis)
    counts = np.diff(starts)
    matrix = model.factors[axis]
    matrix[:, counts == 0] = 0.0
    cols = np.flatnonzero(counts)
    cols = cols[np.argsort(counts[cols], kind="stable")]
    # row-major (S_a, K) copies so a gather yields contiguous K-vectors
    rows = [np.ascontiguousarray(model.factors[a].T) for a in others]
    eye = np.arange(k)

    for b0, b1 in _column_blocks(counts[cols], CELL_BLOCK, SOLVE_BLOCK):
        block = cols[b0:b1]
        n = counts[block]
        offsets = np.arange(n[-1])
        pad = offsets >= n[:, None]
        cells = order[np.minimum(starts[block, None] + offsets, starts[block + 1, None] - 1)]

        # Hadamard product of the other axes' columns, one K-vector per
        # stored cell; w splits as 1 + (w - 1) so the zero cells are
        # already covered by the Gram product in `base`.  Padding cells
        # get v = 0 and contribute nothing.
        v = rows[0][obs.coords[cells, others[0]]]
        for a, r in zip(others[1:], rows[1:]):
            v *= r[obs.coords[cells, a]]
        v[pad] = 0.0
        w = obs.weights[cells]

        vt = v.transpose(0, 2, 1)
        systems = np.matmul(vt * (w - 1.0)[:, None, :], v)
        systems += base
        systems[:, eye, eye] += lam[block, None]
        rhs = np.matmul(vt, w[:, :, None])
        try:
            solution = np.linalg.solve(systems, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular normal equations; use a regularization value > 0"
            ) from exc
        matrix[:, block] = solution[:, :, 0].T

    model.grams[axis] = matrix @ matrix.T


def fit(
    obs: ObservationTensor,
    config: TrainConfig,
    id_maps: Optional[list] = None,
    after_axis: Optional[Callable] = None,
) -> Model:
    """Train a model by alternating exact axis solves.

    Factors start from a seeded uniform init, Grams are precomputed, and
    each epoch sweeps axes in order.  Deterministic given seed, data and
    config.  ``after_axis(model, epoch, axis)`` is invoked after every
    axis update when provided (used for loss tracing).
    """
    if obs.n_nonzero == 0:
        raise SolverError("cannot fit an empty observation tensor")
    d = obs.ndim
    factors = init_factors(config, obs.shape.dims)
    grams = [m @ m.T for m in factors]
    model = Model(obs.shape, factors, grams, config, id_maps)

    lams = [effective_lambdas(config, obs, axis) for axis in range(d)]
    for epoch in range(config.epochs):
        started = time.perf_counter()
        for axis in range(d):
            solve_axis(model, obs, axis, lams[axis])
            if after_axis is not None:
                after_axis(model, epoch, axis)
        log.info(
            "epoch %d/%d finished in %.3fs",
            epoch + 1,
            config.epochs,
            time.perf_counter() - started,
        )
    return model
