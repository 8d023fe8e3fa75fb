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
iCA baselines as its D = 2 case.  It solves a column with n stored cells
on one of two exact paths, chosen by flop count:

- thick columns (3 n^2 K + n^3 >= K^3): form the K x K system with
  batched matrix products and solve it by batched LU, about
  2 n K^2 + 2 K^3 / 3 flop per column;
- thin columns (3 n^2 K + n^3 < K^3, roughly n < 0.53 K): the stored
  cells add a rank-n term to J + lambda I, and J is shared by the whole
  axis, so with one eigendecomposition J = Q L Q^T per axis the
  push-through (Woodbury) identity needs only an n x n solve, about
  2 n K^2 + 2 n^2 K + 2 n^3 / 3 flop per column.
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
    "effective_lambdas",
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


def effective_lambdas(config: TrainConfig, obs: ObservationTensor, axis: int) -> np.ndarray:
    """Per-column regularization of one axis; support mode floors empty columns at reg * 1."""
    size = obs.shape.dims[axis]
    if config.reg_mode == "constant":
        return np.full(size, config.reg, dtype=np.float64)
    return config.reg * np.maximum(obs.support[axis], 1).astype(np.float64)


# block limits for the batched axis solve: padded cells per block keep the
# gathered (cols, width, K) stack cache-sized, columns per block bound the
# stacked (cols, K, K) system buffer
CELL_BLOCK = 8192
SOLVE_BLOCK = 1024


def _column_blocks(counts: np.ndarray, n_thin: int, max_cells: int, max_cols: int) -> list:
    """Split per-column cell counts into [b0, b1) blocks.

    The first n_thin columns are thin and the rest thick; counts ascend
    within each part, and no block straddles the cut.  A block pads every
    column to its widest (last) one, so it holds at most max_cells padded
    cells and max_cols columns; a single column wider than max_cells
    becomes its own block.  A thin block also ends before the first
    column more than twice as wide as its own first, which bounds the
    padding of its n x n systems.
    """
    blocks = []
    b0 = 0
    while b0 < len(counts):
        end = n_thin if b0 < n_thin else len(counts)
        widths = counts[b0 : min(b0 + max_cols, end)]
        padded = np.arange(1, len(widths) + 1) * widths
        take = int(np.searchsorted(padded, max_cells, side="right"))
        if b0 < n_thin:
            take = min(take, int(np.searchsorted(widths, 2 * widths[0], side="right")))
        b1 = b0 + max(1, take)
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
    their ridge problem.  The others are split into thin and thick ones
    (module docstring; a column with lambda <= 0 is always thick, so a
    singular system raises ``SolverError``), sorted by stored-cell count
    and cut into blocks, each gathered into a zero-padded (cols, width,
    K) stack of Hadamard cell vectors.  A thick block forms its K x K
    systems by batched matrix products and solves them by one batched
    LU, O(n K^2 + K^3) per column.  A thin block solves one batched
    n x n system against the eigendecomposition of the Gram product,
    made once per call and only when a thin column exists,
    O(n K^2 + n^2 K + n^3) per column.
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
    # flop crossover of the two paths (in float: n^3 overflows int64)
    sizes = counts[cols].astype(np.float64)
    thin = (3.0 * sizes**2 * k + sizes**3 < float(k) ** 3) & (lam[cols] > 0)
    cols = cols[np.lexsort((sizes, ~thin))]
    n_thin = int(thin.sum())
    if n_thin:
        spectrum, basis = np.linalg.eigh(base)
        # the Gram product is PSD (Schur product theorem): clip roundoff
        # below 0 so every thin column's L + lambda is positive
        np.maximum(spectrum, 0.0, out=spectrum)
    # row-major (S_a, K) copies so a gather yields contiguous K-vectors
    rows = [np.ascontiguousarray(model.factors[a].T) for a in others]
    eye = np.arange(k)

    for b0, b1 in _column_blocks(counts[cols], n_thin, CELL_BLOCK, SOLVE_BLOCK):
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

        if b0 < n_thin:
            matrix[:, block] = _solve_thin(v, w, spectrum + lam[block, None], basis)
            continue
        vt = v.transpose(0, 2, 1)
        systems = np.matmul(vt * (w - 1.0)[:, None, :], v)
        systems += base
        systems[:, eye, eye] += lam[block, None]
        rhs = np.matmul(vt, w[:, :, None])
        try:
            solution = np.linalg.solve(systems, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular normal equations; use a regularization value > 0 "
                "that the cell weights do not dwarf"
            ) from exc
        matrix[:, block] = solution[:, :, 0].T

    model.grams[axis] = matrix @ matrix.T


def _solve_thin(v: np.ndarray, w: np.ndarray, delta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Solve a block of thin columns by the push-through identity.

    With the Gram product J = Q L Q^T, each column's system is
    Q (D + E^T E) Q^T m = V^T w, where D = L + lambda > 0 (``delta``, one
    row per column), U = V Q and E = diag(sqrt(w - 1)) U.  With g = U^T w,
    its solution is m = Q D^-1 (g - E^T z), where z solves the n x n SPD
    system (I + E D^-1 E^T) z = E D^-1 g.  Padding cells have U = 0, so
    they add identity rows with z = 0.  Returns the (K, cols) solutions.
    """
    e = np.matmul(v, basis)  # U, scaled into E once g is formed
    g = np.matmul(w[:, None, :], e)[:, 0, :]
    e *= np.sqrt(w - 1.0)[:, :, None]
    inv = 1.0 / delta
    scaled = e * inv[:, None, :]
    small = np.matmul(scaled, e.transpose(0, 2, 1))
    diag = np.arange(small.shape[1])
    small[:, diag, diag] += 1.0
    z = np.linalg.solve(small, np.matmul(scaled, g[:, :, None]))
    y = inv * (g - np.matmul(e.transpose(0, 2, 1), z)[:, :, 0])
    return basis @ y.T


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
    axis update when provided (used for loss tracing).  Raises
    ``SolverError`` naming the epoch and axis as soon as an axis update
    leaves non-finite factors.
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
            # overflow shows as a non-finite Gram, checked in O(K^2)
            with np.errstate(over="ignore", invalid="ignore"):
                solve_axis(model, obs, axis, lams[axis])
            if not np.isfinite(model.grams[axis]).all():
                raise SolverError(
                    f"non-finite factors in epoch {epoch + 1}, axis {axis} "
                    f"({obs.shape.axis_roles[axis]}): the normal equations overflowed"
                )
            if after_axis is not None:
                after_axis(model, epoch, axis)
        log.info(
            "epoch %d/%d finished in %.3fs",
            epoch + 1,
            config.epochs,
            time.perf_counter() - started,
        )
    return model
