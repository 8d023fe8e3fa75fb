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
  2 n^2 K + 2 n^3 / 3 flop per column once the cells' rows U = V Q are
  made.  A cell's V row is the Hadamard product of one row per other
  axis, and those row tuples repeat across cells, so an axis whose thin
  cells hold T distinct tuples, T at most half those cells and at most
  ``CELL_BLOCK``, rotates each tuple once, 2 T K^2 flop per axis, and its
  thin columns gather their U rows; on any other axis U costs 2 n K^2
  per column.

What does not depend on the factors is an axis's solve plan
(``_AxisPlan``), which ``fit`` builds once per axis before the first
epoch: the empty columns, the column order and thin/thick split, the
blocks, the tuple table if the axis has one, and per block the cell
indices (into the tuple table for a thin block of such an axis, and
otherwise into each other axis, with padding at a zero sentinel row),
the cell weights and the lambdas.  An epoch only forms the Gram product
(and its eigendecomposition when a thin column exists), copies the other
axes' factors into row tables, rotates the tuple table, gathers,
accumulates and solves the systems, and refreshes the Gram.

Training runs on every CPU the process may use.  Once the Gram product
is formed, the columns of an axis are independent systems, so ``_each``
hands an axis's jobs (``_jobs``: the blocks wider than ``CELL_BLOCK`` in
one, every other block cut into one column slice per CPU) to that many
lanes: the calling thread and threads started for the call.  A slice
keeps its block's padded width, the tuple table is rotated before the
lanes start, and a thin block's product spans the whole block and is
made after the lanes join, so every column's
arithmetic, and so every factor bit, is the same on any number of CPUs
(the BLAS library's own thread count is another matter).  The iCA
baseline (``baseline.fit_ica``) hands its sub-models to the lanes
instead, and each sub-model's axis solves run inline in its lane.  A
single CPU runs the plain loop and starts no thread.

A lane runs in parallel only while the others' numpy calls release the
GIL.  numpy's ``matmul``, like its other generalized ufuncs such as
``np.linalg.solve``, keeps the GIL for a result of at most 500 entries
(numpy 2.4), as a one-column slice's products have: the K-vector
right-hand side, and the K x K system at K <= 22.  ``np.dot`` releases
it around the same BLAS call, with the same bits.  So every matrix
product of the solver goes through ``_matmul``, which gives a product of
one matrix by one matrix to ``np.dot`` and a real stack to ``matmul``.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import threading
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
    ``features`` and ``epochs`` lie in [1, 2**32) and ``seed`` in
    [0, 2**63), the widths of the model file's config trailer; ``reg``
    and ``init_scale`` are real numbers, none of them a bool.
    """

    features: int = 20
    epochs: int = 10
    reg: float = 0.0
    reg_mode: str = "constant"
    seed: int = 0
    init_scale: Optional[float] = None

    def __post_init__(self):
        for name, low, high in (("features", 1, 2**32), ("epochs", 1, 2**32), ("seed", 0, 2**63)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
                raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
        if self.reg_mode not in REG_MODES:
            raise ValueError(f"reg_mode must be one of {REG_MODES}")
        if self.init_scale is None:
            self.init_scale = 1.0 / np.sqrt(self.features)
        for name in ("reg", "init_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.reg) and self.reg >= 0):
            raise ValueError(f"reg must be finite and >= 0, got {self.reg!r}")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale!r}")


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


# set inside a lane of ``_each``, so that a call made there runs inline
_in_lane = threading.local()


def _cpu_count() -> int:
    """The CPUs this process may run on (all of the machine's where the OS has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lanes() -> int:
    """The lanes ``_each`` runs on: one per CPU, or one inside a lane."""
    return 1 if getattr(_in_lane, "on", False) else _cpu_count()


def _each(items: Sequence, work: Callable) -> None:
    """Run ``work(item)`` for every item, on up to ``_lanes()`` lanes.

    The calling thread is one lane and the others are threads started for
    this call; every lane takes the next item from one shared iterator,
    under the caller's ``np.errstate`` (numpy before 2.0 keeps it per
    thread), and stops taking items once one has failed.  When all lanes
    have stopped, the exception of the earliest failed item is raised:
    the one a plain loop would raise.  On one lane this is a plain loop
    and starts no thread.
    """
    lanes = min(_lanes(), len(items))
    if lanes <= 1:
        for item in items:
            work(item)
        return
    queue = iter(enumerate(items))
    lock = threading.Lock()
    failed: list = []
    errors = np.geterr()

    def lane() -> None:
        _in_lane.on = True
        try:
            with np.errstate(**errors):
                while not failed:
                    with lock:
                        taken = next(queue, None)
                    if taken is None:
                        return
                    try:
                        work(taken[1])
                    except BaseException as exc:
                        failed.append((taken[0], exc))
        finally:
            _in_lane.on = False

    threads = [threading.Thread(target=lane) for _ in range(lanes - 1)]
    for thread in threads:
        thread.start()
    try:
        lane()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise min(failed, key=lambda entry: entry[0])[1]


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


def _jobs(blocks: list, lanes: int) -> list:
    """The jobs ``_each`` hands an axis's lanes: lists of (block, lo, hi) column slices.

    A block wider than ``CELL_BLOCK`` padded cells is one column, which
    cannot be cut: all such blocks form the first job, so one lane solves
    them in turn and the lanes hold at most one of them and slices of
    others.  Every other block is cut into one slice per lane, a job each.
    """
    wide, jobs = [], []
    for b, (block, _, w, _, _) in enumerate(blocks):
        if w.size > CELL_BLOCK:
            wide.append((b, 0, len(block)))
        else:
            cuts = sorted({len(block) * j // lanes for j in range(lanes + 1)})
            jobs += [[(b, lo, hi)] for lo, hi in zip(cuts[:-1], cuts[1:])]
    return [wide] + jobs if wide else jobs


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)`` for ``a`` 2-D or an (n, r, c) stack and ``b`` 2-D or a stack of n.

    ``b`` is 2-D when ``a`` is.  When each operand is one matrix, a 2-D
    pair or a stack of one, the product is ``np.dot``'s (a stack axis
    dropped and put back): the same BLAS call and bits, with the GIL
    released, which ``matmul`` keeps for a small result (module
    docstring).  Real stacks go to ``matmul``.
    """
    if a.ndim == 3 and len(a) > 1:
        return np.matmul(a, b)
    if a.ndim == 2:
        return np.dot(a, b)
    return np.dot(a[0], b[0] if b.ndim == 3 else b)[None]


def _worth_a_table(tuples: int, cells: int) -> bool:
    """Whether the thin columns of an axis, with ``cells`` stored cells
    holding ``tuples`` distinct row tuples, gather their U rows from a
    rotated table: when it spares at least half of the cells' rotations,
    which pays for the extra gather, and holds no more rows than
    ``CELL_BLOCK``, the rows of one block's stack."""
    return tuples <= min(cells / 2, CELL_BLOCK)


def _distinct(index: np.ndarray) -> tuple:
    """The distinct columns of an (m, cells) array of non-negative
    integers, in lexicographic order, and each cell's position among them.
    Each row is ranked among its own values and merged into the key of the
    rows before it, which is then renumbered, so a key stays below cells
    times a row's distinct values.
    """
    key = None
    for row in index:
        values = np.flatnonzero(np.bincount(row))
        rank = np.zeros(values[-1] + 1, dtype=np.int64)
        rank[values] = np.arange(len(values))
        if key is None:
            key, table = rank[row], values[None]
        else:
            merged, key = np.unique(key * len(values) + rank[row], return_inverse=True)
            table = np.vstack([table[:, merged // len(values)], values[merged % len(values)]])
    return table, key


class _AxisPlan:
    """The part of one axis solve that does not depend on the factors.

    Thin columns come first, each part in ascending cell count, cut into
    ``_column_blocks`` blocks.  A block is (column ids, cell index, cell
    weights, lambdas, thin or not), the index and weights (cols, width)
    arrays.  A block's index is a list of one array per other axis, whose
    padding points at the sentinel row S_a, except on an axis with a
    ``table``: the (D - 1, T) distinct other-axis row tuples of its thin
    blocks, padding's all-sentinel tuple among them (None on other axes).
    There a thin block's index is one array into the table.  The work
    counts are ``n_thin``, ``n_thick``, ``padded_cells``, ``tuples`` (T, or
    0 without a table) and ``flop``, the module docstring's estimate
    summed over the axis.
    """

    def __init__(self, obs: ObservationTensor, axis: int, k: int, lambda_eff):
        dims = obs.shape.dims
        self.axis = axis
        self.others = [a for a in range(obs.ndim) if a != axis]
        lam = np.broadcast_to(np.asarray(lambda_eff, dtype=np.float64), (dims[axis],))
        order, starts = obs.axis_groups(axis)
        counts = np.diff(starts)
        self.empty = counts == 0
        cols = np.flatnonzero(counts)
        # flop crossover of the two paths (in float: n^3 overflows int64)
        sizes = counts[cols].astype(np.float64)
        thin = (3.0 * sizes**2 * k + sizes**3 < float(k) ** 3) & (lam[cols] > 0)
        thin_sizes = sizes[thin]
        cols = cols[np.lexsort((sizes, ~thin))]
        self.n_thin = int(thin.sum())
        self.n_thick = len(cols) - self.n_thin

        self.blocks = []
        for b0, b1 in _column_blocks(counts[cols], self.n_thin, CELL_BLOCK, SOLVE_BLOCK):
            block = cols[b0:b1]
            n = counts[block]
            offsets = np.arange(n[-1])
            pad = offsets >= n[:, None]
            cells = order[np.minimum(starts[block, None] + offsets, starts[block + 1, None] - 1)]
            index = [np.where(pad, dims[a], obs.coords[cells, a]) for a in self.others]
            self.blocks.append((block, index, obs.weights[cells], lam[block, None], b0 < self.n_thin))
        self.padded_cells = sum(w.size for _, _, w, _, _ in self.blocks)

        # the thin blocks gather their U rows from one rotated table of their
        # distinct row tuples (``solve``) when ``_worth_a_table``
        self.table, self.tuples, gathered = None, 0, 0
        thin_blocks = self.blocks[: sum(thin for *_, thin in self.blocks)]
        if thin_blocks:
            stacked = np.concatenate(
                [np.reshape(index, (len(self.others), -1)) for _, index, *_ in thin_blocks], axis=1
            )
            table, inverse = _distinct(stacked)
            if _worth_a_table(table.shape[1], thin_sizes.sum()):
                self.table, self.tuples, gathered = table, table.shape[1], thin_sizes.sum()
                parts = np.split(inverse, np.cumsum([w.size for _, _, w, _, _ in thin_blocks])[:-1])
                for b, ((block, _, w, lam_b, _), part) in enumerate(zip(thin_blocks, parts)):
                    self.blocks[b] = (block, part.reshape(w.shape), w, lam_b, True)

        self.flop = float(
            2.0 * k * k * (sizes.sum() - gathered + self.tuples)
            + 2.0 * k**3 / 3.0 * self.n_thick
            + (2.0 * thin_sizes**2 * k + 2.0 * thin_sizes**3 / 3.0).sum()
        )

    def solve(self, model: Model) -> None:
        """Solve every column of the axis against the current factors, then refresh its Gram.

        ``_each``'s lanes take the jobs of ``_jobs`` and share only disjoint
        writes: the calling thread rotates the tuple table before they
        start, a thin block's slices write its rows y, and once the lanes
        have joined the calling thread makes each thin block's
        ``basis @ y.T``.  A slice keeps its block's padded width, so every
        column sees the same arithmetic on any number of lanes.  Every
        product goes through ``_matmul``, so a one-column slice's products,
        one matrix each, run under ``np.dot`` with the GIL released and the
        bits ``matmul`` gives, where ``matmul`` would keep the GIL and stall
        the other lanes.
        """
        k = model.features
        base = model.grams[self.others[0]].copy()
        for a in self.others[1:]:
            base *= model.grams[a]

        matrix = model.factors[self.axis]
        matrix[:, self.empty] = 0.0
        if self.n_thin:
            spectrum, basis = np.linalg.eigh(base)
            # the Gram product is PSD (Schur product theorem): clip roundoff
            # below 0 so every thin column's L + lambda is positive
            np.maximum(spectrum, 0.0, out=spectrum)
        # row-major (S_a + 1, K) copies so a gather yields contiguous
        # K-vectors; the zero last row is what padding cells gather
        rows = []
        for a in self.others:
            factor = model.factors[a]
            table = np.zeros((factor.shape[1] + 1, k))
            table[:-1] = factor.T
            rows.append(table)
        if self.table is not None:
            # row t is the product of the rows ``self.table[:, t]`` in the
            # gather's order, so it has the bits of the V row a cell gathers
            v = np.take(rows[0], self.table[0], axis=0)
            for r, idx in zip(rows[1:], self.table[1:]):
                v *= np.take(r, idx, axis=0)
            rotated = _matmul(v, basis)
        eye = np.arange(k)

        # a thin block's product spans the whole block: its bits depend on the width
        ys = {b: np.empty((len(block), k)) for b, (block, *_, thin) in enumerate(self.blocks) if thin}

        def solve_job(job: list) -> None:
            for b, lo, hi in job:
                block, index, w, lam, thin = self.blocks[b]
                w, lam = w[lo:hi], lam[lo:hi]
                if thin and self.table is not None:
                    ys[b][lo:hi] = _solve_thin(np.take(rotated, index[lo:hi], axis=0), w, spectrum + lam)
                    continue
                # Hadamard product of the other axes' columns, one K-vector per
                # stored cell; w splits as 1 + (w - 1) so the zero cells are
                # already covered by the Gram product in `base`.  Padding cells
                # gather the zero row, so they get v = 0 and contribute nothing.
                v = np.take(rows[0], index[0][lo:hi], axis=0)
                for r, idx in zip(rows[1:], index[1:]):
                    v *= np.take(r, idx[lo:hi], axis=0)

                if thin:
                    ys[b][lo:hi] = _solve_thin(_matmul(v, basis), w, spectrum + lam)
                    continue
                vt = v.transpose(0, 2, 1)
                systems = _matmul(vt * (w - 1.0)[:, None, :], v)
                systems += base
                systems[:, eye, eye] += lam
                rhs = _matmul(vt, w[:, :, None])
                try:
                    solution = np.linalg.solve(systems, rhs)
                except np.linalg.LinAlgError as exc:
                    raise SolverError(
                        "singular normal equations; use a regularization value > 0 "
                        "that the cell weights do not dwarf"
                    ) from exc
                matrix[:, block[lo:hi]] = solution[:, :, 0].T

        _each(_jobs(self.blocks, _lanes()), solve_job)
        for b, y in ys.items():
            matrix[:, self.blocks[b][0]] = _matmul(basis, y.T)
        model.grams[self.axis] = _matmul(matrix, matrix.T)


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
    O(n K^2 + n^2 K + n^3) per column, or O(n^2 K + n^3) when it gathers
    its cells' rotated rows from the axis's table of T distinct row
    tuples, rotated once per call in O(T K^2).

    The sort, the split, the blocks and their cell indices, weights and
    lambdas form the axis's plan; this call builds one and solves with it
    once, while ``fit`` builds it once per fit and solves with it every
    epoch.
    """
    _AxisPlan(obs, axis, model.features, lambda_eff).solve(model)


def _solve_thin(e: np.ndarray, w: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Solve a block of thin columns by the push-through identity.

    With the Gram product J = Q L Q^T, each column's system is
    Q (D + E^T E) Q^T m = V^T w, where D = L + lambda > 0 (``delta``, one
    row per column), U = V Q and E = diag(sqrt(w - 1)) U.  With g = U^T w,
    its solution is m = Q D^-1 (g - E^T z), where z solves the n x n SPD
    system (I + E D^-1 E^T) z = E D^-1 g.  ``e`` holds the (cols, width,
    K) rows U of the block's cells and is scaled into E in place.  Padding
    cells have U = 0, so they add identity rows with z = 0.  Returns the
    (cols, K) rows y = Q^T m, so the solutions are ``basis @ y.T``.
    """
    g = _matmul(w[:, None, :], e)[:, 0, :]
    e *= np.sqrt(w - 1.0)[:, :, None]
    inv = 1.0 / delta
    scaled = e * inv[:, None, :]
    small = _matmul(scaled, e.transpose(0, 2, 1))
    diag = np.arange(small.shape[1])
    small[:, diag, diag] += 1.0
    z = np.linalg.solve(small, _matmul(scaled, g[:, :, None]))
    return inv * (g - _matmul(e.transpose(0, 2, 1), z)[:, :, 0])


def fit(
    obs: ObservationTensor,
    config: TrainConfig,
    id_maps: Optional[list] = None,
    after_axis: Optional[Callable] = None,
) -> Model:
    """Train a model by alternating exact axis solves.

    Factors start from a seeded uniform init, Grams are precomputed, and
    each epoch sweeps axes in order.  Each axis solve runs on one lane per
    CPU of the process (module docstring); the factors are the same bits
    whatever the number of lanes, for a given BLAS thread count.
    Deterministic given seed, data and config.  ``after_axis(model, epoch, axis)`` is invoked after every
    axis update when provided (used for loss tracing).  Raises
    ``SolverError`` naming the epoch and axis as soon as an axis update
    leaves non-finite factors.
    """
    if obs.n_nonzero == 0:
        raise SolverError("cannot fit an empty observation tensor")
    d = obs.ndim
    factors = init_factors(config, obs.shape.dims)
    grams = [_matmul(m, m.T) for m in factors]
    model = Model(obs.shape, factors, grams, config, id_maps)

    plans = [
        _AxisPlan(obs, axis, config.features, effective_lambdas(config, obs, axis))
        for axis in range(d)
    ]
    log.info(
        "solve plan: %d thick and %d thin columns, %d padded cells for %d stored, "
        "%d rotated row tuples, %.3g flop per epoch",
        sum(p.n_thick for p in plans),
        sum(p.n_thin for p in plans),
        sum(p.padded_cells for p in plans),
        d * obs.n_nonzero,
        sum(p.tuples for p in plans),
        sum(p.flop for p in plans),
    )
    for epoch in range(config.epochs):
        started = time.perf_counter()
        for axis, plan in enumerate(plans):
            # overflow shows as a non-finite Gram, checked in O(K^2)
            with np.errstate(over="ignore", invalid="ignore"):
                plan.solve(model)
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
