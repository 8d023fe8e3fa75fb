"""Sparse binary observation tensor with per-cell confidence weights.

Only the observed (value 1) cells are stored, each with a finite weight of
at least 1.  Every unstored cell is implicitly 0 with weight exactly 1, which
is what lets the solver precompute the zero-cell contribution from Gram
matrices instead of touching the full tensor: it splits a stored weight as
1 + (w - 1), which needs only w - 1 >= 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .context import ContextError, ContextPairs
from .events import EventLog

__all__ = [
    "TensorShape",
    "WeightingScheme",
    "ObservationTensor",
    "TensorBuildError",
    "build_tensor",
]


class TensorBuildError(ValueError):
    pass


@dataclass(frozen=True)
class TensorShape:
    """Dimension sizes and axis roles; exactly one user and one item axis.

    A size is a Python or numpy integer >= 1, not a bool.

    ``user_axis`` and ``item_axis`` index those two roles and
    ``context_axes`` is the tuple of the other axes, in order.
    """

    dims: tuple
    axis_roles: tuple

    def __init__(self, dims: Sequence[int], axis_roles: Sequence[str]):
        for size in dims:
            if isinstance(size, bool) or not isinstance(size, numbers.Integral):
                raise ValueError(f"every dimension size must be an integer, got {size!r}")
        object.__setattr__(self, "dims", tuple(int(s) for s in dims))
        object.__setattr__(self, "axis_roles", tuple(str(r) for r in axis_roles))
        if len(self.dims) < 2:
            raise ValueError("tensor needs at least 2 dimensions")
        if any(s < 1 for s in self.dims):
            raise ValueError(f"every dimension size must be >= 1, got {self.dims}")
        if len(self.axis_roles) != len(self.dims):
            raise ValueError("axis_roles must match dims in length")
        if self.axis_roles.count("user") != 1 or self.axis_roles.count("item") != 1:
            raise ValueError("axis_roles needs exactly one 'user' and one 'item' entry")
        # the role lookups, set once: scoring one user reads them on every call
        roles = self.axis_roles
        object.__setattr__(self, "user_axis", roles.index("user"))
        object.__setattr__(self, "item_axis", roles.index("item"))
        context = tuple(i for i, r in enumerate(roles) if r not in ("user", "item"))
        object.__setattr__(self, "context_axes", context)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def n_cells(self) -> int:
        return int(np.prod([int(s) for s in self.dims], dtype=object))


@dataclass(frozen=True)
class WeightingScheme:
    """Affine cell weighting: w = base + alpha * (weighted event count).

    The constructor requires base and alpha finite real numbers (not
    bools), alpha >= 0 and
    base + alpha > 1, so a cell of one whole event weighs more than 1.  A
    cell of small relative weights may weigh less: ``build_tensor`` rejects
    a weight below 1, and a weight that rounds to exactly 1 (the limit of a
    vanishing relative weight) is a valid cell.
    """

    base: float = 1.0
    alpha: float = 100.0

    def __post_init__(self):
        for name in ("base", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.base) and math.isfinite(self.alpha)):
            raise ValueError(f"base and alpha must be finite, got {self.base!r} and {self.alpha!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.base + self.alpha <= 1.0:
            raise ValueError("base + alpha must exceed 1 so a cell of one event weighs more than 1")


def _flat_index(shape: TensorShape, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Row-major int64 cell index of each coordinate, given one column per axis.

    Ascending cell index is the one cell order: the rows' lexicographic order.
    """
    if shape.n_cells() > np.iinfo(np.int64).max:
        raise TensorBuildError(f"tensor of {shape.n_cells()} cells exceeds the limit, 2**63 - 1")
    for axis, (size, col) in enumerate(zip(shape.dims, columns)):
        if col.size and (col.min() < 0 or col.max() >= size):
            role = shape.axis_roles[axis]
            raise TensorBuildError(f"coordinate out of bounds on axis {axis} ({role}, size {size})")
    return np.ravel_multi_index(tuple(columns), shape.dims)


class ObservationTensor:
    """Immutable sparse record of the observed cells and their weights.

    ``coords`` is an (N+, D) int64 array in ascending row-major cell index
    (lexicographic) order and ``weights`` the matching float64 confidences,
    all finite and >= 1.  ``support[i][j]`` counts stored cells whose i-th
    coordinate is j.  The shape holds at most 2**63 - 1 cells.
    """

    def __init__(self, shape: TensorShape, coords: np.ndarray, weights: np.ndarray):
        coords = np.asarray(coords, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != shape.ndim:
            raise TensorBuildError(f"coords must be (n, {shape.ndim}), got {coords.shape}")
        if weights.shape != (coords.shape[0],):
            raise TensorBuildError("weights must align with coords rows")
        flat = _flat_index(shape, coords.T)
        if not np.all((weights >= 1.0) & np.isfinite(weights)):
            raise TensorBuildError("every stored cell weight must be finite and not below 1")

        # a stable sort is linear on cells that arrive in order
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        coords = coords[order]
        weights = weights[order]
        dup = np.flatnonzero(flat[1:] == flat[:-1])
        if dup.size:
            raise TensorBuildError(f"duplicate coordinate {tuple(int(c) for c in coords[dup[0]])}")

        coords.setflags(write=False)
        weights.setflags(write=False)
        self.shape = shape
        self.coords = coords
        self.weights = weights
        self.support = [
            np.bincount(coords[:, a], minlength=shape.dims[a]).astype(np.int64)
            for a in range(shape.ndim)
        ]
        self._groups: dict = {}

    @property
    def n_nonzero(self) -> int:
        return int(self.coords.shape[0])

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    def axis_groups(self, axis: int):
        """Cells grouped by their coordinate on one axis.

        Returns (order, starts): ``order[starts[j]:starts[j+1]]`` indexes
        the cells whose ``axis`` coordinate equals j.  This is the
        indexing that stands in for unfolding the tensor.
        """
        cached = self._groups.get(axis)
        if cached is None:
            col = self.coords[:, axis]
            order = np.argsort(col, kind="stable")
            starts = np.searchsorted(col[order], np.arange(self.shape.dims[axis] + 1))
            cached = (order, starts)
            self._groups[axis] = cached
        return cached


def build_tensor(
    events: EventLog,
    context_states: Optional[Sequence[Sequence[tuple]]],
    shape: TensorShape,
    scheme: WeightingScheme = WeightingScheme(),
) -> ObservationTensor:
    """Aggregate events into an observation tensor.

    ``context_states`` gives event e's (state, relative-weight) pairs on
    the single context axis: a ``ContextPairs``, whose columns are read
    as they are, or a list of pair lists, one per event, which goes
    through ``ContextPairs.from_lists``.  States must be integers (a bool
    reads as 0 or 1) and relative weights must lie in (0, 1].  With
    a 2-dimensional shape the context input is ignored and cells are keyed
    (user, item).  Repeat events on one cell merge into its weight:
    w = base + alpha * sum of contributing relative weights, summed in
    event order.  The shape holds at most 2**63 - 1 cells.
    """
    d = shape.ndim
    if d not in (2, 3):
        raise TensorBuildError(
            "event-based construction supports 2 or 3 dimensions; "
            "synthesize higher-order tensors directly"
        )
    n_events = len(events)

    if d == 2:
        columns = [events.users, events.items]
        contributions = np.ones(n_events, dtype=np.float64)
    else:
        if context_states is None or len(context_states) != n_events:
            raise TensorBuildError("context_states must provide one entry per event")
        pairs = context_states
        if not isinstance(pairs, ContextPairs):
            try:
                pairs = ContextPairs.from_lists(pairs)
            except ContextError as exc:
                raise TensorBuildError(str(exc)) from None
        counts = np.diff(pairs.offsets)
        columns = [None] * 3
        columns[shape.user_axis] = np.repeat(events.users, counts)
        columns[shape.item_axis] = np.repeat(events.items, counts)
        columns[shape.context_axes[0]] = pairs.states
        contributions = pairs.weights

    # np.unique returns the cells in canonical order; bincount sums each
    # cell's contributions in event order
    cells, inverse = np.unique(_flat_index(shape, columns), return_inverse=True)
    totals = np.bincount(inverse, weights=contributions)
    coords = np.stack(np.unravel_index(cells, shape.dims), axis=1).astype(np.int64)
    weights = scheme.base + scheme.alpha * totals
    if not np.all(weights >= 1.0):
        raise TensorBuildError("weighting scheme produced a cell weight below 1; raise base or alpha")
    return ObservationTensor(shape, coords, weights)
