"""Dense brute-force reference path for verification.

Everything here enumerates full tensors cell by cell, deliberately
avoiding the Gram shortcut and the sparse accumulation of the solver.
It exists to check the fast path on small instances and refuses to run
past a configurable cell cap.
"""

from __future__ import annotations

import itertools

import numpy as np

from .solver import Model, TrainConfig, effective_lambdas
from .tensor import ObservationTensor

__all__ = [
    "DenseCapError",
    "DENSE_CELL_CAP",
    "dense_arrays",
    "dense_predictions",
    "dense_loss",
    "dense_regularized_loss",
    "dense_solve_column",
    "gram_product_bruteforce",
]

DENSE_CELL_CAP = 10**6


class DenseCapError(RuntimeError):
    pass


def _check_cap(obs: ObservationTensor, cap: int) -> None:
    n_cells = obs.shape.n_cells()
    if n_cells > cap:
        raise DenseCapError(
            f"dense oracle refused: {n_cells} cells exceeds cap {cap}; "
            "the oracle is for small verification instances only"
        )


def dense_arrays(obs: ObservationTensor, cap: int = DENSE_CELL_CAP):
    """Materialize the full (T, W) pair: zeros/ones and per-cell weights."""
    _check_cap(obs, cap)
    t = np.zeros(obs.shape.dims, dtype=np.float64)
    w = np.ones(obs.shape.dims, dtype=np.float64)
    idx = tuple(obs.coords[:, a] for a in range(obs.ndim))
    t[idx] = 1.0
    w[idx] = obs.weights
    return t, w


def dense_predictions(model: Model) -> np.ndarray:
    """Full predicted tensor, one einsum over all factor matrices."""
    letters = "abcdefgh"[: model.ndim]
    spec = ",".join(f"k{c}" for c in letters) + "->" + letters
    return np.einsum(spec, *model.factors)


def dense_loss(model: Model, obs: ObservationTensor, cap: int = DENSE_CELL_CAP) -> float:
    """Weighted squared loss summed over every cell, stored or not."""
    t, w = dense_arrays(obs, cap)
    pred = dense_predictions(model)
    return float(np.sum(w * (t - pred) ** 2))


def dense_regularized_loss(
    model: Model,
    obs: ObservationTensor,
    config: TrainConfig,
    cap: int = DENSE_CELL_CAP,
) -> float:
    """dense_loss plus the per-column ridge penalties of every axis."""
    total = dense_loss(model, obs, cap)
    for axis in range(model.ndim):
        matrix = model.factors[axis]
        lams = effective_lambdas(config, obs, axis)
        for j in range(obs.shape.dims[axis]):
            total += lams[j] * float(matrix[:, j] @ matrix[:, j])
    return total


def dense_solve_column(
    model: Model,
    obs: ObservationTensor,
    axis: int,
    column: int,
    lam: float,
    cap: int = DENSE_CELL_CAP,
) -> np.ndarray:
    """One column of the weighted normal equations by full enumeration.

    Loops over every combination of the other axes' indices, builds the
    K x K system from explicit outer products and solves it.  No Gram
    matrices, no weight splitting.
    """
    _check_cap(obs, cap)
    t, w = dense_arrays(obs, cap)
    d = model.ndim
    k = model.features
    others = [a for a in range(d) if a != axis]

    a_mat = lam * np.eye(k)
    b_vec = np.zeros(k)
    for combo in itertools.product(*(range(obs.shape.dims[a]) for a in others)):
        coord = [0] * d
        coord[axis] = column
        v = np.ones(k)
        for a, c in zip(others, combo):
            coord[a] = c
            v = v * model.factors[a][:, c]
        cell = tuple(coord)
        a_mat += w[cell] * np.outer(v, v)
        b_vec += w[cell] * t[cell] * v
    return np.linalg.solve(a_mat, b_vec)


def gram_product_bruteforce(factors: list, axes: list) -> np.ndarray:
    """Sum of v v^T over every cross-index combination of the given axes.

    v is the Hadamard product of one column from each axis's factor
    matrix.  Equals the Hadamard product of the axes' Gram matrices; this
    computes it the slow way for comparison.
    """
    k = factors[axes[0]].shape[0]
    total = np.zeros((k, k))
    for combo in itertools.product(*(range(factors[a].shape[1]) for a in axes)):
        v = np.ones(k)
        for a, c in zip(axes, combo):
            v = v * factors[a][:, c]
        total += np.outer(v, v)
    return total
