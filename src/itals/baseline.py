"""Implicit-feedback baselines: plain iALS and the per-context composite.

iALS (Hu, Koren & Volinsky, ICDM 2008) is the two-matrix formulation:
user and item passes, each against the other side's Gram.  It is the
D = 2 case of the tensor update, so ``fit_ials`` is ``fit`` on a
2-dimensional tensor.  The composite baseline (iCA) trains one
independent iALS model per context state on that state's slice of the
events.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .solver import Model, SolverError, TrainConfig, fit
from .tensor import ObservationTensor, TensorShape

__all__ = ["CompositeModel", "fit_ials", "fit_ica"]

log = logging.getLogger("itals")


def fit_ials(
    obs: ObservationTensor,
    config: TrainConfig,
    id_maps: Optional[list] = None,
) -> Model:
    """Train a two-dimensional implicit ALS model: ``fit`` on a 2-D tensor."""
    if obs.ndim != 2:
        raise SolverError("iALS requires a 2-dimensional observation tensor")
    return fit(obs, config, id_maps)


@dataclass
class CompositeModel:
    """One iALS model per context state; empty states hold None.

    All sub-models share the feature count and the user/item vocabulary
    (and therefore the id maps), so their item rankings are comparable.
    """

    context_axis: int
    shape: TensorShape
    submodels: list
    config: TrainConfig
    id_maps: Optional[list] = None

    @property
    def n_states(self) -> int:
        return len(self.submodels)

    @property
    def features(self) -> int:
        return self.config.features


def slice_by_state(obs: ObservationTensor, state: int) -> ObservationTensor:
    """The (user, item) sub-tensor of the cells in one context state, in tensor order."""
    if obs.ndim != 3:
        raise SolverError("state slicing requires a 3-dimensional tensor")
    ctx_axis, pair = obs.shape.context_axes[0], [obs.shape.user_axis, obs.shape.item_axis]
    if not 0 <= state < obs.shape.dims[ctx_axis]:
        raise SolverError(f"state {state} out of bounds (size {obs.shape.dims[ctx_axis]})")
    # the state's cells are one range of the context axis grouping
    order, starts = obs.axis_groups(ctx_axis)
    cells = order[starts[state] : starts[state + 1]]
    shape = TensorShape([obs.shape.dims[a] for a in pair], ("user", "item"))
    return ObservationTensor(shape, obs.coords[cells][:, pair], obs.weights[cells])


def fit_ica(
    obs: ObservationTensor,
    config: TrainConfig,
    id_maps: Optional[list] = None,
) -> CompositeModel:
    """Train the composite baseline: one iALS model per context state.

    States with no stored cells get a null model that scores everything
    zero.  Sub-models share hyperparameters and the global vocabularies.
    """
    if obs.ndim != 3:
        raise SolverError("the composite baseline requires user, item and one context axis")
    ctx_axis = obs.shape.context_axes[0]
    n_states = obs.shape.dims[ctx_axis]
    pair_maps = None
    if id_maps is not None:
        pair_maps = [id_maps[obs.shape.user_axis], id_maps[obs.shape.item_axis]]

    submodels: list = []
    for state in range(n_states):
        part = slice_by_state(obs, state)
        if part.n_nonzero == 0:
            submodels.append(None)
            continue
        log.info("composite state %d/%d: %d cells", state + 1, n_states, part.n_nonzero)
        submodels.append(fit_ials(part, config, pair_maps))
    return CompositeModel(ctx_axis, obs.shape, submodels, config, id_maps)

