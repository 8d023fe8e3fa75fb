"""Versioned binary model files.

Layout (all integers little-endian):

    magic   5 bytes  b"ITALS"
    version u32      currently 1
    kind    u32      0 = single model, 1 = composite

Single model payload, in order: D (u32), K (u32), dims (D x u64), axis
roles (D strings), factor matrices (row-major float64, one K x S_i block
per axis), id-maps (per axis: u8 presence flag, then u64 count and the
original ids as strings in dense-index order), then the training config
trailer.  Strings are u32 byte length + UTF-8 bytes.

Composite payload: context axis (u32), D/K/dims/roles of the training
tensor, state count (u64), then per state a u8 presence flag followed by
the sub-model's D/K/dims/roles/factors (sub-models share the id-maps and
config stored once at the end).

Reload reproduces predictions bit-exactly: float64 bytes round-trip
unchanged.  Saving and loading reject factors that hold NaN or infinity,
which no trained model has, id maps of the wrong length, and composite
sub-models whose user count, item count or K differ from the composite's.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import IO, Union

import numpy as np

from .baseline import CompositeModel
from .solver import Model, TrainConfig
from .tensor import TensorShape

__all__ = ["PersistenceError", "save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"ITALS"
FORMAT_VERSION = 1
KIND_SINGLE = 0
KIND_COMPOSITE = 1


class PersistenceError(ValueError):
    pass


def _write_str(fh: IO[bytes], text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _read_str(fh: IO[bytes]) -> str:
    (length,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, length).decode("utf-8")


def _read_exact(fh: IO[bytes], count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise PersistenceError("truncated model file")
    return data


def _write_shape(fh: IO[bytes], shape: TensorShape, k: int) -> None:
    fh.write(struct.pack("<II", shape.ndim, k))
    for s in shape.dims:
        fh.write(struct.pack("<Q", s))
    for role in shape.axis_roles:
        _write_str(fh, role)


def _read_shape(fh: IO[bytes]):
    d, k = struct.unpack("<II", _read_exact(fh, 8))
    dims = [struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(d)]
    roles = [_read_str(fh) for _ in range(d)]
    return TensorShape(dims, roles), k


def _check_factors(shape: TensorShape, k: int, factors: list) -> None:
    for axis, matrix in enumerate(factors):
        if matrix.shape != (k, shape.dims[axis]):
            raise PersistenceError(f"factor matrix {axis} has shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise PersistenceError(f"factor matrix {axis} holds non-finite values")


def _check_id_maps(shape: TensorShape, id_maps) -> None:
    if id_maps is None:
        return
    if len(id_maps) != shape.ndim:
        raise PersistenceError(f"{len(id_maps)} id maps for {shape.ndim} axes")
    for axis, ids in enumerate(id_maps):
        if ids is not None and len(ids) != shape.dims[axis]:
            raise PersistenceError(
                f"id map of axis {axis} holds {len(ids)} ids, the axis has {shape.dims[axis]}"
            )


def _check_submodels(model: CompositeModel) -> None:
    """Every sub-model must score the composite's users and items with its K."""
    shape = model.shape
    if model.n_states != shape.dims[model.context_axis]:
        raise PersistenceError(
            f"{model.n_states} sub-models for {shape.dims[model.context_axis]} context states"
        )
    want = (shape.dims[shape.user_axis], shape.dims[shape.item_axis], model.features)
    for state, sub in enumerate(model.submodels):
        if sub is None:
            continue
        dims = sub.shape.dims
        got = (dims[sub.shape.user_axis], dims[sub.shape.item_axis], sub.features)
        if sub.shape.ndim != 2 or got != want:
            raise PersistenceError(
                f"sub-model of state {state} has shape {tuple(sub.shape.dims)} and K = {got[2]}; "
                f"the composite has {want[0]} users, {want[1]} items and K = {want[2]}"
            )


def _write_core(fh: IO[bytes], shape: TensorShape, k: int, factors: list) -> None:
    _write_shape(fh, shape, k)
    for matrix in factors:
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def _read_core(fh: IO[bytes]):
    shape, k = _read_shape(fh)
    factors = [
        np.frombuffer(_read_exact(fh, 8 * k * s), dtype="<f8").reshape(k, s).copy()
        for s in shape.dims
    ]
    _check_factors(shape, k, factors)
    return shape, k, factors


def _write_id_maps(fh: IO[bytes], ndim: int, id_maps) -> None:
    for axis in range(ndim):
        ids = None if id_maps is None else id_maps[axis]
        if ids is None:
            fh.write(struct.pack("<B", 0))
            continue
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<Q", len(ids)))
        for original in ids:
            _write_str(fh, str(original))


def _read_id_maps(fh: IO[bytes], shape: TensorShape):
    maps = []
    any_present = False
    for _ in range(shape.ndim):
        (present,) = struct.unpack("<B", _read_exact(fh, 1))
        if not present:
            maps.append(None)
            continue
        any_present = True
        (count,) = struct.unpack("<Q", _read_exact(fh, 8))
        maps.append([_read_str(fh) for _ in range(count)])
    if not any_present:
        return None
    _check_id_maps(shape, maps)
    return maps


def _write_config(fh: IO[bytes], config: TrainConfig) -> None:
    fh.write(struct.pack("<II", config.features, config.epochs))
    fh.write(struct.pack("<d", config.reg))
    _write_str(fh, config.reg_mode)
    fh.write(struct.pack("<q", config.seed))
    fh.write(struct.pack("<d", config.init_scale))


def _read_config(fh: IO[bytes]) -> TrainConfig:
    features, epochs = struct.unpack("<II", _read_exact(fh, 8))
    (reg,) = struct.unpack("<d", _read_exact(fh, 8))
    reg_mode = _read_str(fh)
    (seed,) = struct.unpack("<q", _read_exact(fh, 8))
    (init_scale,) = struct.unpack("<d", _read_exact(fh, 8))
    return TrainConfig(
        features=features,
        epochs=epochs,
        reg=reg,
        reg_mode=reg_mode,
        seed=seed,
        init_scale=init_scale,
    )


def save_model(model, path: Union[str, Path]) -> None:
    """Write a trained model (single or composite) to a binary file.

    A model that ``load_model`` would reject raises ``PersistenceError``
    before the file is opened, so an existing file is left as it was.
    """
    composite = isinstance(model, CompositeModel)
    cores = [sub for sub in model.submodels if sub is not None] if composite else [model]
    for core in cores:
        _check_factors(core.shape, core.features, core.factors)
    if composite:
        _check_submodels(model)
    _check_id_maps(model.shape, model.id_maps)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        if composite:
            fh.write(struct.pack("<II", FORMAT_VERSION, KIND_COMPOSITE))
            fh.write(struct.pack("<I", model.context_axis))
            _write_shape(fh, model.shape, model.features)
            fh.write(struct.pack("<Q", model.n_states))
            for sub in model.submodels:
                if sub is None:
                    fh.write(struct.pack("<B", 0))
                    continue
                fh.write(struct.pack("<B", 1))
                _write_core(fh, sub.shape, sub.features, sub.factors)
        else:
            fh.write(struct.pack("<II", FORMAT_VERSION, KIND_SINGLE))
            _write_core(fh, model.shape, model.features, model.factors)
        _write_id_maps(fh, model.shape.ndim, model.id_maps)
        _write_config(fh, model.config)


def load_model(path: Union[str, Path]):
    """Read a model file back; returns a Model or CompositeModel."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise PersistenceError(f"not a model file (magic {magic!r})")
        version, kind = struct.unpack("<II", _read_exact(fh, 8))
        if version != FORMAT_VERSION:
            raise PersistenceError(f"unsupported format version {version}")

        if kind == KIND_SINGLE:
            shape, k, factors = _read_core(fh)
            id_maps = _read_id_maps(fh, shape)
            config = _read_config(fh)
            grams = [m @ m.T for m in factors]
            return Model(shape, factors, grams, config, id_maps)

        if kind == KIND_COMPOSITE:
            (ctx_axis,) = struct.unpack("<I", _read_exact(fh, 4))
            shape, _ = _read_shape(fh)
            (n_states,) = struct.unpack("<Q", _read_exact(fh, 8))
            submodels = []
            sub_cores = []
            for _ in range(n_states):
                (present,) = struct.unpack("<B", _read_exact(fh, 1))
                sub_cores.append(_read_core(fh) if present else None)
            id_maps = _read_id_maps(fh, shape)
            config = _read_config(fh)
            pair_maps = None
            if id_maps is not None:
                pair_maps = [id_maps[shape.user_axis], id_maps[shape.item_axis]]
            for core in sub_cores:
                if core is None:
                    submodels.append(None)
                    continue
                sub_shape, sub_k, sub_factors = core
                grams = [m @ m.T for m in sub_factors]
                submodels.append(Model(sub_shape, sub_factors, grams, config, pair_maps))
            model = CompositeModel(ctx_axis, shape, submodels, config, id_maps)
            _check_submodels(model)
            return model

    raise PersistenceError(f"unknown model kind {kind}")
