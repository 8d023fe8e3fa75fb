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

One reader, ``_Reader``, reads every field by its struct format and
raises "truncated model file" before it reads or allocates for more
bytes than the file has left.  Every malformed file, also one with bytes
after its config trailer or a presence flag other than 0 or 1, is a
``PersistenceError`` or another ``ValueError`` (a string that is not
UTF-8, a shape or config its constructor rejects).

Reload reproduces predictions bit-exactly: float64 bytes round-trip
unchanged.  Saving and loading reject what no trained model has: factors
that hold NaN or infinity or overflow their Grams, id maps of the wrong
length, a config that ``TrainConfig`` rejects (its checks keep every
field within the trailer's), a config trailer whose K is not the
factors', and a composite whose context axis is not one or whose
sub-models' user count, item count or K differ from its own.
"""

from __future__ import annotations

import dataclasses
import io
import os
import struct
from pathlib import Path
from typing import IO, Union

import numpy as np

from .baseline import CompositeModel, submodel_id_maps
from .solver import Model, TrainConfig
from .tensor import TensorShape

__all__ = ["PersistenceError", "save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"ITALS"
FORMAT_VERSION = 1
KIND_SINGLE = 0
KIND_COMPOSITE = 1


class PersistenceError(ValueError):
    pass


_LENGTH = struct.Struct("<I")


class _Reader:
    """Reads a model file's fields in order, never past the end it had when opened."""

    def __init__(self, fh: IO[bytes]):
        self._fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _claim(self, count: int) -> int:
        if count > self.left:
            raise PersistenceError("truncated model file")
        self.left -= count
        return count

    def field(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._fh.read(self._claim(struct.calcsize(fmt))))

    def flag(self) -> bool:
        """A u8 presence flag: 0 or 1, any other value is malformed."""
        (value,) = self.field("<B")
        if value > 1:
            raise PersistenceError(f"presence flag must be 0 or 1, got {value}")
        return value == 1

    def text(self) -> str:
        (length,) = self.field("<I")
        return self._fh.read(self._claim(length)).decode("utf-8")

    def texts(self, count: int) -> list:
        """``count`` strings, each a u32 byte length and UTF-8 bytes, from one read.

        Every string needs its length field, so a count that the bytes left
        cannot hold raises before anything is read.  The bytes left are
        read at once and the position is put back after the last string.
        """
        if 4 * count > self.left:
            raise PersistenceError("truncated model file")
        data = self._fh.read(self.left)
        texts, at = [], 0
        try:
            for _ in range(count):
                (length,) = _LENGTH.unpack_from(data, at)
                start, at = at + 4, at + 4 + length
                if at > len(data):
                    raise PersistenceError("truncated model file")
                texts.append(data[start:at].decode("utf-8"))
        except struct.error:  # a length field past the end
            raise PersistenceError("truncated model file") from None
        self._fh.seek(at - len(data), os.SEEK_CUR)
        self.left -= at
        return texts

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """An owned, writable, C-ordered float64 (rows, cols) matrix."""
        self._claim(rows * cols * struct.calcsize("<d"))
        out = np.empty((rows, cols), dtype="<f8")
        self._fh.readinto(out)
        return out


def _write_str(fh: IO[bytes], text: str) -> None:
    data = text.encode("utf-8")
    fh.write(struct.pack("<I", len(data)) + data)


def _write_shape(fh: IO[bytes], shape: TensorShape, k: int) -> None:
    fh.write(struct.pack(f"<II{shape.ndim}Q", shape.ndim, k, *shape.dims))
    for role in shape.axis_roles:
        _write_str(fh, role)


def _read_shape(reader: _Reader):
    d, k = reader.field("<II")
    dims = reader.field(f"<{d}Q")
    return TensorShape(dims, [reader.text() for _ in range(d)]), k


def _check_factors(shape: TensorShape, k: int, factors: list) -> list:
    """Raise unless the factors fit the shape and K and have finite Grams; return the Grams."""
    grams = []
    for axis, matrix in enumerate(factors):
        if matrix.shape != (k, shape.dims[axis]):
            raise PersistenceError(f"factor matrix {axis} has shape {matrix.shape}")
        # NaN, infinity and overflow all show in the Gram, as in fit
        with np.errstate(over="ignore", invalid="ignore"):
            grams.append(matrix @ matrix.T)
        if not np.isfinite(grams[-1]).all():
            raise PersistenceError(
                f"factor matrix {axis} holds non-finite values or overflows its Gram"
            )
    return grams


def _check_features(config: TrainConfig, k: int) -> None:
    if config.features != k:
        raise PersistenceError(f"the config trailer has K = {config.features}, the factors K = {k}")


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
    """Require a context axis, and sub-models with the composite's users, items and K."""
    shape, axis = model.shape, model.context_axis
    if axis not in shape.context_axes:
        raise PersistenceError(f"axis {axis} is not a context axis of roles {shape.axis_roles}")
    if model.n_states != shape.dims[axis]:
        raise PersistenceError(f"{model.n_states} sub-models for {shape.dims[axis]} context states")
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


def _read_core(reader: _Reader):
    shape, k = _read_shape(reader)
    factors = [reader.matrix(k, s) for s in shape.dims]
    return shape, factors, _check_factors(shape, k, factors)


def _write_id_maps(fh: IO[bytes], ndim: int, id_maps) -> None:
    for ids in id_maps or [None] * ndim:
        fh.write(struct.pack("<B", ids is not None))
        if ids is not None:
            fh.write(struct.pack("<Q", len(ids)))
            for original in ids:
                _write_str(fh, str(original))


def _read_id_maps(reader: _Reader, shape: TensorShape):
    maps = []
    for _ in range(shape.ndim):
        present = reader.flag()
        maps.append(reader.texts(reader.field("<Q")[0]) if present else None)
    if all(ids is None for ids in maps):
        return None
    _check_id_maps(shape, maps)
    return maps


def _write_config(fh: IO[bytes], config: TrainConfig) -> None:
    fh.write(struct.pack("<IId", config.features, config.epochs, config.reg))
    _write_str(fh, config.reg_mode)
    fh.write(struct.pack("<qd", config.seed, config.init_scale))


def _read_config(reader: _Reader) -> TrainConfig:
    features, epochs, reg = reader.field("<IId")
    reg_mode = reader.text()
    seed, init_scale = reader.field("<qd")
    return TrainConfig(features, epochs, reg, reg_mode, seed, init_scale)


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
    _check_features(model.config, model.features)
    _check_id_maps(model.shape, model.id_maps)
    trailer = io.BytesIO()
    try:  # the config's checks bound its integers to the trailer's fields
        _write_config(trailer, dataclasses.replace(model.config))
    except (ValueError, struct.error) as exc:
        raise PersistenceError(f"the config cannot be saved: {exc}") from None
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        if composite:
            fh.write(struct.pack("<III", FORMAT_VERSION, KIND_COMPOSITE, model.context_axis))
            _write_shape(fh, model.shape, model.features)
            fh.write(struct.pack("<Q", model.n_states))
            for sub in model.submodels:
                fh.write(struct.pack("<B", sub is not None))
                if sub is not None:
                    _write_core(fh, sub.shape, sub.features, sub.factors)
        else:
            fh.write(struct.pack("<II", FORMAT_VERSION, KIND_SINGLE))
            _write_core(fh, model.shape, model.features, model.factors)
        _write_id_maps(fh, model.shape.ndim, model.id_maps)
        fh.write(trailer.getvalue())


def load_model(path: Union[str, Path]):
    """Read a model file back; returns a Model or CompositeModel."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise PersistenceError(f"not a model file (magic {magic!r})")
        reader = _Reader(fh)
        version, kind = reader.field("<II")
        if version != FORMAT_VERSION:
            raise PersistenceError(f"unsupported format version {version}")
        if kind == KIND_SINGLE:
            shape, factors, grams = _read_core(reader)
            k = factors[0].shape[0]
        elif kind == KIND_COMPOSITE:
            (ctx_axis,) = reader.field("<I")
            shape, k = _read_shape(reader)
            (n_states,) = reader.field("<Q")
            cores = [_read_core(reader) if reader.flag() else None for _ in range(n_states)]
        else:
            raise PersistenceError(f"unknown model kind {kind}")
        id_maps = _read_id_maps(reader, shape)
        config = _read_config(reader)
        if reader.left:
            raise PersistenceError(f"stray bytes after the config trailer ({reader.left})")
    _check_features(config, k)
    if kind == KIND_SINGLE:
        return Model(shape, factors, grams, config, id_maps)
    pair_maps = submodel_id_maps(shape, id_maps)
    submodels = [None if core is None else Model(*core, config, pair_maps) for core in cores]
    model = CompositeModel(ctx_axis, shape, submodels, config, id_maps)
    _check_submodels(model)
    return model
