import io
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from itals import (
    CompositeModel,
    PersistenceError,
    TensorShape,
    TrainConfig,
    fit,
    fit_ica,
    ingest_events,
    load_model,
    save_model,
    score_items,
)
from itals import persistence

from conftest import overwrite_float64, synthetic_tensor
from test_baseline import band_tensor

V1 = Path(__file__).parent / "fixtures" / "v1"


def random_trained(seed, dims=(5, 6, 3)):
    obs = synthetic_tensor(dims, 20, seed=seed)
    config = TrainConfig(features=3, epochs=1, reg=0.1, seed=seed)
    maps = [
        [f"u{i}" for i in range(dims[0])],
        [f"i{i}" for i in range(dims[1])],
        None,
    ][: len(dims)]
    return obs, fit(obs, config, id_maps=maps)


class TestSingleRoundtrip:
    def test_exact_fields(self, tmp_path):
        obs, model = random_trained(1)
        path = tmp_path / "m.itals"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.shape == model.shape
        assert loaded.config == model.config
        assert loaded.id_maps == model.id_maps
        for a, b in zip(model.factors, loaded.factors):
            assert a.tobytes() == b.tobytes()

    def test_predictions_bit_identical(self, tmp_path):
        obs, model = random_trained(2)
        path = tmp_path / "m.itals"
        save_model(model, path)
        loaded = load_model(path)
        for user in range(model.shape.dims[0]):
            for state in range(model.shape.dims[2]):
                states = {2: [(state, 1.0)]}
                assert np.array_equal(
                    score_items(loaded, user, states), score_items(model, user, states)
                )

    def test_no_id_maps(self, tmp_path):
        obs = synthetic_tensor((4, 4), 6, seed=3)
        model = fit(obs, TrainConfig(features=2, epochs=1, reg=0.1))
        path = tmp_path / "m.itals"
        save_model(model, path)
        assert load_model(path).id_maps is None

    def test_same_model_same_bytes(self, tmp_path):
        _, model = random_trained(4)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_seed_training_same_bytes(self, tmp_path):
        obs = synthetic_tensor((5, 5), 12, seed=5)
        config = TrainConfig(features=2, epochs=2, reg=0.1, seed=42)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(fit(obs, config), p1)
        save_model(fit(obs, config), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCompositeRoundtrip:
    def test_roundtrip_with_null_states(self, tmp_path):
        obs = band_tensor(4, seed=6, skip_states=(2,))
        config = TrainConfig(features=2, epochs=1, reg=0.1, seed=7)
        maps = [["u%d" % i for i in range(6)], ["i%d" % i for i in range(7)], ["b%d" % i for i in range(4)]]
        model = fit_ica(obs, config, id_maps=maps)
        path = tmp_path / "c.itals"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.context_axis == model.context_axis
        assert loaded.shape == model.shape
        assert loaded.id_maps == maps
        assert loaded.submodels[2] is None
        for u in range(6):
            for s in range(4):
                assert np.array_equal(score_items(loaded, u, s), score_items(model, u, s))
        assert loaded.submodels[0].id_maps == [maps[0], maps[1]]


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(PersistenceError, match="magic"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        _, model = random_trained(8)
        path = tmp_path / "m"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[5] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="version"):
            load_model(path)

    def test_truncated(self, tmp_path):
        _, model = random_trained(9)
        path = tmp_path / "m"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(PersistenceError, match="truncated"):
            load_model(path)

    def test_non_finite_factors_rejected(self, tmp_path):
        _, model = random_trained(10)
        path = tmp_path / "m"
        save_model(model, path)
        overwrite_float64(path, model.factors[1][0, 2], np.nan)
        with pytest.raises(PersistenceError, match="factor matrix 1 holds non-finite"):
            load_model(path)

    def test_non_finite_submodel_rejected(self, tmp_path):
        obs = band_tensor(3, seed=11)
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=1))
        path = tmp_path / "c"
        save_model(model, path)
        overwrite_float64(path, model.submodels[1].factors[0][1, 0], np.inf)
        with pytest.raises(PersistenceError, match="non-finite"):
            load_model(path)

    def test_save_refuses_non_finite_factors(self, tmp_path):
        _, model = random_trained(12)
        composite = fit_ica(band_tensor(3, seed=13), TrainConfig(features=2, epochs=1, reg=0.1))
        path = tmp_path / "m"
        cases = ((model, model.factors[1]), (composite, composite.submodels[1].factors[0]))
        for trained, factor in cases:
            save_model(trained, path)
            saved = path.read_bytes()
            factor[0, 1] = np.nan
            with pytest.raises(PersistenceError, match="holds non-finite"):
                save_model(trained, path)
            assert path.read_bytes() == saved

    @pytest.mark.parametrize("field, value", [("seed", 2**64), ("seed", -1), ("epochs", 2**32)])
    def test_save_refuses_a_config_the_trailer_cannot_hold(self, tmp_path, field, value):
        # such a config used to escape as struct.error after the file was cut
        _, model = random_trained(15)
        path = tmp_path / "m"
        save_model(model, path)
        saved = path.read_bytes()
        setattr(model.config, field, value)
        with pytest.raises(PersistenceError, match=f"the config cannot be saved: {field} must be"):
            save_model(model, path)
        assert path.read_bytes() == saved

    def test_save_refuses_a_role_or_id_that_utf8_cannot_encode(self, tmp_path):
        # the ingest keeps a text stream's lone surrogate; saving it used to
        # escape as UnicodeEncodeError after the file was cut
        (lone,) = ingest_events(io.StringIO("u\ud800\ti\t1\n")).user_ids
        _, model = random_trained(17)
        path = tmp_path / "m"
        save_model(model, path)
        saved = path.read_bytes()
        model.id_maps[0][1] = lone
        with pytest.raises(PersistenceError, match=r"the axis 0 id 'u\\ud800' cannot be saved: UTF-8"):
            save_model(model, path)
        assert path.read_bytes() == saved
        model.id_maps[0][1] = "u1"
        model.shape = TensorShape(model.shape.dims, ("user", "item", "band\udc80"))
        with pytest.raises(PersistenceError, match=r"the axis role 'band\\udc80' cannot be saved"):
            save_model(model, path)
        assert path.read_bytes() == saved

    def test_save_refuses_id_map_of_wrong_length(self, tmp_path):
        obs = synthetic_tensor((3, 4), 6, seed=14)
        maps = [["a", "b", "c"], ["x", "y"]]
        model = fit(obs, TrainConfig(features=2, epochs=1, reg=0.1), id_maps=maps)
        path = tmp_path / "m"
        with pytest.raises(PersistenceError, match="id map of axis 1 holds 2 ids, the axis has 4"):
            save_model(model, path)
        model.id_maps = [["a", "b", "c"]]
        with pytest.raises(PersistenceError, match="1 id maps for 2 axes"):
            save_model(model, path)
        assert not path.exists()

    def test_load_rejects_id_map_of_wrong_length(self, tmp_path, monkeypatch):
        obs = synthetic_tensor((3, 4), 6, seed=14)
        model = fit(obs, TrainConfig(features=2, epochs=1, reg=0.1), id_maps=[["a", "b"], None])
        path = tmp_path / "m"
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "_check_id_maps", lambda shape, id_maps: None)
            save_model(model, path)
        with pytest.raises(PersistenceError, match="id map of axis 0 holds 2 ids, the axis has 3"):
            load_model(path)

    def test_submodel_shape_must_match_the_composite(self, tmp_path, monkeypatch):
        # a (3, 7) sub-model in a (4, 5, 2) composite used to save and load,
        # and then to score 7 items and to call user 3 unknown
        def sub(dims, k):
            config = TrainConfig(features=k, epochs=1, reg=0.1)
            return fit(synthetic_tensor(dims, 6, seed=15), config)

        config = TrainConfig(features=2, epochs=1, reg=0.1)
        shape = TensorShape((4, 5, 2), ("user", "item", "timeband"))
        path = tmp_path / "c"
        for bad in (sub((3, 7), 2), sub((4, 5), 3)):
            model = CompositeModel(2, shape, [sub((4, 5), 2), bad], config)
            with pytest.raises(PersistenceError, match="sub-model of state 1 has shape"):
                save_model(model, path)
            assert not path.exists()
            with monkeypatch.context() as patch:
                patch.setattr(persistence, "_check_submodels", lambda model: None)
                save_model(model, path)
            with pytest.raises(PersistenceError, match="sub-model of state 1 has shape"):
                load_model(path)
            path.unlink()
        model = CompositeModel(2, shape, [None, sub((4, 5), 2), None], config)
        with pytest.raises(PersistenceError, match="3 sub-models for 2 context states"):
            save_model(model, path)


class TestMalformedFiles:
    def test_every_changed_header_byte_loads_or_is_a_value_error(self, tmp_path):
        # counts and sizes read as 0xFF... used to raise MemoryError or
        # OverflowError, and a context axis past the shape IndexError
        path = tmp_path / "m"
        started = time.perf_counter()
        for fixture in sorted(V1.glob("*.itals")):
            raw = fixture.read_bytes()
            for pos in range(64):
                for value in (0x00, 0xFF):
                    changed = bytearray(raw)
                    changed[pos] = value
                    path.write_bytes(changed)
                    try:
                        load_model(path)
                    except ValueError:
                        pass
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("axis", [7, 0])
    def test_composite_context_axis_must_be_a_context_axis(self, tmp_path, axis):
        raw = bytearray((V1 / "timeband-ica.itals").read_bytes())
        raw[13:17] = struct.pack("<I", axis)  # after the magic, version and kind
        path = tmp_path / "c"
        path.write_bytes(raw)
        with pytest.raises(PersistenceError, match=f"axis {axis} is not a context axis"):
            load_model(path)
        model = load_model(V1 / "timeband-ica.itals")
        model.context_axis = axis
        with pytest.raises(PersistenceError, match=f"axis {axis} is not a context axis"):
            save_model(model, tmp_path / "saved")
        assert not (tmp_path / "saved").exists()

    def test_bytes_after_the_config_trailer_are_rejected(self, tmp_path):
        path = tmp_path / "m"
        path.write_bytes((V1 / "timeband-itals.itals").read_bytes() + b"\0\0")
        with pytest.raises(PersistenceError, match=r"stray bytes after the config trailer \(2\)"):
            load_model(path)

    def test_config_trailer_k_must_be_the_factors_k(self, tmp_path):
        # a trailer saying K = 9 over K = 3 factors used to load silently
        _, model = random_trained(16)
        path = tmp_path / "m"
        save_model(model, path)
        trailer = struct.pack("<IId", 3, 1, 0.1)
        raw = path.read_bytes()
        assert raw.count(trailer) == 1
        path.write_bytes(raw.replace(trailer, struct.pack("<IId", 9, 1, 0.1)))
        with pytest.raises(PersistenceError, match="config trailer has K = 9, the factors K = 3"):
            load_model(path)
        path.unlink()
        model.config = TrainConfig(features=9, epochs=1, reg=0.1)
        with pytest.raises(PersistenceError, match="config trailer has K = 9"):
            save_model(model, path)
        assert not path.exists()

    def test_factors_whose_gram_overflows_are_rejected(self, tmp_path):
        # finite factors this large used to warn in m @ m.T and load infinite Grams
        _, model = random_trained(17)
        path = tmp_path / "m"
        save_model(model, path)
        overwrite_float64(path, model.factors[2][1, 0], 1e200)
        with pytest.raises(PersistenceError, match="factor matrix 2 .* overflows its Gram"):
            load_model(path)
        path.unlink()
        model.factors[2][1, 0] = 1e200
        with pytest.raises(PersistenceError, match="overflows its Gram"):
            save_model(model, path)
        assert not path.exists()

    def test_loaded_factors_are_owned_writable_float64(self, tmp_path):
        _, model = random_trained(18)
        path = tmp_path / "m"
        save_model(model, path)
        for matrix in load_model(path).factors:
            assert matrix.dtype == np.float64
            assert matrix.flags.owndata and matrix.flags.c_contiguous and matrix.flags.writeable


def shape_bytes(shape):
    """Bytes of a shape record: D, K, the dims and the role strings."""
    return 8 + 8 * shape.ndim + sum(4 + len(role.encode()) for role in shape.axis_roles)


class TestPresenceFlags:
    # a flag byte of 2 used to read as present and save back as 1, so the
    # file did not round-trip byte for byte
    @pytest.mark.parametrize("value", [2, 0xFF])
    @pytest.mark.parametrize("name", ["timeband-itals.itals", "timeband-ica.itals"])
    def test_a_flag_other_than_0_or_1_is_rejected(self, tmp_path, name, value):
        model = load_model(V1 / name)
        if isinstance(model, CompositeModel):
            # the first state's flag follows the context axis, the shape and the state count
            at = 5 + 12 + shape_bytes(model.shape) + 8
        else:
            # the user map's flag follows the factors
            at = 5 + 8 + shape_bytes(model.shape) + 8 * model.features * sum(model.shape.dims)
        raw = bytearray((V1 / name).read_bytes())
        assert raw[at] in (0, 1)
        raw[at] = value
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(PersistenceError, match=f"presence flag must be 0 or 1, got {value}"):
            load_model(path)
