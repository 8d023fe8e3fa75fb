import numpy as np
import pytest

from itals import (
    PersistenceError,
    TrainConfig,
    fit,
    fit_ica,
    load_model,
    predict_cell,
    predict_ica,
    save_model,
    synthetic_tensor,
)

from test_baseline import band_tensor


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
        rng = np.random.default_rng(0)
        obs, model = random_trained(2)
        path = tmp_path / "m.itals"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(50):
            coord = tuple(int(rng.integers(0, s)) for s in model.shape.dims)
            assert predict_cell(loaded, coord) == predict_cell(model, coord)

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
            for i in range(7):
                for s in range(4):
                    assert predict_ica(loaded, u, i, s) == predict_ica(model, u, i, s)
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
        model.factors[1][0, 2] = np.nan
        path = tmp_path / "m"
        save_model(model, path)
        with pytest.raises(PersistenceError, match="factor matrix 1 holds non-finite"):
            load_model(path)

    def test_non_finite_submodel_rejected(self, tmp_path):
        obs = band_tensor(3, seed=11)
        model = fit_ica(obs, TrainConfig(features=2, epochs=1, reg=0.1, seed=1))
        model.submodels[1].factors[0][1, 0] = np.inf
        path = tmp_path / "c"
        save_model(model, path)
        with pytest.raises(PersistenceError, match="non-finite"):
            load_model(path)
