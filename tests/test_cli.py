import json
import struct
from pathlib import Path

import numpy as np
import pytest

from itals import (
    ObservationTensor, SeasonSpec, SequenceContext, SplitSpec, TensorShape, TimeBandContext,
    TrainConfig, WeightingScheme, assign_time_band, fit, ingest_events, load_model,
    read_category_rows, recall_precision_at, save_model, split_by_date,
)
from itals import cli, persistence
from itals.cli import build_parser, main

from conftest import DAY, overwrite_float64, synthetic_tensor, write_events

V1 = Path(__file__).parent / "fixtures" / "v1"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("ITALS_LOG", "warning")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestPrepare:
    def test_events_passthrough(self, workdir, capsys):
        src = write_events(workdir / "raw.tsv")
        out = workdir / "prep"
        assert run("prepare", "--input", src, "--format", "events", "--out-dir", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 250
        assert (out / "events.tsv").exists()
        assert (out / "users.tsv").exists()

    def test_category_column_writes_the_category_map(self, workdir, capsys):
        src = write_events(workdir / "raw.tsv", with_category=True)
        out = workdir / "prep"
        assert run("prepare", "--input", src, "--out-dir", out) == 0
        assert json.loads(capsys.readouterr().out)["outputs"][-1] == str(out / "categories.tsv")
        rows = [line.split("\t") for line in (out / "categories.tsv").read_text().splitlines()]
        assert [index for index, _ in rows] == ["0", "1", "2"]
        assert sorted(name for _, name in rows) == ["alpha", "beta", "gamma"]

    def test_ratings_threshold_five(self, workdir, capsys):
        src = workdir / "ratings.tsv"
        src.write_text("u1\ta\t5\t10\nu1\tb\t4\t20\nu2\ta\t5\t30\nu2\tc\t2\t40\n")
        out = workdir / "prep"
        assert run(
            "prepare", "--input", src, "--format", "ratings",
            "--threshold", 5, "--out-dir", out,
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 2

    def test_empty_input(self, workdir, capsys):
        src = workdir / "empty.tsv"
        src.write_text("")
        out = workdir / "prep"
        assert run("prepare", "--input", src, "--format", "events", "--out-dir", out) == 0
        assert (out / "events.tsv").read_text() == ""

    def test_idempotent_on_canonical(self, workdir, capsys):
        src = write_events(workdir / "raw.tsv")
        out1 = workdir / "p1"
        out2 = workdir / "p2"
        run("prepare", "--input", src, "--format", "events", "--out-dir", out1)
        run("prepare", "--input", out1 / "events.tsv", "--format", "events", "--out-dir", out2)
        assert (out1 / "events.tsv").read_text() == (out2 / "events.tsv").read_text()

    def test_missing_input_fails(self, workdir):
        out = workdir / "prep"
        assert run("prepare", "--input", workdir / "nope.tsv", "--out-dir", out) == 1
        assert not out.exists()
        src = workdir / "bad.tsv"
        src.write_text("u1\ta\t10\nu2\tb\n")
        assert run("prepare", "--input", src, "--out-dir", out) == 1
        assert not out.exists()

    def test_timestamp_beyond_int64_exits_1(self, workdir, capsys, caplog):
        # the OverflowError of such a timestamp used to end the CLI in a traceback
        events = workdir / "events.tsv"
        events.write_text("u1\ta\t10\nu2\tb\t1e30\n")
        ratings = workdir / "ratings.tsv"
        ratings.write_text("u1\ta\t5\t10\nu2\tb\t5\t99999999999999999999\n")
        for fmt, src in (("events", events), ("ratings", ratings)):
            assert run("prepare", "--input", src, "--format", fmt, "--out-dir", workdir / fmt) == 1
            assert "line 2: timestamp too large" in caplog.text
            caplog.clear()
        assert run("train", "--input", events, "--output", workdir / "m", "--context", "none") == 1
        assert "line 2: timestamp too large" in caplog.text
        assert capsys.readouterr().out == ""


class TestTrain:
    def test_plain_matrix_model(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        code = run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 4, "--epochs", 2, "--lambda", 0.1, "--seed", 1,
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dims"] == [12, 15]
        assert model.exists()

    def test_timeband_model(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        code = run(
            "train", "--input", src, "--output", model,
            "--context", "timeband:uniform:48", "--k", 4, "--epochs", 2,
            "--lambda", 0.1, "--seed", 1,
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [12, 15, 48]

    def test_sequence_model_from_category_column(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv", with_category=True)
        model = workdir / "m.itals"
        code = run(
            "train", "--input", src, "--output", model,
            "--context", "sequence:2:0.5", "--k", 4, "--epochs", 2,
            "--lambda", 0.1, "--seed", 1,
        )
        assert code == 0
        # 3 categories plus the no-prior state
        assert json.loads(capsys.readouterr().out)["dims"] == [12, 15, 4]

    def test_sequence_model_from_map_file(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        cmap = workdir / "cats.tsv"
        cmap.write_text("".join(f"item{i}\tcat{i % 2}\n" for i in range(15)))
        model = workdir / "m.itals"
        code = run(
            "train", "--input", src, "--output", model,
            "--context", "sequence:1", "--category-map", cmap,
            "--k", 3, "--epochs", 1, "--lambda", 0.1,
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [12, 15, 3]

    def test_item_without_a_category_is_named(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        cmap = workdir / "cats.tsv"
        cmap.write_text("".join(f"item{i}\tcat{i % 2}\n" for i in range(15) if i != 7))
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", "sequence:2",
            "--category-map", cmap, "--k", 2, "--epochs", 1,
        ) == 1
        assert "no category mapping for item 'item7'" in caplog.text
        assert capsys.readouterr().out == ""
        assert not model.exists()

    @pytest.mark.parametrize("source", ["column", "map"])
    def test_an_item_with_two_categories_is_named(self, workdir, capsys, caplog, source):
        # i1 used to keep its last category, catB, and catA to name a state with no item
        src, cmap = workdir / "ev.tsv", workdir / "cats.tsv"
        rows = [("u1", "i1", 10, "catA"), ("u1", "i2", 20, "catB"), ("u2", "i1", 30, "catB")]
        if source == "column":
            src.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows))
            flags = []
        else:
            src.write_text("".join(f"{u}\t{i}\t{ts}\n" for u, i, ts, _ in rows))
            cmap.write_text("".join(f"{i}\t{c}\n" for _, i, _, c in rows))
            flags = ["--category-map", cmap]
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", "sequence:1", *flags,
            "--k", 2, "--epochs", 1,
        ) == 1
        assert "item 'i1' has two categories, 'catA' and 'catB'" in caplog.text
        assert capsys.readouterr().out == "" and not model.exists()

    def test_utc_offset_beyond_int64_exits_1(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        assert run(
            "train", "--input", src, "--output", workdir / "m.itals",
            "--context", "timeband:uniform:6", "--utc-offset", 10**20, "--k", 2, "--epochs", 1,
        ) == 1
        assert "utc_offset must fit in int64" in caplog.text
        assert capsys.readouterr().out == ""

    def test_ica_model(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        code = run(
            "train", "--input", src, "--output", model,
            "--algo", "ica", "--context", "timeband:uniform:6",
            "--k", 3, "--epochs", 1, "--lambda", 0.1,
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["algo"] == "ica"

    def test_ica_needs_context(self, workdir):
        src = write_events(workdir / "ev.tsv")
        code = run(
            "train", "--input", src, "--output", workdir / "m",
            "--algo", "ica", "--context", "none", "--k", 2, "--epochs", 1,
        )
        assert code == 1

    @pytest.mark.parametrize("context, message", [
        ("sequence:2", "sequence context needs --category-map or a category column"),
        ("timeband:a:b:c", "bad timeband context: 'timeband:a:b:c'"),
        ("sequence:1:2:3", "bad sequence context: 'sequence:1:2:3'"),
        ("foo:1", "unknown context kind: 'foo:1'"),
    ])
    def test_bad_context_exits_1(self, workdir, capsys, caplog, context, message):
        src = write_events(workdir / "ev.tsv")  # no category column
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", context, "--k", 2, "--epochs", 1,
        ) == 1
        assert message in caplog.text
        assert capsys.readouterr().out == "" and not model.exists()

    def test_infinite_lambda_exits_1(self, workdir, capsys, caplog):
        # it used to train an all-zero model
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--lambda", "inf", "--k", 2, "--epochs", 1,
        ) == 1
        assert "reg must be finite and >= 0, got inf" in caplog.text
        assert capsys.readouterr().out == "" and not model.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_1(self, workdir, capsys, caplog, alpha):
        # nan and inf used to fail later, as a cell weight <= 1 or not finite
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--alpha", alpha, "--k", 2, "--epochs", 1,
        ) == 1
        assert f"base and alpha must be finite, got 1.0 and {alpha}" in caplog.text
        assert capsys.readouterr().out == "" and not model.exists()

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_a_seed_the_model_file_cannot_hold_exits_1(self, workdir, capsys, caplog, seed):
        # 2**64 used to train, cut the output file and escape as struct.error
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        model.write_bytes(b"an existing file")
        assert run(
            "train", "--input", src, "--output", model, "--seed", seed, "--k", 2, "--epochs", 1,
        ) == 1
        assert f"seed must be an integer in [0, {2**63}), got {seed}" in caplog.text
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err + caplog.text
        assert model.read_bytes() == b"an existing file"

    def test_empty_split_exits_1(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--split-ts", 0, "--k", 2, "--epochs", 1,
        ) == 1
        assert "no training events (check --split-ts)" in caplog.text
        assert capsys.readouterr().out == "" and not model.exists()

    def test_same_seed_byte_identical_models(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        m1, m2 = workdir / "m1", workdir / "m2"
        for m in (m1, m2):
            assert run(
                "train", "--input", src, "--output", m,
                "--context", "timeband:uniform:8", "--k", 3, "--epochs", 2,
                "--lambda", 0.1, "--seed", 77,
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_split_ts_limits_training(self, workdir, capsys):
        src = workdir / "ev.tsv"
        src.write_text("u\ta\t10\nu\tb\t20\nv\ta\t99999\n")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 2, "--epochs", 1,
            "--lambda", 0.1, "--split-ts", 1000,
        ) == 0
        assert json.loads(capsys.readouterr().out)["n_nonzero"] == 2

    def test_sequence_context_with_split_ts(self, workdir, capsys):
        # i3 occurs only after the split, so the training log has no category for it
        src = workdir / "ev.tsv"
        src.write_text("u1\ti1\t100\tc1\nu1\ti2\t200\tc2\nu2\ti1\t300\tc1\nu2\ti3\t900\tc2\n")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", "sequence:2",
            "--k", 2, "--epochs", 1, "--lambda", 0.1, "--split-ts", 500,
        ) == 0
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 500,
            "--context", "sequence:2", "--topn", 2,
        ) == 0


class TestEvalCommand:
    def _train(self, workdir, src, context, algo="itals"):
        model = workdir / f"{algo}.itals"
        assert run(
            "train", "--input", src, "--output", model,
            "--algo", algo, "--context", context,
            "--k", 4, "--epochs", 2, "--lambda", 0.1, "--seed", 3,
        ) == 0
        return model

    def test_metrics_outputs(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        split = 27 * DAY
        model = self._train(workdir, src, "timeband:uniform:6")
        capsys.readouterr()
        prefix = workdir / "out"
        code = run(
            "eval", "--model", model, "--input", src, "--split-ts", split,
            "--context", "timeband:uniform:6", "--topn", 10,
            "--out-prefix", prefix, "--dataset", "toy",
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dataset"] == "toy"
        assert "recall@10" in summary
        # the ranking is timed apart from the request contexts, inside the wall time
        assert 0 < summary["rank_seconds"] <= summary["wall_time"] + 0.0005
        assert summary["users_per_second"] == pytest.approx(
            summary["users"] / summary["rank_seconds"], rel=0.01
        )
        pr = (workdir / "out.pr.csv").read_text().strip().split("\n")
        assert pr[0] == "N,recall,precision"
        assert len(pr) == 11
        jsonl = (workdir / "out.metrics.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in jsonl]
        assert len(records) == 10
        assert {r["N"] for r in records} == set(range(1, 11))
        assert all(set(r) == {"dataset", "model", "K", "N", "recall", "precision", "wall_time"} for r in records)

    def test_explicit_band_boundaries(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        context = "timeband:0,21600,43200,64800"
        model = self._train(workdir, src, context)
        assert json.loads(capsys.readouterr().out)["dims"] == [12, 15, 4]
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", context, "--topn", 5,
        ) == 0
        assert "recall@5" in json.loads(capsys.readouterr().out)

    def test_training_item_without_a_category_is_named(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        cmap = workdir / "cats.tsv"
        lines = [f"item{i}\tcat{i % 2}\n" for i in range(15)]
        cmap.write_text("".join(lines))
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", "sequence:2",
            "--category-map", cmap, "--k", 2, "--epochs", 1,
        ) == 0
        cmap.write_text("".join(lines[:7] + lines[8:]))
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "sequence:2", "--category-map", cmap,
        ) == 1
        assert "no category mapping for item 'item7'" in caplog.text
        assert capsys.readouterr().out == ""

    def test_eval_composite(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "timeband:uniform:6", algo="ica")
        capsys.readouterr()
        code = run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "timeband:uniform:6", "--topn", 5,
        )
        assert code == 0
        assert "recall@5" in json.loads(capsys.readouterr().out)

    def test_eval_rejects_mismatched_context(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "timeband:uniform:6")
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "timeband:uniform:4",
        ) == 1
        assert run(
            "recommend", "--model", model, "--user", "user1",
            "--at", 13 * 3600, "--context", "timeband:uniform:4",
        ) == 1

    def test_eval_rejects_a_reordered_category_map(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        lines = [f"item{i}\tcat{i % 3}\n" for i in range(15)]
        cmap, reordered = workdir / "cats.tsv", workdir / "reordered.tsv"
        cmap.write_text("".join(lines))
        # the same map, listed by category name in reverse
        by_category = sorted(lines, key=lambda line: line.split("\t")[1], reverse=True)
        reordered.write_text("".join(by_category))
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, "--context", "sequence:2:0.5",
            "--category-map", cmap, "--k", 4, "--epochs", 2, "--lambda", 0.1, "--seed", 3,
        ) == 0
        capsys.readouterr()
        args = (
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "sequence:2:0.5", "--exclude-seen", "--category-map",
        )
        assert run(*args, cmap) == 0
        capsys.readouterr()
        assert run(*args, reordered) == 1
        assert capsys.readouterr().out == ""
        assert (
            "--context numbers category states unlike the model: "
            "category state 0 is 'cat0' in the model, 'cat2' in --context"
        ) in caplog.text

    def test_sequence_model_rejects_a_timeband_of_equal_count(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv", with_category=True)
        model = self._train(workdir, src, "sequence:2:0.5")
        first = load_model(model).id_maps[2][0]
        # 3 categories and the no-prior state: as many states as 4 bands
        message = f"category state 0 is {first!r} in the model, 'band-0' in --context"
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "timeband:uniform:4", "--exclude-seen",
        ) == 1
        assert capsys.readouterr().out == ""
        assert message in caplog.text
        caplog.clear()
        assert run(
            "recommend", "--model", model, "--user", "user1",
            "--at", 13 * 3600, "--context", "timeband:uniform:4",
        ) == 1
        assert capsys.readouterr().out == ""
        assert message in caplog.text

    def test_model_without_id_maps_is_checked_by_state_count(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        cells = synthetic_tensor((12, 15, 6), 60, seed=0)
        shape = TensorShape(cells.shape.dims, ("user", "item", "timeband"))
        obs = ObservationTensor(shape, cells.coords, cells.weights)
        model = workdir / "m.itals"
        save_model(fit(obs, TrainConfig(features=2, epochs=1, reg=0.1)), model)
        args = ("eval", "--model", model, "--input", src, "--split-ts", 27 * DAY, "--context")
        assert run(*args, "timeband:uniform:6") == 0
        capsys.readouterr()
        assert run(*args, "timeband:uniform:4") == 1
        assert capsys.readouterr().out == ""
        assert "timeband state 4 is 4 in the model, nothing in --context" in caplog.text

    def test_model_without_id_maps_is_checked_by_role(self, workdir, capsys, caplog):
        # 3 categories and the no-prior state: as many states as the model's bands
        src = write_events(workdir / "ev.tsv", with_category=True)
        cells = synthetic_tensor((12, 15, 4), 60, seed=0)
        shape = TensorShape(cells.shape.dims, ("user", "item", "timeband"))
        model = workdir / "m.itals"
        save_model(fit(ObservationTensor(shape, cells.coords, cells.weights),
                       TrainConfig(features=2, epochs=1, reg=0.1)), model)
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
            "--context", "sequence:2",
        ) == 1
        assert capsys.readouterr().out == ""
        assert "--context describes a category axis, the model's is timeband" in caplog.text

    def test_context_model_needs_context(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "timeband:uniform:6")
        capsys.readouterr()
        assert run("eval", "--model", model, "--input", src, "--split-ts", 27 * DAY) == 1
        assert capsys.readouterr().out == ""
        assert "the model has a context axis; pass --context to describe it" in caplog.text

    def test_eval_plain_needs_no_context(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "none")
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
        ) == 0

    def test_eval_rejects_a_log_numbered_otherwise(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "timeband:uniform:6")
        reversed_log = workdir / "reversed.tsv"
        lines = src.read_text().splitlines()
        reversed_log.write_text("\n".join(reversed(lines)) + "\n")
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", reversed_log, "--split-ts", 27 * DAY,
            "--context", "timeband:uniform:6",
        ) == 1
        assert capsys.readouterr().out == ""
        assert "the log numbers users unlike the model: user 0" in caplog.text

    def test_eval_on_an_appended_log(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "timeband:uniform:6")
        # a new user and a new item before the split land in the seen log
        longer = workdir / "longer.tsv"
        longer.write_text(
            src.read_text() + f"newcomer\tnew-item\t{20 * DAY}\nuser1\tnew-item\t{21 * DAY}\n"
            f"newcomer\titem2\t{28 * DAY}\n"
        )
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", longer, "--split-ts", 27 * DAY,
            "--context", "timeband:uniform:6", "--exclude-seen",
        ) == 0
        assert json.loads(capsys.readouterr().out)["users"] > 0
        assert run(
            "recommend", "--model", model, "--user", "user1", "--state", 2,
            "--exclude-seen", "--input", longer, "--split-ts", 27 * DAY,
        ) == 0
        assert "new-item" not in capsys.readouterr().out

    def test_eval_empty_test_fails(self, workdir):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "none")
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 999 * DAY,
        ) == 1


class TestRecommendCommand:
    def test_topn_output(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 3, "--epochs", 2, "--lambda", 0.1,
        )
        capsys.readouterr()
        code = run("recommend", "--model", model, "--user", "user3", "--topn", 5)
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        rank, item, score = lines[0].split("\t")
        assert rank == "1" and item.startswith("item")

    def test_context_model_needs_state(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "timeband:uniform:6", "--k", 3, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        assert run("recommend", "--model", model, "--user", "user1") == 1
        assert run("recommend", "--model", model, "--user", "user1", "--state", 2) == 0
        capsys.readouterr()
        code = run(
            "recommend", "--model", model, "--user", "user1",
            "--at", 13 * 3600, "--context", "timeband:uniform:6",
        )
        assert code == 0

    def test_at_needs_a_timeband_context(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv", with_category=True)
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "sequence:2", "--k", 3, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        assert run(
            "recommend", "--model", model, "--user", "user1", "--at", 100, "--context", "sequence:2"
        ) == 1
        assert "--at needs a timeband --context" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("at", [99999999999999999999, 2**63, -5])
    def test_at_outside_the_timestamp_range_exits_1(self, workdir, capsys, caplog, at):
        # the log reader's rule: a huge --at used to end in an OverflowError
        # traceback, and -5 to score in the previous day's last band
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "timeband:uniform:6", "--k", 3, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        assert run(
            "recommend", "--model", model, "--user", "user1", "--at", at, "--context", "timeband:uniform:6"
        ) == 1
        assert f"--at must be a timestamp in [0, 2**63), got {at}" in caplog.text
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err + caplog.text

    def test_exclude_seen_needs_input(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 2, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        assert run("recommend", "--model", model, "--user", "user1", "--exclude-seen") == 1
        assert "--exclude-seen needs --input" in caplog.text
        assert capsys.readouterr().out == ""

    def test_unknown_user(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 2, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        assert run("recommend", "--model", model, "--user", "stranger") == 1
        assert run(
            "recommend", "--model", model, "--user", "999", "--allow-cold-user"
        ) == 0

    def test_user_resolves_through_the_id_map_only(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 2, "--epochs", 1, "--lambda", 0.1,
        )
        capsys.readouterr()
        # "3" is a dense index but no user id of this model
        assert run("recommend", "--model", model, "--user", 3) == 1
        assert capsys.readouterr().out == ""
        assert "unknown user id '3'" in caplog.text
        assert run("recommend", "--model", model, "--user", "stranger", "--allow-cold-user") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[2] for line in lines] == ["0"] * 10

    def test_a_log_with_a_byte_order_mark(self, workdir, capsys):
        # its first user used to be "\ufeffuser…": unknown to --user, and a
        # model trained on it failed eval's id-prefix check on the plain log
        plain = write_events(workdir / "ev.tsv")
        marked = workdir / "bom.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        first = plain.read_text().split("\t", 1)[0]
        model = workdir / "m.itals"
        flags = ("--context", "none", "--k", 2, "--epochs", 1, "--lambda", 0.1)
        assert run("train", "--input", marked, "--output", model, *flags) == 0
        assert load_model(model).id_maps[0][0] == first
        capsys.readouterr()
        assert run("recommend", "--model", model, "--user", first) == 0
        assert capsys.readouterr().out != ""
        assert run("eval", "--model", model, "--input", plain, "--split-ts", 15 * DAY, "--context", "none") == 0

    def test_dense_index_for_a_model_without_id_maps(self, workdir, capsys):
        obs = synthetic_tensor((3, 4), 6, seed=0)
        model = workdir / "m.itals"
        save_model(fit(obs, TrainConfig(features=2, epochs=1, reg=0.1)), model)
        assert run("recommend", "--model", model, "--user", 1, "--topn", 2) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2
        assert run("recommend", "--model", model, "--user", "user1") == 1

    def test_non_finite_model_fails(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 2, "--epochs", 1, "--lambda", 0.1,
        )
        overwrite_float64(model, load_model(model).factors[1][0, 3], np.nan)
        capsys.readouterr()
        assert run("recommend", "--model", model, "--user", "user3") == 1
        assert capsys.readouterr().out == ""
        assert "factor matrix 1 holds non-finite values" in caplog.text

    def test_id_map_of_wrong_length_fails(self, workdir, capsys, caplog, monkeypatch):
        obs = synthetic_tensor((3, 4), 6, seed=0)
        maps = [["a", "b", "c"], ["x", "y"]]
        trained = fit(obs, TrainConfig(features=2, epochs=1, reg=0.1), id_maps=maps)
        model = workdir / "m.itals"
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "_check_id_maps", lambda shape, id_maps: None)
            save_model(trained, model)
        assert run("recommend", "--model", model, "--user", "a", "--topn", 4) == 1
        assert capsys.readouterr().out == ""
        assert "id map of axis 1 holds 2 ids, the axis has 4" in caplog.text


@pytest.mark.parametrize("command", [
    ["eval", "--input", V1 / "events.tsv", "--split-ts", 27 * DAY, "--context", "timeband"],
    ["recommend", "--user", "u0"],
])
def test_a_model_file_whose_k_exceeds_its_bytes_exits_1(workdir, capsys, caplog, command):
    # a K of 2**31 used to die with a MemoryError or OverflowError traceback
    raw = bytearray((V1 / "timeband-itals.itals").read_bytes())
    raw[17:21] = struct.pack("<I", 2**31)  # after the magic, version, kind and D
    model = workdir / "m.itals"
    model.write_bytes(raw)
    assert run(command[0], "--model", model, *command[1:]) == 1
    assert "truncated model file" in caplog.text
    assert capsys.readouterr().out == ""


class TestCommandsMatchTheLibrary:
    """``eval`` and ``recommend --at`` print what the library gives with the same context spec."""

    @pytest.mark.parametrize("context, from_map", [
        ("timeband:uniform:6", False), ("sequence:2:0.5", False), ("sequence:3:0.7", True),
    ])
    @pytest.mark.parametrize("algo", ["itals", "ica"])
    def test_eval_prints_the_library_metrics(self, workdir, capsys, context, from_map, algo):
        src = write_events(workdir / "ev.tsv", n_users=30, n_events=600, with_category=True)
        flags = ["--context", context]
        if from_map:
            cmap = workdir / "cats.tsv"
            cmap.write_text("".join(f"item{i}\tkind{i % 4}\n" for i in range(15)))
            flags += ["--category-map", cmap]
        model, split = workdir / "m.itals", 24 * DAY
        assert run(
            "train", "--input", src, "--output", model, "--algo", algo, *flags,
            "--k", 4, "--epochs", 2, "--lambda", 0.1, "--split-ts", split,
        ) == 0
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", split, "--topn", 20, *flags
        ) == 0
        summary = json.loads(capsys.readouterr().out)

        train, test = split_by_date(ingest_events(src), SplitSpec(split))
        kind, *parts = context.split(":")
        if kind == "timeband":
            ctx = TimeBandContext(SeasonSpec.uniform(DAY, 6))
        elif from_map:
            ctx = SequenceContext.from_rows(
                int(parts[0]), float(parts[1]), *read_category_rows(cmap, train.item_ids), train.item_ids
            )
        else:
            mapping = dict(zip(train.items.tolist(), train.categories.tolist()))
            ctx = SequenceContext(int(parts[0]), float(parts[1]), mapping, train.category_ids)
        report = recall_precision_at(load_model(model), test, 20, ctx.requests(train, test))
        assert (summary["recall@20"], summary["precision@20"]) == report.at(20)
        assert summary["users"] == report.n_users > 0

    @pytest.mark.parametrize("flags, season", [
        (["--context", "timeband:uniform:6"], SeasonSpec.uniform(DAY, 6)),
        (
            ["--context", "timeband:0,3600,40000", "--utc-offset", 3600],
            SeasonSpec(DAY, (0, 3600, 40000), 3600),
        ),
    ])
    def test_at_is_the_state_of_its_band(self, workdir, capsys, flags, season):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        assert run(
            "train", "--input", src, "--output", model, *flags, "--k", 3, "--epochs", 2, "--lambda", 0.1,
        ) == 0
        capsys.readouterr()
        for at in (0, 3599, 13 * 3600, DAY - 1, 5 * DAY + 7000, 2**63 - 1):
            assert run("recommend", "--model", model, "--user", "user2", "--at", at, *flags) == 0
            by_time = capsys.readouterr().out
            band = assign_time_band(at, season)
            assert run("recommend", "--model", model, "--user", "user2", "--state", band) == 0
            assert by_time == capsys.readouterr().out != ""


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text(
            f"input = {src}\ncontext = none\nk = 2\nepochs = 1\nlambda = 0.1\nseed = 5\n"
        )
        m1 = workdir / "m1.itals"
        assert run("--config", cfg, "train", "--output", m1) == 0
        out1 = json.loads(capsys.readouterr().out)
        assert out1["features"] == 2
        assert load_model(m1).config.reg == 0.1
        m2 = workdir / "m2.itals"
        assert run("--config", cfg, "train", "--output", m2, "--k", 3) == 0
        out2 = json.loads(capsys.readouterr().out)
        assert out2["features"] == 3

    def test_bad_config_line(self, workdir, capsys, caplog):
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text("this is not a pair\n")
        out = workdir / "out"
        assert run("--config", cfg, "prepare", "--input", src, "--out-dir", out) == 1
        assert capsys.readouterr().out == ""
        assert "expected key = value" in caplog.text
        assert not out.exists()

    def test_a_leading_byte_order_mark_is_not_part_of_a_key(self, workdir, capsys, caplog):
        # "\ufeffk" used to be an unknown option
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text(f"k = 2\ninput = {src}\nepochs = 1\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbfk = 2")
        model = workdir / "m.itals"
        assert run("--config", cfg, "train", "--output", model) == 0
        assert json.loads(capsys.readouterr().out)["features"] == 2
        cfg.write_text("k = 2\nlamda = 5\n", encoding="utf-8-sig")
        assert run("--config", cfg, "train", "--input", src, "--output", model) == 1
        assert "run.cfg:2: unknown option 'lamda'" in caplog.text

    def test_missing_required_option(self, workdir):
        src = write_events(workdir / "ev.tsv")
        assert run("train", "--input", src) == 1  # no --output

    @pytest.mark.parametrize("line", ["lamda = 5", "threads = 2"])
    def test_unknown_key_fails(self, workdir, capsys, caplog, line):
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text(f"k = 2\n{line}\n")
        model = workdir / "m.itals"
        assert run("--config", cfg, "train", "--input", src, "--output", model) == 1
        assert f"run.cfg:2: unknown option {line.split()[0]!r}" in caplog.text
        assert not model.exists()

    def test_keys_of_other_subcommands_are_ignored(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text(
            f"input = {src}\ncontext = timeband:uniform:6\nk = 2\nepochs = 1\n"
            f"lambda = 0.1\nalgo = ica\nsplit_ts = {27 * DAY}\ntopn = 5\n"
        )
        model = workdir / "m.itals"
        assert run("--config", cfg, "train", "--output", model) == 0
        capsys.readouterr()
        assert run("--config", cfg, "eval", "--model", model) == 0
        assert "recall@5" in json.loads(capsys.readouterr().out)

    def test_bad_value_fails_as_the_flag_does(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        cfg = workdir / "run.cfg"
        cfg.write_text("reg_mode = bogus\n")
        with pytest.raises(SystemExit) as from_config:
            run("--config", cfg, "train", "--input", src, "--output", workdir / "m")
        config_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as from_flag:
            run("train", "--input", src, "--output", workdir / "m", "--reg-mode", "bogus")
        assert from_config.value.code == from_flag.value.code == 2
        assert config_err == capsys.readouterr().err
        assert "argument --reg-mode: invalid choice: 'bogus'" in config_err

    def test_switch_acts_as_the_flag(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = workdir / "m.itals"
        run(
            "train", "--input", src, "--output", model,
            "--context", "none", "--k", 3, "--epochs", 2, "--lambda", 0.1,
        )
        cfg = workdir / "run.cfg"
        cfg.write_text("exclude_seen = yes\n")
        command = ("eval", "--model", model, "--input", src, "--split-ts", 27 * DAY)
        summaries = []
        for argv in (("--config", cfg, *command), (*command, "--exclude-seen"), command):
            capsys.readouterr()
            assert run(*argv) == 0
            summary = json.loads(capsys.readouterr().out)
            for timing in ("wall_time", "rank_seconds", "users_per_second"):
                summary.pop(timing)
            summaries.append(summary)
        assert summaries[0] == summaries[1] != summaries[2]


    def test_switch_takes_yes_or_no(self, workdir, capsys):
        cfg = workdir / "run.cfg"
        cfg.write_text("exclude_seen = maybe\n")
        with pytest.raises(SystemExit) as exc:
            run("--config", cfg, "eval", "--model", "m", "--input", "ev.tsv", "--split-ts", 1)
        assert exc.value.code == 2
        assert "argument --exclude-seen: expected yes or no, got 'maybe'" in capsys.readouterr().err


class TestDefaults:
    def test_parser_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["train"])
        assert cli._from_args(TrainConfig, args) == TrainConfig()
        assert cli._from_args(WeightingScheme, args) == WeightingScheme()

    def test_help_shows_the_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--help")
        assert exc.value.code == 0
        assert "feature count (default: 20)" in " ".join(capsys.readouterr().out.split())


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--k-grid", "4"),
            ("--threads", "2", "train", "--input", "ev.tsv", "--output", "m.itals"),
        ],
    )
    def test_retired_command_and_flag_are_usage_errors(self, workdir, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
