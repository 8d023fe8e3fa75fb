import json

import numpy as np
import pytest

from itals.cli import main

DAY = 86_400


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("ITALS_LOG", "warning")
    return tmp_path


def write_events(path, n_users=12, n_items=15, n_events=250, seed=0, with_category=False):
    rng = np.random.default_rng(seed)
    cats = ["alpha", "beta", "gamma"]
    lines = []
    for _ in range(n_events):
        u = rng.integers(0, n_users)
        i = int(rng.integers(0, n_items))
        ts = int(rng.integers(0, 30 * DAY))
        row = f"user{u}\titem{i}\t{ts}"
        if with_category:
            row += f"\t{cats[i % 3]}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        assert run("prepare", "--input", workdir / "nope.tsv", "--out-dir", workdir) == 1


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
        pr = (workdir / "out.pr.csv").read_text().strip().split("\n")
        assert pr[0] == "N,recall,precision"
        assert len(pr) == 11
        jsonl = (workdir / "out.metrics.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in jsonl]
        assert len(records) == 10
        assert {r["N"] for r in records} == set(range(1, 11))
        assert all(set(r) == {"dataset", "model", "K", "N", "recall", "precision", "wall_time"} for r in records)

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

    def test_eval_plain_needs_no_context(self, workdir, capsys):
        src = write_events(workdir / "ev.tsv")
        model = self._train(workdir, src, "none")
        capsys.readouterr()
        assert run(
            "eval", "--model", model, "--input", src, "--split-ts", 27 * DAY,
        ) == 0

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


class TestBenchCommand:
    def test_single_grid_point(self, workdir, capsys):
        out = workdir / "bench.csv"
        code = run(
            "bench", "--k-grid", "4", "--nplus-grid", "500",
            "--dims", "40,40,4", "--k-fixed", 4, "--nplus-fixed", 500,
            "--repeats", 1, "--output", out,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + one row per sweep
        assert lines[0].startswith("sweep,")

    def test_fits_reported(self, workdir, capsys):
        code = run(
            "bench", "--k-grid", "2,4", "--nplus-grid", "200,400",
            "--dims", "30,30,4", "--k-fixed", 2, "--nplus-fixed", 400,
            "--repeats", 1,
        )
        assert code == 0
        csv_text = capsys.readouterr().out
        rows = csv_text.strip().split("\n")[1:]
        assert len(rows) == 4
        k_rows = [r for r in rows if r.startswith("k,")]
        assert k_rows and k_rows[0].split(",")[9] != ""


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
        m2 = workdir / "m2.itals"
        assert run("--config", cfg, "train", "--output", m2, "--k", 3) == 0
        out2 = json.loads(capsys.readouterr().out)
        assert out2["features"] == 3

    def test_bad_config_line(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("this is not a pair\n")
        assert run("--config", cfg, "bench", "--k-grid", "2") == 1

    def test_missing_required_option(self, workdir):
        src = write_events(workdir / "ev.tsv")
        assert run("train", "--input", src) == 1  # no --output
