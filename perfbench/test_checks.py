"""The benchmark's checks pass on the program's output and fail on corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import generate  # noqa: E402
import pipeline  # noqa: E402
from itals import ObservationTensor, RankingReport, recall_precision_at  # noqa: E402

TINY = {
    "timeband": pipeline.Workload(
        "tiny-season",
        lambda rng: generate.seasonal_log(rng, n_users=60, n_items=96, test_events=8, train_sessions=6),
        features=6,
        epochs=3,
        context="timeband",
    ),
    "sequence": pipeline.Workload(
        "tiny-basket",
        lambda rng: generate.basket_log(rng, n_users=40, n_categories=8, variants=16, train_trips=8),
        features=6,
        epochs=3,
        context="sequence",
        depth=3,
        decay=0.6,
    ),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def run(request, tmp_path_factory):
    r = pipeline.Run(TINY[request.param], seed=3, work=tmp_path_factory.mktemp(request.param))
    r.round(traced=True)
    r.round(traced=False)
    return r


def _out(run):
    return run.rounds[-1].outputs


def _rng():
    return np.random.default_rng(0)


def test_every_check_passes_on_program_output(run):
    assert pipeline.run_checks(run, trace=True) == []


def test_ingest_check_catches_a_changed_timestamp(run):
    gen = dataclasses.replace(run.gen, timestamps=run.gen.timestamps.copy())
    gen.timestamps[5] += 1
    with pytest.raises(checks.CheckError):
        checks.check_ingest(gen, _out(run)["prep"].log)


def test_context_checks_catch_a_changed_state(run):
    prep, wl = _out(run)["prep"], run.wl
    states = list(prep.states)
    ((state, weight), *rest) = states[7]
    states[7] = [((state + 1) % prep.obs3.shape.dims[2], weight), *rest]
    requests = dict(prep.requests)
    user = sorted(requests)[0]
    requests[user] = [(s, w * 0.5) for s, w in requests[user]]
    n = len(states)
    if wl.context == "timeband":
        state_check = lambda st: checks.check_timeband_states(_rng(), prep.events3, st, pipeline.SEASON, pipeline.BANDS, n)
        request_check = lambda rq: checks.check_timeband_requests(_rng(), prep.test, rq, pipeline.SEASON, pipeline.BANDS, n)
    else:
        args = (prep.item_cat, wl.depth, wl.decay, prep.cold)
        state_check = lambda st: checks.check_sequence_states(_rng(), prep.train, prep.events3, st, *args, n)
        request_check = lambda rq: checks.check_sequence_requests(_rng(), prep.train, rq, *args, n)
    state_check(prep.states)
    request_check(prep.requests)
    with pytest.raises(checks.CheckError):
        state_check(states)
    with pytest.raises(checks.CheckError):
        request_check(requests)


def test_tensor_check_catches_a_changed_weight_and_a_lost_cell(run):
    prep = _out(run)["prep"]
    keys, rel = checks.cell_keys(prep.events3.users, prep.events3.items, prep.states)
    obs = prep.obs3
    weights = obs.weights.copy()
    weights[3] += 1.0
    for bad in (
        ObservationTensor(obs.shape, obs.coords, weights),
        ObservationTensor(obs.shape, obs.coords[1:], obs.weights[1:]),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_tensor(bad, keys, rel, pipeline.SCHEME.base, pipeline.SCHEME.alpha)


def test_solver_checks_catch_a_perturbed_column_and_a_stale_gram(run):
    out = _out(run)
    obs, reg = out["prep"].obs3, pipeline.REG
    factors = [f.copy() for f in out["model"].factors]
    factors[2][:, 1] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_normal_equations(factors, obs, 2, reg)
    model = dataclasses.replace(out["model"], grams=[g.copy() for g in out["model"].grams])
    model.grams[0][0, 0] *= 1.0 + 1e-9
    with pytest.raises(checks.CheckError):
        checks.check_grams(model)


def test_objective_check_catches_a_rise(run):
    snaps = [r for r in run.rounds if r.traced][-1].snapshots
    obs, reg = _out(run)["prep"].obs3, pipeline.REG
    values = checks.check_objective(snaps, obs, reg)
    assert values[-1] < values[0]
    with pytest.raises(checks.CheckError):
        checks.check_objective(snaps[::-1], obs, reg)


def _ranking_inputs(run):
    prep = _out(run)["prep"]
    users = np.unique(prep.test.users)
    seen = [run.seen.get(int(u), np.empty(0, dtype=np.int64)) for u in users]
    relevant = np.zeros((len(users), prep.log.n_items), dtype=bool)
    relevant[np.searchsorted(users, prep.test.users), prep.test.items] = True
    return prep, users, seen, relevant


def test_report_check_catches_a_swapped_ranking(run):
    prep, users, seen, relevant = _ranking_inputs(run)
    model = _out(run)["model"]
    scores = checks.dense_scores(model, users, prep.requests)
    report = _out(run)["reports"]["itals"]
    checks.check_report(report, scores, seen, relevant, pipeline.TOP_N, "itals")
    # permute the item columns: the program ranks with the wrong items
    swapped = dataclasses.replace(model, factors=[f.copy() for f in model.factors])
    swapped.factors[1] = swapped.factors[1][:, _rng().permutation(swapped.factors[1].shape[1])]
    bad = recall_precision_at(swapped, prep.test, pipeline.TOP_N, prep.requests, seen=prep.train)
    shifted = RankingReport(report.n_max, report.recall + 0.01, report.precision, report.n_users)
    for wrong in (bad, shifted):
        with pytest.raises(checks.CheckError):
            checks.check_report(wrong, scores, seen, relevant, pipeline.TOP_N, "itals")


def test_topn_check_catches_swapped_items(run):
    loaded = _out(run)["loaded"]
    user, states, ranked = _out(run)["samples"][0]
    row = checks.dense_scores(loaded, np.array([user]), {user: states})[0]
    seen = run.seen.get(user, np.empty(0, dtype=np.int64))
    checks.check_topn(ranked, row, seen, pipeline.TOP_N)
    items = ranked.items.copy()
    items[[0, -1]] = items[[-1, 0]]
    with pytest.raises(checks.CheckError):
        checks.check_topn(dataclasses.replace(ranked, items=items), row, seen, pipeline.TOP_N)


def test_reload_check_catches_one_ulp(run):
    model, loaded = _out(run)["model"], _out(run)["loaded"]
    checks.check_reload(model, loaded)
    bad = dataclasses.replace(loaded, factors=[f.copy() for f in loaded.factors])
    bad.factors[1][0, 0] = np.nextafter(bad.factors[1][0, 0], np.inf)
    with pytest.raises(checks.CheckError):
        checks.check_reload(model, bad)


def test_repeatable_check_catches_an_earlier_round_that_differs(run, monkeypatch):
    first = run.rounds[0].outputs["reports"]
    report = first["itals"]
    shifted = RankingReport(report.n_max, report.recall * 0.99, report.precision, report.n_users)
    monkeypatch.setitem(first, "itals", shifted)
    failures = pipeline.run_checks(run, trace=True)
    assert [f.split(":")[0] for f in failures] == ["repeatable"]


def test_gate_needs_itals_ahead_of_both_baselines():
    checks.check_gate(0.3, 0.2, 0.25)
    for args in ((0.2, 0.3, 0.1), (0.2, 0.1, 0.2)):
        with pytest.raises(checks.CheckError):
            checks.check_gate(*args)


def _run_py(cwd):
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "train-k80", "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_a_correct_json_last_line():
    done = _run_py(HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % pipeline.OPS_PER_ROUND == 0
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_py(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
