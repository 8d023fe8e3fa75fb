"""The benchmark's workloads and the pipeline round it times.

A run generates one workload's event log from the seed, writes it as a
TSV and then repeats whole rounds until the run's time is spent (at
least three rounds, four when traced).  A round goes through the
package's public functions in pipeline order:

    setup        ingest_events, split_by_date, context extraction for the
                 training events and the request contexts, build_tensor
                 for the 3-D and the 2-D tensor
    train        fit (iTALS)
    baseline     fit_ials + fit_ica on the same split
    evaluation   recall_precision_at for iTALS, iALS and iCA (N = 20,
                 seen items excluded)
    persistence  save_model, load_model
    recommend    a closed loop of recommend_topn requests, one client, on
                 the reloaded model

Each stage pass is timed and scaled to a reference host speed: a short
fixed Python loop (``probe_ms``) runs between passes, and a pass's time
is multiplied by REF_PROBE_MS over the mean of the probes before and
after it.  The host this was tuned on switches between speeds about 1.5x
apart for tens of seconds at a time, which moved plain wall times by up
to 31% between two sets of runs of the same commit (the README has the
study); the unscaled means are printed in the diagnostic line.  Stage
times are means over the passes, except setup_s, which is their median;
recommend latencies are per-round percentiles averaged over the rounds.
A traced run alternates traced and untraced rounds; the traced ones
give the per-layer figures (plain wall times) and the untraced ones the
tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from itals import (
    SeasonSpec,
    SequenceSpec,
    SplitSpec,
    TensorShape,
    TrainConfig,
    WeightingScheme,
    assign_time_band,
    build_tensor,
    fit,
    fit_ials,
    fit_ica,
    ingest_events,
    last_category_states,
    load_model,
    recall_precision_at,
    recommend_topn,
    save_model,
    sequential_context,
    split_by_date,
    time_band_states,
)

import checks
import generate
from tracing import Tracer

TOP_N = 20
REQUESTS_PER_ROUND = 2000
# setup, fit, save, load, fit_ials, fit_ica, four rankings, the requests
OPS_PER_ROUND = 10 + REQUESTS_PER_ROUND
# A 50k-iteration pure-Python loop takes REF_PROBE_MS on the reference
# host; stage times are scaled to that speed (see probe_ms and the README).
PROBE_LOOP = 50_000
REF_PROBE_MS = 4.0
SCHEME = WeightingScheme(base=1.0, alpha=100.0)
REG = 0.1  # ridge lambda of every model, also used by the solver checks
SEASON, BANDS = generate.DAY, generate.BANDS


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # numpy Generator -> generate.GeneratedLog
    features: int
    epochs: int
    context: str  # "timeband" or "sequence"
    depth: int = 0
    decay: float = 1.0
    recall_gate: bool = False


# Sizes keep a round at 3-5 s, so a 35 s run has several rounds spread
# over it, and give enough test users that recall@20 varies by a few
# percent between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        # the paper's seasonality experiment; evaluation and iCA dominate
        Workload(
            "season-quality",
            lambda rng: generate.seasonal_log(rng, n_users=700, n_items=480, test_events=18),
            features=20,
            epochs=5,
            context="timeband",
            recall_gate=True,
        ),
        # few users with dense histories at K=80: the solver's K^2 accumulation
        # dominates; long test sessions keep recall steady with few users
        Workload(
            "train-k80",
            lambda rng: generate.seasonal_log(
                rng, n_users=240, n_items=600, test_events=24, train_sessions=8, session_events=8
            ),
            features=80,
            epochs=3,
            context="timeband",
        ),
        # tied basket timestamps, several weighted states per event and 14
        # context states: context, tensor build and iCA weigh most
        Workload(
            "sequence-basket",
            lambda rng: generate.basket_log(rng, n_users=900),
            features=20,
            epochs=3,
            context="sequence",
            depth=4,
            decay=0.6,
            recall_gate=True,
        ),
    )
}


@dataclass
class Prepared:
    """Setup output: the split logs, context states and both tensors."""

    log: object
    train: object
    test: object
    events3: object  # training events in the order of ``states``
    states: list
    requests: dict  # test user -> [(state, weight)]
    obs3: object
    obs2: object
    item_cat: Optional[dict] = None
    cold: int = 0


def _item_categories(log) -> dict:
    return dict(zip(log.items.tolist(), log.categories.tolist()))


def _first_test_bands(test, season: SeasonSpec) -> dict:
    order = np.lexsort((test.timestamps, test.users))
    users = test.users[order]
    first = order[np.r_[True, users[1:] != users[:-1]]]
    bands = assign_time_band(test.timestamps[first], season)
    return {int(u): [(int(b), 1.0)] for u, b in zip(test.users[first], bands)}


def setup(wl: Workload, path: Path, split_ts: int, tracer: Tracer) -> Prepared:
    with tracer.span("events.ingest"):
        log = ingest_events(path)
    with tracer.span("evaluation.split"):
        train, test = split_by_date(log, SplitSpec(split_ts))
    item_cat, cold = None, 0
    if wl.context == "timeband":
        season = SeasonSpec.uniform(SEASON, BANDS)
        n_states, role, events3 = BANDS, "timeband", train
        with tracer.span("context.extract"):
            states = time_band_states(train.timestamps, season)
        with tracer.span("context.request"):
            requests = _first_test_bands(test, season)
    else:
        item_cat = _item_categories(log)
        cold = len(log.category_ids)
        spec = SequenceSpec(wl.depth, wl.decay, cold + 1, cold)
        n_states, role = cold + 1, "category"
        with tracer.span("events.sort"):
            events3 = train.sorted_by_user_time()
        with tracer.span("context.extract"):
            states = sequential_context(events3, item_cat, spec)
        with tracer.span("context.request"):
            last = last_category_states(train, item_cat, spec)
        requests = {int(u): last.get(int(u), [(cold, 1.0)]) for u in np.unique(test.users)}
    shape3 = TensorShape((log.n_users, log.n_items, n_states), ("user", "item", role))
    shape2 = TensorShape((log.n_users, log.n_items), ("user", "item"))
    with tracer.span("tensor.build"):
        obs3 = build_tensor(events3, states, shape3, SCHEME)
    with tracer.span("tensor.build"):
        obs2 = build_tensor(train, None, shape2, SCHEME)
    return Prepared(log, train, test, events3, states, requests, obs3, obs2, item_cat, cold)


def seen_items(train) -> dict:
    """{user: sorted distinct training items}."""
    order = np.lexsort((train.items, train.users))
    users, items = train.users[order], train.items[order]
    cuts = np.flatnonzero(users[1:] != users[:-1]) + 1
    return {int(g[0]): np.unique(i) for g, i in zip(np.split(users, cuts), np.split(items, cuts))}


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    stage: dict = field(default_factory=dict)  # stage -> [seconds of each pass]
    axis_times: list = field(default_factory=list)  # (epoch, role, seconds), traced only
    snapshots: list = field(default_factory=list)  # factors after each epoch, traced only
    speed: dict = field(default_factory=dict)  # stage -> [probe ms around each pass]
    bursts: list = field(default_factory=list)  # ([request seconds], probe ms) per burst
    failed: int = 0
    outputs: dict = field(default_factory=dict)


class Run:
    """One workload, one seed: the generated input and the rounds over it."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tracer = Tracer()
        self.gen = wl.generate(np.random.default_rng(seed))
        self.tsv = work / "events.tsv"
        generate.write_tsv(self.gen, self.tsv)
        self.model_path = work / "model.itals"
        self.config = TrainConfig(features=wl.features, epochs=wl.epochs, reg=REG, seed=seed)
        self.request_rng = np.random.default_rng([seed, 1])
        self.rounds: list = []
        self.seen: Optional[dict] = None

    def _fit_traced(self, obs, rnd: Round):
        roles = [r if r in ("user", "item") else "context" for r in obs.shape.axis_roles]
        mark = [time.perf_counter()]

        def after_axis(model, epoch, axis):
            now = time.perf_counter()
            self.tracer.add(f"solver.axis_{roles[axis]}", mark[0], now)
            rnd.axis_times.append((epoch, roles[axis], now - mark[0]))
            if axis == obs.ndim - 1:
                rnd.snapshots.append([f.copy() for f in model.factors])
                self.tracer.add("bench.snapshot", now, time.perf_counter())
            mark[0] = time.perf_counter()

        return fit(obs, self.config, after_axis=after_axis)

    def round(self, traced: bool) -> Round:
        tracer = self.tracer
        tracer.enabled, tracer.round = traced, len(self.rounds)
        rnd = Round(traced)
        out = rnd.outputs

        def timed(name):
            return _Stage(self, rnd, name)

        started = time.perf_counter()
        self.last_probe = probe_ms()
        with tracer.span("bench.round"):
            with timed("setup"):
                prep = setup(self.wl, self.tsv, self.gen.split_ts, tracer)
            if self.seen is None:
                self.seen = seen_items(prep.train)
            with timed("train"), tracer.span("solver.fit"):
                model = self._fit_traced(prep.obs3, rnd) if traced else fit(prep.obs3, self.config)
            with timed("save"), tracer.span("persistence.save"):
                save_model(model, self.model_path)
            with timed("load"), tracer.span("persistence.load"):
                loaded = load_model(self.model_path)
            # the shortest stages run twice, before and after the baselines,
            # so that their samples spread over the round
            reports = {"itals": self._rank(model, prep, rnd, "itals", prep.requests)}
            samples = self._recommend(loaded, prep, rnd)
            with timed("ials"), tracer.span("baseline.ials"):
                ials = fit_ials(prep.obs2, self.config)
            with timed("ica"), tracer.span("baseline.ica"):
                ica = fit_ica(prep.obs3, self.config)
            reports["ials"] = self._rank(ials, prep, rnd, "ials", None)
            reports["ica"] = self._rank(ica, prep, rnd, "ica", prep.requests)
            again = self._rank(model, prep, rnd, "itals", prep.requests)
            self._recommend(loaded, prep, rnd)
        rnd.wall = time.perf_counter() - started
        out.update(
            prep=prep, model=model, ials=ials, ica=ica, reports=reports, loaded=loaded, samples=samples,
            itals_again=again.at(TOP_N),
        )
        if self.rounds:  # only the last round's outputs are checked; keep memory flat
            self.rounds[-1].outputs = {"reports": self.rounds[-1].outputs["reports"]}
        self.rounds.append(rnd)
        return rnd

    def _rank(self, model, prep: Prepared, rnd: Round, label: str, requests):
        with _Stage(self, rnd, f"rank_{label}"), self.tracer.span(f"evaluation.rank_{label}"):
            return recall_precision_at(model, prep.test, TOP_N, requests, seen=prep.train)

    def _recommend(self, loaded, prep: Prepared, rnd: Round) -> list:
        """One burst of half the round's requests; returns the first 50 answers."""
        users = np.array(sorted(prep.requests))
        picks = users[self.request_rng.integers(0, len(users), size=REQUESTS_PER_ROUND // 2)]
        samples, latencies = [], []
        stage = _Stage(self, rnd, "recommend")
        with stage:
            for user in picks.tolist():
                self._request(loaded, prep, rnd, user, latencies, samples)
        rnd.bursts.append((latencies, stage.speed))
        return samples

    def _request(self, loaded, prep: Prepared, rnd: Round, user: int, latencies: list, samples: list):
        states, exclude = prep.requests[user], self.seen.get(user)
        began = time.perf_counter()
        try:
            with self.tracer.span("evaluation.recommend"):
                ranked = recommend_topn(loaded, user, states, TOP_N, exclude_items=exclude)
        except Exception as exc:  # a failed request is counted, the loop goes on
            rnd.failed += 1
            if rnd.failed == 1:
                print(f"recommend failed for user {user}: {exc!r}", flush=True)
            return
        latencies.append(time.perf_counter() - began)
        if len(samples) < 50:
            samples.append((user, states, ranked))


def probe_ms() -> float:
    """Host speed now: median time of three fixed pure-Python loops, in ms."""
    timings = []
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        timings.append((time.perf_counter() - began) * 1e3)
    return sorted(timings)[1]


class _Stage:
    """Times one stage pass, wraps it in a bench.<stage> span and probes the
    host speed after it; the pass's speed is the mean of the probes before
    and after it."""

    def __init__(self, run: Run, rnd: Round, name: str):
        self.run, self.rnd, self.name = run, rnd, name
        self.span = run.tracer.span(f"bench.{name}")

    def __enter__(self):
        self.span.__enter__()
        self.began = time.perf_counter()

    def __exit__(self, *exc):
        seconds = time.perf_counter() - self.began
        result = self.span.__exit__(*exc)
        after = probe_ms()
        self.speed = (self.run.last_probe + after) / 2
        self.run.last_probe = after
        self.rnd.stage.setdefault(self.name, []).append(seconds)
        self.rnd.speed.setdefault(self.name, []).append(self.speed)
        return result


def run_rounds(run: Run, seconds: float, trace: bool) -> None:
    """Repeat whole rounds until another one would overrun ``seconds``."""
    min_rounds = 4 if trace else 3
    started = time.perf_counter()
    while True:
        run.round(traced=trace and len(run.rounds) % 2 == 0)
        elapsed = time.perf_counter() - started
        if len(run.rounds) >= min_rounds and elapsed * (1 + 1 / len(run.rounds)) > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values) -> float:
    return float(statistics.fmean(values))


def _scaled(rounds, name) -> list:
    """Pass times of one stage at the reference host speed."""
    return [t * REF_PROBE_MS / v for r in rounds for t, v in zip(r.stage[name], r.speed[name])]


def _round_latencies(rnd: Round, scale: bool) -> np.ndarray:
    return np.concatenate([np.asarray(b) * (REF_PROBE_MS / v if scale else 1.0) for b, v in rnd.bursts])


def end_to_end_metrics(run: Run) -> dict:
    """Run-level figures at the reference host speed; see the README for why."""
    rounds = [r for r in run.rounds if not r.traced]
    last = rounds[-1].outputs
    n_users = last["reports"]["itals"].n_users

    def latency(q):
        return _mean(np.percentile(_round_latencies(r, True), q) for r in rounds) * 1e3

    metrics = {
        "setup_s": (float(statistics.median(_scaled(rounds, "setup"))), "s"),
        "train_s": (_mean(_scaled(rounds, "train")), "s"),
        "baseline_s": (_mean(_scaled(rounds, "ials")) + _mean(_scaled(rounds, "ica")), "s"),
        "eval_users_per_s": (n_users / _mean(_scaled(rounds, "rank_itals")), "users/s"),
        "recommend_p50_ms": (latency(50), "ms"),
        "recommend_p99_ms": (latency(99), "ms"),
    }
    for label, name in (("itals", "recall_at_20"), ("ials", "recall_at_20_ials"), ("ica", "recall_at_20_ica")):
        metrics[name] = (last["reports"][label].at(TOP_N)[0], "ratio")
    return metrics


def unscaled_times(run: Run) -> dict:
    """Plain wall-clock means of the timed stages, for the diagnostic line."""
    rounds = [r for r in run.rounds if not r.traced]
    out = {f"{name}_s": _mean(t for r in rounds for t in r.stage[name]) for name in rounds[0].stage}
    out["recommend_p50_ms"] = _mean(np.percentile(_round_latencies(r, False), 50) for r in rounds) * 1e3
    out["probe_ms"] = _mean(v for r in rounds for vs in r.speed.values() for v in vs)
    return {k: round(v, 5) for k, v in out.items()}


def per_layer_metrics(run: Run) -> dict:
    traced = [r for r in run.rounds if r.traced]
    plain = [r for r in run.rounds if not r.traced]
    tracer = run.tracer
    last = run.rounds[-1].outputs  # every round sees the same data
    prep, cfg = last["prep"], run.config

    def span_mean(name):
        return _mean(d for _, d in tracer.durations(name))

    def round_sum(name):
        per_round: dict = {}
        for rnd, d in tracer.durations(name):
            per_round[rnd] = per_round.get(rnd, 0.0) + d
        return _mean(per_round.values())

    def axis_mean(role):
        return _mean(t for r in traced for (e, ro, t) in r.axis_times if ro == role and e > 0)

    first_epoch = _mean(sum(t for (e, _, t) in r.axis_times if e == 0) for r in traced)
    epochs = [
        sum(t for (e, _, t) in r.axis_times if e == ep) for r in traced for ep in range(1, cfg.epochs)
    ]
    epoch_s = float(statistics.median(epochs))
    obs = prep.obs3
    k = cfg.features
    flop = obs.ndim * k * k * obs.n_nonzero + k**3 / 3 * sum(obs.shape.dims)
    metrics = {
        "events.ingest_s": (span_mean("events.ingest"), "s"),
        "events.n_events": (len(prep.log), "count"),
        "context.extract_s": (span_mean("context.extract"), "s"),
        "context.n_pairs": (sum(len(p) for p in prep.states), "count"),
        "context.request_s": (span_mean("context.request"), "s"),
        "tensor.build_s": (round_sum("tensor.build"), "s"),
        "tensor.n_plus": (obs.n_nonzero, "count"),
        "solver.first_epoch_s": (first_epoch, "s"),
        "solver.epoch_s": (epoch_s, "s"),
        "solver.axis_user_s": (axis_mean("user"), "s"),
        "solver.axis_item_s": (axis_mean("item"), "s"),
        "solver.axis_context_s": (axis_mean("context"), "s"),
        "solver.epoch_flop": (flop, "flop"),
        "solver.gflop_per_s": (flop / epoch_s / 1e9, "Gflop/s"),
        "baseline.ials_s": (span_mean("baseline.ials"), "s"),
        "baseline.ica_s": (span_mean("baseline.ica"), "s"),
        "baseline.ica_models": (sum(s is not None for s in last["ica"].submodels), "count"),
        "evaluation.rank_itals_s": (span_mean("evaluation.rank_itals"), "s"),
        "evaluation.rank_ials_s": (span_mean("evaluation.rank_ials"), "s"),
        "evaluation.rank_ica_s": (span_mean("evaluation.rank_ica"), "s"),
        "evaluation.n_users": (last["reports"]["itals"].n_users, "count"),
        "evaluation.recommend_calls": (sum(len(b) for r in run.rounds for b, _ in r.bursts), "count"),
        "persistence.save_s": (span_mean("persistence.save"), "s"),
        "persistence.load_s": (span_mean("persistence.load"), "s"),
        "persistence.model_bytes": (run.model_path.stat().st_size, "bytes"),
    }
    for layer, per_round in sorted(run.tracer.self_times().items()):
        metrics[f"{layer}.self_s"] = (_mean(per_round.values()), "s")
    overhead = _mean(r.wall for r in traced) / _mean(r.wall for r in plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def run_checks(run: Run, trace: bool) -> list:
    """Every output check on the last round (and the traced snapshots); returns failures."""
    wl = run.wl
    rng = np.random.default_rng([run.seed, 2])
    out = run.rounds[-1].outputs
    prep, model = out["prep"], out["model"]
    test_users = np.unique(prep.test.users)
    seen_rows = [run.seen.get(int(u), np.empty(0, dtype=np.int64)) for u in test_users]
    relevant = np.zeros((len(test_users), prep.log.n_items), dtype=bool)
    relevant[np.searchsorted(test_users, prep.test.users), prep.test.items] = True

    def rankings():
        models = (("itals", model, prep.requests), ("ials", out["ials"], None), ("ica", out["ica"], prep.requests))
        for label, m, req in models:
            scores = checks.dense_scores(m, test_users, req)
            checks.check_report(out["reports"][label], scores, seen_rows, relevant, TOP_N, label)

    def topn():
        loaded = out["loaded"]
        for user, states, ranked in out["samples"]:
            row = checks.dense_scores(loaded, np.array([user]), {user: states})[0]
            checks.check_topn(ranked, row, run.seen.get(user, np.empty(0, dtype=np.int64)), TOP_N)

    def context():
        if wl.context == "timeband":
            checks.check_timeband_states(rng, prep.events3, prep.states, SEASON, BANDS, 500)
            checks.check_timeband_requests(rng, prep.test, prep.requests, SEASON, BANDS, 100)
        else:
            args = (prep.item_cat, wl.depth, wl.decay, prep.cold)
            checks.check_sequence_states(rng, prep.train, prep.events3, prep.states, *args, 300)
            checks.check_sequence_requests(rng, prep.train, prep.requests, *args, 100)

    def tensors():
        keys, rel = checks.cell_keys(prep.events3.users, prep.events3.items, prep.states)
        checks.check_tensor(prep.obs3, keys, rel, SCHEME.base, SCHEME.alpha)
        keys, rel = checks.cell_keys(prep.train.users, prep.train.items)
        checks.check_tensor(prep.obs2, keys, rel, SCHEME.base, SCHEME.alpha)

    def repeatable():
        itals = [r.outputs["reports"]["itals"].at(TOP_N) for r in run.rounds] + [out["itals_again"]]
        checks._require(len(set(itals)) == 1, f"iTALS recall/precision differ between passes: {itals}")

    todo = [
        ("ingest", lambda: checks.check_ingest(run.gen, prep.log)),
        ("context", context),
        ("tensor", tensors),
        ("normal_equations", lambda: checks.check_normal_equations(model.factors, prep.obs3, 2, REG)),
        ("grams", lambda: checks.check_grams(model)),
        ("rankings", rankings),
        ("topn", topn),
        ("reload", lambda: checks.check_reload(model, out["loaded"])),
        ("repeatable", repeatable),
    ]
    if trace:
        snaps = [r for r in run.rounds if r.traced][-1].snapshots
        todo.append(("objective", lambda: checks.check_objective(snaps, prep.obs3, REG)))
    if wl.recall_gate:
        reports = out["reports"]
        recalls = [reports[k].at(TOP_N)[0] for k in ("itals", "ials", "ica")]
        todo.append(("recall_gate", lambda: checks.check_gate(*recalls)))
    failures = []
    for name, check in todo:
        try:
            check()
        except Exception as exc:  # a malformed output fails its check, the others still run
            failures.append(f"{name}: {exc!r}")
    return failures
