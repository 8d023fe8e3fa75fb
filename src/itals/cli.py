"""Command-line front end: prepare, train, eval, recommend, bench.

Logs go to stderr (level from ITALS_LOG), machine-readable output goes
to stdout or to files, and the exit code is 0 exactly when no error
occurred.  Options may come from a key=value config file; flags win.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .baseline import CompositeModel, fit_ica
from .context import (
    ContextError,
    SeasonSpec,
    SequenceSpec,
    assign_time_band,
    last_category_states,
    sequential_context,
    time_band_states,
)
from .events import (
    EventLog,
    ParseError,
    ingest_events,
    ingest_ratings,
    read_category_map,
    write_events_tsv,
    write_id_map,
)
from .evaluation import (
    EvalError,
    SplitSpec,
    emit_pr_curve,
    implicitize,
    recall_precision_at,
    recommend_topn,
    split_by_date,
)
from .persistence import PersistenceError, load_model, save_model
from .solver import SolverError, TrainConfig, fit
from .tensor import TensorBuildError, TensorShape, WeightingScheme, build_tensor

log = logging.getLogger("itals")

CliError = (
    ParseError,
    ContextError,
    TensorBuildError,
    SolverError,
    EvalError,
    PersistenceError,
    ValueError,
    OSError,
)


def _setup_logging() -> None:
    level = os.environ.get("ITALS_LOG", "info").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _limit_threads(n) -> None:
    if n is None:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=int(n))
    except ImportError:
        log.warning("threadpoolctl not installed; --threads ignored")


def load_config_file(path) -> dict:
    """Flat key = value config; '#' comments and blank lines skipped."""
    values: dict = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip().strip('"')
    return values


class Options:
    """Flag values backed by the config file: flags win, then config, then default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = vars(args)
        self._config = config

    def get(self, key: str, cast=str, default=None):
        value = self._args.get(key)
        if value is None:
            value = self._config.get(key)
        if value is None:
            return default
        if cast is bool and isinstance(value, str):
            return value.lower() in ("1", "true", "yes", "on")
        return cast(value)

    def require(self, key: str, cast=str):
        value = self.get(key, cast)
        if value is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return value

    def path(self, key: str, required: bool = False):
        value = self.require(key) if required else self.get(key)
        if value is None:
            return None
        p = Path(value)
        if not p.exists():
            raise FileNotFoundError(f"--{key.replace('_', '-')}: no such file: {p}")
        return p


def _int_list(text: str) -> list:
    return [int(x) for x in str(text).split(",") if x != ""]


# ---------------------------------------------------------------------------
# context argument grammar: none | timeband:uniform:B | timeband:b0,b1,...
# | sequence:C[:decay]

def parse_context_arg(text: str, season_length: int, utc_offset: int) -> dict:
    parts = str(text).split(":")
    kind = parts[0]
    if kind == "none":
        return {"kind": "none"}
    if kind == "timeband":
        if len(parts) == 3 and parts[1] == "uniform":
            spec = SeasonSpec.uniform(season_length, int(parts[2]), utc_offset)
        elif len(parts) == 2:
            spec = SeasonSpec(season_length, _int_list(parts[1]), utc_offset)
        else:
            raise ValueError(f"bad timeband context: {text!r}")
        return {"kind": "timeband", "season": spec}
    if kind == "sequence":
        if len(parts) not in (2, 3):
            raise ValueError(f"bad sequence context: {text!r}")
        depth = int(parts[1])
        decay = float(parts[2]) if len(parts) == 3 else 1.0
        return {"kind": "sequence", "depth": depth, "decay": decay}
    raise ValueError(f"unknown context kind: {text!r}")


def _context_arg(opts: Options) -> dict:
    return parse_context_arg(
        opts.get("context", str, "none"),
        opts.get("season_length", int, 86_400),
        opts.get("utc_offset", int, 0),
    )


def _sequence_spec(ctx: dict, opts: Options, events: EventLog):
    """(SequenceSpec, item -> category index, category names).

    The categories are states 0..C-1 and the cold state is C.  Only items
    that occur in ``events`` need a category: a vocabulary item seen only
    outside a date split is never looked up.
    """
    map_path = opts.path("category_map")
    if map_path is not None:
        mapping, names = read_category_map(map_path, events.item_ids)
    elif events.categories is not None:
        mapping = {}
        for item, cat in zip(events.items, events.categories):
            if cat >= 0:
                mapping[int(item)] = int(cat)
        names = list(events.category_ids)
    else:
        raise ContextError("sequence context needs --category-map or a category column")
    missing = set(np.unique(events.items).tolist()) - set(mapping)
    if missing:
        item = events.item_ids[min(missing)]
        raise ContextError(f"no category for item {item!r} ({len(missing)} total)")
    spec = SequenceSpec(
        history_depth=ctx["depth"],
        decay=ctx["decay"],
        category_count=len(names) + 1,
        cold_state=len(names),
    )
    return spec, mapping, names


def _build_training_tensor(events: EventLog, ctx: dict, opts: Options):
    """Tensor plus the per-axis id maps."""
    scheme = WeightingScheme(
        base=opts.get("weight_base", float, 1.0), alpha=opts.get("alpha", float, 100.0)
    )
    n_users, n_items = len(events.user_ids), len(events.item_ids)
    if ctx["kind"] == "none":
        shape = TensorShape((n_users, n_items), ("user", "item"))
        obs = build_tensor(events, None, shape, scheme)
        return obs, [events.user_ids, events.item_ids]

    if ctx["kind"] == "timeband":
        spec = ctx["season"]
        states = time_band_states(events.timestamps, spec)
        shape = TensorShape((n_users, n_items, spec.n_bands), ("user", "item", "timeband"))
        obs = build_tensor(events, states, shape, scheme)
        band_names = [f"band-{i}" for i in range(spec.n_bands)]
        return obs, [events.user_ids, events.item_ids, band_names]

    spec, mapping, names = _sequence_spec(ctx, opts, events)
    ordered = events.sorted_by_user_time()
    states = sequential_context(ordered, mapping, spec)
    shape = TensorShape(
        (n_users, n_items, spec.category_count), ("user", "item", "category")
    )
    obs = build_tensor(ordered, states, shape, scheme)
    ctx_names = list(names) + ["__no_prior__"]
    return obs, [events.user_ids, events.item_ids, ctx_names]


def _train_config(opts: Options) -> TrainConfig:
    return TrainConfig(
        features=opts.get("k", int, 20),
        epochs=opts.get("epochs", int, 10),
        reg=opts.get("reg", float, 0.0),
        reg_mode=opts.get("reg_mode", str, "constant"),
        seed=opts.get("seed", int, 0),
        init_scale=opts.get("init_scale", float),
    )


def _load_train_events(opts: Options) -> EventLog:
    events = ingest_events(opts.path("input", required=True))
    split_ts = opts.get("split_ts", int)
    if split_ts is not None:
        events = events.select(events.timestamps < split_ts)
    return events


# ---------------------------------------------------------------------------
# commands

def cmd_prepare(opts: Options) -> int:
    source = opts.path("input", required=True)
    out_dir = Path(opts.require("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = opts.get("format", str, "events")
    if fmt == "ratings":
        ratings = ingest_ratings(source)
        threshold = opts.get("threshold", float, 4.5)
        events = implicitize(ratings, threshold)
        log.info("kept %d of %d ratings at threshold %g", len(events), len(ratings), threshold)
    elif fmt == "events":
        events = ingest_events(source)
    else:
        raise ValueError(f"unknown --format {fmt!r}")

    events_path = out_dir / "events.tsv"
    write_events_tsv(events, events_path)
    write_id_map(events.user_ids, out_dir / "users.tsv")
    write_id_map(events.item_ids, out_dir / "items.tsv")
    outputs = [str(events_path), str(out_dir / "users.tsv"), str(out_dir / "items.tsv")]
    if events.category_ids is not None:
        write_id_map(events.category_ids, out_dir / "categories.tsv")
        outputs.append(str(out_dir / "categories.tsv"))
    print(
        json.dumps(
            {
                "events": len(events),
                "users": len(events.user_ids),
                "items": len(events.item_ids),
                "outputs": outputs,
            }
        )
    )
    return 0


def cmd_train(opts: Options) -> int:
    events = _load_train_events(opts)
    if len(events) == 0:
        raise SolverError("no training events (check --split-ts)")
    algo = opts.get("algo", str, "itals")
    obs, id_maps = _build_training_tensor(events, _context_arg(opts), opts)
    config = _train_config(opts)
    log.info(
        "training %s: %d cells, dims %s, K=%d, E=%d",
        algo,
        obs.n_nonzero,
        obs.shape.dims,
        config.features,
        config.epochs,
    )
    started = time.perf_counter()
    if algo == "ica":
        if obs.ndim != 3:
            raise SolverError("--algo ica needs a context (3-dimensional tensor)")
        model = fit_ica(obs, config, id_maps)
    elif algo == "itals":
        model = fit(obs, config, id_maps)
    else:
        raise ValueError(f"unknown --algo {algo!r}")
    elapsed = time.perf_counter() - started

    out_path = Path(opts.require("output"))
    save_model(model, out_path)
    print(
        json.dumps(
            {
                "model": str(out_path),
                "algo": algo,
                "dims": list(obs.shape.dims),
                "n_nonzero": obs.n_nonzero,
                "features": config.features,
                "epochs": config.epochs,
                "train_seconds": round(elapsed, 3),
            }
        )
    )
    return 0


def _check_state_count(model, n_states: int) -> None:
    """The --context given must yield as many states as the model was trained on."""
    size = model.shape.dims[model.shape.context_axes[0]]
    if n_states != size:
        raise EvalError(
            f"--context describes {n_states} context states, the model has {size}"
        )


def _request_states(model, ctx: dict, opts: Options, train: EventLog, test: EventLog):
    """{test user: request-time context pairs}, or None for a 2-D model."""
    if model.shape.ndim == 2 and not isinstance(model, CompositeModel):
        return None
    if ctx["kind"] == "timeband":
        spec = ctx["season"]
        _check_state_count(model, spec.n_bands)
        # each user's request context is the band of their first test event
        order = np.lexsort((test.timestamps, test.users))
        users = test.users[order]
        first = order[np.r_[True, users[1:] != users[:-1]]]
        bands = assign_time_band(test.timestamps[first], spec)
        return {u: [(b, 1.0)] for u, b in zip(test.users[first].tolist(), bands.tolist())}
    if ctx["kind"] == "sequence":
        spec, mapping, _ = _sequence_spec(ctx, opts, train)
        _check_state_count(model, spec.category_count)
        per_user = last_category_states(train, mapping, spec)
        cold = [(spec.cold_state, 1.0)]
        return {u: per_user.get(u, cold) for u in np.unique(test.users).tolist()}
    raise EvalError("the model has a context axis; pass --context to describe it")


def cmd_eval(opts: Options) -> int:
    model = load_model(opts.path("model", required=True))
    events = ingest_events(opts.path("input", required=True))
    split = SplitSpec(opts.require("split_ts", int), opts.get("horizon", int))
    train, test = split_by_date(events, split)
    if len(test) == 0:
        raise EvalError("empty test set; nothing to evaluate")
    n_max = opts.get("topn", int, 50)
    started = time.perf_counter()
    report = recall_precision_at(
        model,
        test,
        n_max,
        request_states=_request_states(model, _context_arg(opts), opts, train, test),
        seen=train if opts.get("exclude_seen", bool, False) else None,
        skip_unknown_users=opts.get("skip_unknown_users", bool, False),
        average=opts.get("average", str, "macro"),
    )
    wall = time.perf_counter() - started

    dataset = opts.get("dataset", str, Path(opts.require("input")).stem)
    model_name = opts.get("model_name", str, Path(opts.require("model")).name)
    features = model.config.features
    prefix = opts.get("out_prefix")
    if prefix:
        emit_pr_curve(report, f"{prefix}.pr.csv")
        with open(f"{prefix}.metrics.jsonl", "w", encoding="utf-8") as fh:
            for n in range(1, n_max + 1):
                r, p = report.at(n)
                fh.write(
                    json.dumps(
                        {
                            "dataset": dataset,
                            "model": model_name,
                            "K": features,
                            "N": n,
                            "recall": r,
                            "precision": p,
                            "wall_time": round(wall, 3),
                        }
                    )
                    + "\n"
                )
        log.info("wrote %s.pr.csv and %s.metrics.jsonl", prefix, prefix)

    headline_n = min(20, n_max)
    r20, p20 = report.at(headline_n)
    print(
        json.dumps(
            {
                "dataset": dataset,
                "model": model_name,
                "K": features,
                "users": report.n_users,
                "skipped_users": report.n_skipped,
                f"recall@{headline_n}": r20,
                f"precision@{headline_n}": p20,
                "n_max": n_max,
                "wall_time": round(wall, 3),
            }
        )
    )
    return 0


def cmd_recommend(opts: Options) -> int:
    model = load_model(opts.path("model", required=True))
    user_arg = opts.require("user")
    user_axis = model.shape.user_axis
    user_map = model.id_maps[user_axis] if model.id_maps else None
    if user_map and user_arg in user_map:
        user = user_map.index(user_arg)
    else:
        try:
            user = int(user_arg)
        except ValueError:
            raise EvalError(f"unknown user id {user_arg!r}") from None

    states = None
    if model.shape.ndim >= 3 or isinstance(model, CompositeModel):
        state = opts.get("state", int)
        at_ts = opts.get("at", int)
        if state is not None:
            states = int(state)
        elif at_ts is not None:
            ctx = _context_arg(opts)
            if ctx["kind"] != "timeband":
                raise EvalError("--at needs a timeband --context")
            _check_state_count(model, ctx["season"].n_bands)
            states = int(assign_time_band(at_ts, ctx["season"]))
        else:
            raise EvalError("context model: pass --state or --at with --context")

    exclude = None
    if opts.get("exclude_seen", bool, False):
        seen_log = _load_train_events(opts)
        exclude = np.unique(seen_log.items[seen_log.users == user])

    ranked = recommend_topn(
        model,
        user,
        states,
        opts.get("topn", int, 10),
        exclude_items=exclude,
        allow_unknown=opts.get("allow_cold_user", bool, False),
    )
    item_map = model.id_maps[model.shape.item_axis] if model.id_maps else None
    for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), 1):
        name = item_map[item] if item_map else str(item)
        print(f"{rank}\t{name}\t{score:.10g}")
    return 0


def cmd_bench(opts: Options) -> int:
    result = bench_mod.run_benchmark(
        k_grid=opts.get("k_grid", _int_list, list(bench_mod.DEFAULT_K_GRID)),
        nplus_grid=opts.get("nplus_grid", _int_list, list(bench_mod.DEFAULT_NPLUS_GRID)),
        dims=tuple(opts.get("dims", _int_list, list(bench_mod.DEFAULT_DIMS))),
        k_fixed=opts.get("k_fixed", int, 20),
        nplus_fixed=opts.get("nplus_fixed", int, 50_000),
        repeats=opts.get("repeats", int, 3),
        reg=opts.get("reg", float, 0.1),
        seed=opts.get("seed", int, 0),
    )
    if result.nplus_fit:
        log.info(
            "epoch time vs cells: slope %.3g s/cell, intercept %.3g s, R2 %.4f",
            result.nplus_fit["slope"],
            result.nplus_fit["intercept"],
            result.nplus_fit["r2"],
        )
    if result.k_fit:
        log.info(
            "epoch time vs K: exponent %.2f (log-log R2 %.4f)",
            result.k_fit["exponent"],
            result.k_fit["r2"],
        )
    csv_text = bench_mod.benchmark_csv(result)
    output = opts.get("output")
    if output:
        Path(output).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itals",
        description="Context-aware implicit-feedback tensor factorization",
    )
    parser.add_argument("--config", help="key = value config file; flags override it")
    parser.add_argument("--threads", type=int, help="cap BLAS worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    common_train = argparse.ArgumentParser(add_help=False)
    common_train.add_argument("--k", type=int, help="feature count (default 20)")
    common_train.add_argument("--epochs", type=int, help="training epochs (default 10)")
    common_train.add_argument(
        "--lambda", dest="reg", type=float, help="regularization base (default 0)"
    )
    common_train.add_argument(
        "--reg-mode", choices=("constant", "support"), help="regularization scaling"
    )
    common_train.add_argument("--alpha", type=float, help="per-event weight increment (default 100)")
    common_train.add_argument("--weight-base", type=float, help="weight offset (default 1)")
    common_train.add_argument("--seed", type=int, help="RNG seed (default 0)")
    common_train.add_argument("--init-scale", type=float, help="init range (default 1/sqrt(K))")

    common_ctx = argparse.ArgumentParser(add_help=False)
    common_ctx.add_argument(
        "--context",
        help="none | timeband:uniform:B | timeband:b0,b1,... | sequence:C[:decay]",
    )
    common_ctx.add_argument("--season-length", type=int, help="season in seconds (default 86400)")
    common_ctx.add_argument("--utc-offset", type=int, help="fixed timestamp shift in seconds")
    common_ctx.add_argument("--category-map", help="TSV of item<TAB>category for sequence context")

    p = sub.add_parser("prepare", help="canonicalize events or implicitize ratings")
    p.add_argument("--input", help="raw TSV file")
    p.add_argument("--format", choices=("events", "ratings"))
    p.add_argument("--threshold", type=float, help="min rating kept (default 4.5)")
    p.add_argument("--out-dir", help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[common_train, common_ctx], help="fit and save a model")
    p.add_argument("--input", help="event TSV")
    p.add_argument("--output", help="model file to write")
    p.add_argument("--algo", choices=("itals", "ica"), help="factorization or composite baseline")
    p.add_argument("--split-ts", type=int, help="train only on events before this timestamp")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common_ctx], help="ranking metrics on a date split")
    p.add_argument("--model", help="model file")
    p.add_argument("--input", help="event TSV (full log; split decides train/test)")
    p.add_argument("--split-ts", type=int, help="test events start here")
    p.add_argument("--horizon", type=int, help="test window length in seconds")
    p.add_argument("--topn", type=int, help="evaluate N = 1..topn (default 50)")
    p.add_argument("--exclude-seen", action="store_const", const=True, default=None)
    p.add_argument("--skip-unknown-users", action="store_const", const=True, default=None)
    p.add_argument("--average", choices=("macro", "micro"))
    p.add_argument("--out-prefix", help="write <prefix>.pr.csv and <prefix>.metrics.jsonl")
    p.add_argument("--dataset", help="dataset label for the metric records")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("recommend", parents=[common_ctx], help="top-N items for one user")
    p.add_argument("--model", help="model file")
    p.add_argument("--user", help="original user id (or dense index)")
    p.add_argument("--state", type=int, help="context state id")
    p.add_argument("--at", type=int, help="request timestamp (timeband context)")
    p.add_argument("--topn", type=int, help="list length (default 10)")
    p.add_argument("--exclude-seen", action="store_const", const=True, default=None)
    p.add_argument("--input", help="event TSV for --exclude-seen")
    p.add_argument("--split-ts", type=int, help="seen items come from events before this")
    p.add_argument("--allow-cold-user", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("bench", help="epoch-time scaling benchmark on synthetic tensors")
    p.add_argument("--k-grid", help="comma list of feature counts")
    p.add_argument("--nplus-grid", help="comma list of stored-cell counts")
    p.add_argument("--dims", help="tensor sizes, e.g. 500,500,10")
    p.add_argument("--k-fixed", type=int, help="K for the cell sweep (default 20)")
    p.add_argument("--nplus-fixed", type=int, help="cells for the K sweep (default 50000)")
    p.add_argument("--repeats", type=int, help="timed epochs per point (default 3)")
    p.add_argument("--lambda", dest="reg", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config_file(args.config) if args.config else {}
        opts = Options(args, config)
        _limit_threads(opts.get("threads", int))
        return args.func(opts)
    except CliError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
