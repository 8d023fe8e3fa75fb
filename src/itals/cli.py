"""Command-line front end: prepare, train, eval, recommend.

Logs go to stderr (level from ITALS_LOG), machine-readable output to
stdout or to files.  Exit code 1 is an error while running (a missing
required option or file, a bad config line or key among them), 2 a usage
error (an unknown flag, a bad flag or config value).

``build_parser`` is the one option table.  A ``--config`` file's
``key = value`` line acts as the long flag ``--key`` (``-`` and ``_``
alike) given before the command-line flags, so flags win and the flag's
type, choices and dest apply; a switch takes yes or no.  A key that only
other subcommands take is ignored, so one file serves ``train`` and
``eval``; a key no subcommand takes is an error.

``--context`` parses into one context spec (``context.TimeBandContext``
or ``context.SequenceContext``), the one definition of its training and
request rules: ``train`` builds the tensor from ``spec.training``, and
``eval`` and ``recommend --at`` ask in ``spec.requests``, a
``context.RequestPairs`` whose columns ``eval`` ranks from with no
per-user step.  They check the
spec the way they check the log's user and item ids: on the training log
it must give the model's context axis role and state names (``band-i``,
or the categories and then ``__no_prior__``) in order, else they exit 1.
Model files do not store band boundaries, UTC offset, season length,
depth or decay: those go unchecked.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baseline import fit_ica
from .context import ContextError, SeasonSpec, SequenceContext, TimeBandContext
from .events import (
    EventLog,
    ingest_events,
    ingest_ratings,
    read_category_rows,
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
from .persistence import load_model, save_model
from .solver import REG_MODES, SolverError, TrainConfig, fit
from .tensor import TensorShape, WeightingScheme, build_tensor

log = logging.getLogger("itals")

# the package's input and state errors: all but SolverError are ValueErrors
CliError = (ValueError, OSError, SolverError)


def _setup_logging() -> None:
    level = os.environ.get("ITALS_LOG", "info").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


_YES, _NO = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _config_flags(path, command: argparse.ArgumentParser, known: set) -> list:
    """The config lines as ``command``'s flags; ``known`` holds every subcommand's flags."""
    flags = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None:
            if flag not in known:
                raise ValueError(f"{path}:{line_no}: unknown option {key!r}")
        elif action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() in _YES:
            flags.append(flag)
        elif value.lower() not in _NO:
            command.error(f"argument {flag}: expected yes or no, got {value!r}")
    return flags


class _Commands(argparse._SubParsersAction):
    """Subcommands whose help shows the defaults and that parse --config ahead of the flags."""

    def add_parser(self, name, **kwargs):
        kwargs["formatter_class"] = argparse.ArgumentDefaultsHelpFormatter
        return super().add_parser(name, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.config:
            command = self.choices[values[0]]
            known = {flag for p in self.choices.values() for flag in p._option_string_actions}
            values = [values[0], *_config_flags(namespace.config, command, known), *values[1:]]
        super().__call__(parser, namespace, values, option_string)


# ---------------------------------------------------------------------------
# the context axis: none | timeband:uniform:B | timeband:b0,b1,... | sequence:C[:decay]

def _categories(args, train: EventLog) -> tuple:
    """(items, categories, names): the rows of --category-map, or else of the log's category column.

    The spec looks up the items of the training events only, so a
    vocabulary item seen only outside a date split needs no category.
    """
    if args.category_map is not None:
        return read_category_rows(args.category_map, train.item_ids)
    if train.categories is None:
        raise ContextError("sequence context needs --category-map or a category column")
    known = train.categories >= 0
    return train.items[known], train.categories[known], train.category_ids


def _resolve_context(args, train: EventLog) -> TimeBandContext | SequenceContext | None:
    """The context spec --context describes on the training log; None for --context none."""
    kind, *parts = args.context.split(":")
    if kind == "none":
        return None
    if kind == "timeband":
        if len(parts) == 2 and parts[0] == "uniform":
            season = SeasonSpec.uniform(args.season_length, int(parts[1]), args.utc_offset)
        elif len(parts) == 1:
            bounds = [int(b) for b in parts[0].split(",") if b]
            season = SeasonSpec(args.season_length, bounds, args.utc_offset)
        else:
            raise ValueError(f"bad timeband context: {args.context!r}")
        return TimeBandContext(season)
    if kind == "sequence":
        if len(parts) not in (1, 2):
            raise ValueError(f"bad sequence context: {args.context!r}")
        decay = float(parts[1]) if len(parts) == 2 else 1.0
        return SequenceContext.from_rows(int(parts[0]), decay, *_categories(args, train), train.item_ids)
    raise ValueError(f"unknown context kind: {args.context!r}")


def _from_args(cls, args):
    """A TrainConfig or WeightingScheme from the values parsed under its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _load_train_events(args) -> EventLog:
    events = ingest_events(args.input)
    if args.split_ts is not None:
        events = events.select(events.timestamps < args.split_ts)
    return events


def _id_map(model, axis: int):
    return model.id_maps[axis] if model.id_maps else None


def _unlike(what: str, model_ids: list, ids: list, source: str) -> EvalError:
    """The error for ``source`` numbering ``what``s unlike the model, at the first difference."""
    j = next(
        (j for j, (a, b) in enumerate(zip(model_ids, ids)) if a != b), min(len(model_ids), len(ids))
    )
    ours, theirs = (repr(seq[j]) if j < len(seq) else "nothing" for seq in (model_ids, ids))
    return EvalError(
        f"{source} numbers {what}s unlike the model: {what} {j} is {ours} in the model, "
        f"{theirs} in {source}"
    )


def _check_log_ids(model, events: EventLog) -> None:
    """The model's user and item id maps must be prefixes of the log's.

    Ids are numbered in first-seen order, so a log with lines appended
    after the training log keeps every model index; a reordered one does not.
    """
    shape = model.shape
    for name, axis, log_ids in (
        ("user", shape.user_axis, events.user_ids), ("item", shape.item_axis, events.item_ids)
    ):
        ids = _id_map(model, axis)
        if ids is not None and log_ids[: len(ids)] != ids:
            raise _unlike(name, ids, log_ids, "the log")


def _model_context(model, args, train: EventLog) -> TimeBandContext | SequenceContext:
    """The context spec of --context on ``train``, checked against the model's context axis.

    A model saved without id maps names no states: only their count is compared.
    """
    ctx = _resolve_context(args, train)
    if ctx is None:
        raise EvalError("the model has a context axis; pass --context to describe it")
    axis = model.shape.context_axes[0]
    role, ids, names = model.shape.axis_roles[axis], _id_map(model, axis), ctx.names
    if ids is None:
        ids, names = list(range(model.shape.dims[axis])), list(range(len(names)))
    if names != ids:
        raise _unlike(f"{role} state", ids, names, "--context")
    if ctx.role != role:
        raise EvalError(f"--context describes a {ctx.role} axis, the model's is {role}")
    return ctx


# ---------------------------------------------------------------------------
# commands

def cmd_prepare(args) -> int:
    if args.format == "ratings":
        ratings = ingest_ratings(args.input)
        events = implicitize(ratings, args.threshold)
        log.info("kept %d of %d ratings at threshold %g", len(events), len(ratings), args.threshold)
    else:
        events = ingest_events(args.input)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_train(args) -> int:
    events = _load_train_events(args)
    if len(events) == 0:
        raise SolverError("no training events (check --split-ts)")
    id_maps = [events.user_ids, events.item_ids]
    ctx = _resolve_context(args, events)
    if ctx is None:
        ordered, states, roles = events, None, ("user", "item")
    else:
        (ordered, states), roles = ctx.training(events), ("user", "item", ctx.role)
        id_maps.append(ctx.names)
    shape = TensorShape([len(ids) for ids in id_maps], roles)
    obs = build_tensor(ordered, states, shape, _from_args(WeightingScheme, args))
    config = _from_args(TrainConfig, args)
    log.info(
        "training %s: %d cells, dims %s, K=%d, E=%d",
        args.algo, obs.n_nonzero, obs.shape.dims, config.features, config.epochs,
    )
    started = time.perf_counter()
    model = (fit_ica if args.algo == "ica" else fit)(obs, config, id_maps)
    elapsed = time.perf_counter() - started

    save_model(model, args.output)
    print(
        json.dumps(
            {
                "model": str(Path(args.output)),
                "algo": args.algo,
                "dims": list(obs.shape.dims),
                "n_nonzero": obs.n_nonzero,
                "features": config.features,
                "epochs": config.epochs,
                "train_seconds": round(elapsed, 3),
            }
        )
    )
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    events = ingest_events(args.input)
    _check_log_ids(model, events)
    train, test = split_by_date(events, SplitSpec(args.split_ts, args.horizon))
    if len(test) == 0:
        raise EvalError("empty test set; nothing to evaluate")
    n_max, n_items = args.topn, model.shape.dims[model.shape.item_axis]
    started = time.perf_counter()
    requests = None
    if model.shape.context_axes:  # a model without one ignores --context
        requests = _model_context(model, args, train).requests(train, test)
    ranking = time.perf_counter()
    report = recall_precision_at(
        model,
        test,
        n_max,
        request_states=requests,
        # an item only the log knows has no score to exclude
        seen=train.select(train.items < n_items) if args.exclude_seen else None,
        skip_unknown_users=args.skip_unknown_users,
        average=args.average,
    )
    wall = time.perf_counter() - started
    # the ranking alone, without the request contexts
    rank = time.perf_counter() - ranking

    # the fields that label both the per-N records and the summary
    label = {
        "dataset": args.dataset or Path(args.input).stem,
        "model": Path(args.model).name,
        "K": model.config.features,
    }
    prefix = args.out_prefix
    if prefix:
        emit_pr_curve(report, f"{prefix}.pr.csv")
        with open(f"{prefix}.metrics.jsonl", "w", encoding="utf-8") as fh:
            for n in range(1, n_max + 1):
                r, p = report.at(n)
                record = {**label, "N": n, "recall": r, "precision": p, "wall_time": round(wall, 3)}
                fh.write(json.dumps(record) + "\n")
        log.info("wrote %s.pr.csv and %s.metrics.jsonl", prefix, prefix)

    headline_n = min(20, n_max)
    r20, p20 = report.at(headline_n)
    print(
        json.dumps(
            {
                **label,
                "users": report.n_users,
                "skipped_users": report.n_skipped,
                f"recall@{headline_n}": r20,
                f"precision@{headline_n}": p20,
                "n_max": n_max,
                "wall_time": round(wall, 3),
                "rank_seconds": round(rank, 6),
                "users_per_second": round(report.n_users / rank, 1),
            }
        )
    )
    return 0


def cmd_recommend(args) -> int:
    model = load_model(args.model)
    # a model with a user id map is asked by id, one without by dense index
    user_ids = _id_map(model, model.shape.user_axis)
    if user_ids is None:
        try:
            user = int(args.user)
        except ValueError:
            raise EvalError(f"unknown user id {args.user!r}") from None
    elif args.user in user_ids:
        user = user_ids.index(args.user)
    elif args.allow_cold_user:
        user = -1  # scored from a zero vector
    else:
        raise EvalError(f"unknown user id {args.user!r}")

    states = None
    if model.shape.context_axes:
        if args.state is not None:
            states = args.state
        elif args.at is not None:
            if not args.context.startswith("timeband"):
                raise EvalError("--at needs a timeband --context")
            if not 0 <= args.at < 2**63:  # the log reader's timestamp rule
                raise EvalError(f"--at must be a timestamp in [0, 2**63), got {args.at}")
            # the request is one event at --at; time bands need no other log
            request = EventLog(*(np.array([v], np.int64) for v in (0, 0, args.at)))
            (states,) = _model_context(model, args, request).requests(request, request).values()
        else:
            raise EvalError("context model: pass --state or --at with --context")

    exclude = None
    if args.exclude_seen:
        if args.input is None:
            raise ValueError("--exclude-seen needs --input")
        seen = _load_train_events(args)
        _check_log_ids(model, seen)
        if user_ids is not None:
            # the log's ids extend the model's, so it may number a cold user too
            user = seen.user_ids.index(args.user) if args.user in seen.user_ids else -1
        exclude = seen.items[seen.users == user]
        exclude = exclude[exclude < model.shape.dims[model.shape.item_axis]]  # see cmd_eval

    ranked = recommend_topn(
        model, user, states, args.topn, exclude_items=exclude, allow_unknown=args.allow_cold_user
    )
    item_ids = _id_map(model, model.shape.item_axis)
    for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), 1):
        name = item_ids[item] if item_ids else str(item)
        print(f"{rank}\t{name}\t{score:.10g}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The one option table: each flag's name, type, default and choices."""
    parser = argparse.ArgumentParser(
        prog="itals", description="Context-aware implicit-feedback tensor factorization"
    )
    parser.add_argument(
        "--config",
        help="key = value lines; a key is a long flag name and acts as that flag given "
        "first, a key of another subcommand is ignored and an unknown key is an error",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)

    # flags stored to TrainConfig and WeightingScheme fields take the fields' defaults
    train_opts = argparse.ArgumentParser(add_help=False)
    train_opts.set_defaults(
        **{f.name: f.default for cls in (TrainConfig, WeightingScheme) for f in fields(cls)}
    )
    add = train_opts.add_argument
    add("--k", dest="features", type=int, help="feature count")
    add("--epochs", type=int, help="training epochs")
    add("--lambda", dest="reg", type=float, help="regularization base")
    add("--reg-mode", choices=REG_MODES, help="regularization scaling")
    add("--alpha", type=float, help="per-event weight increment")
    add("--weight-base", dest="base", type=float, help="weight offset")
    add("--seed", type=int, help="RNG seed")
    add("--init-scale", type=float, help="init range; None: 1/sqrt(K)")

    ctx_opts = argparse.ArgumentParser(add_help=False)
    add = ctx_opts.add_argument
    add(
        "--context", default="none",
        help="none | timeband:uniform:B | timeband:b0,b1,... | sequence:C[:decay]",
    )
    add("--season-length", type=int, default=86_400, help="season in seconds")
    add("--utc-offset", type=int, default=0, help="fixed timestamp shift in seconds")
    add("--category-map", help="TSV of item<TAB>category for sequence context")

    p = sub.add_parser("prepare", help="canonicalize events or implicitize ratings")
    p.add_argument("--input", help="raw TSV file")
    p.add_argument("--format", choices=("events", "ratings"), default="events", help="input layout")
    p.add_argument("--threshold", type=float, default=4.5, help="min rating kept")
    p.add_argument("--out-dir", help="output directory")
    p.set_defaults(func=cmd_prepare, required=("input", "out_dir"))

    p = sub.add_parser("train", parents=[train_opts, ctx_opts], help="fit and save a model")
    p.add_argument("--input", help="event TSV")
    p.add_argument("--output", help="model file to write")
    p.add_argument(
        "--algo", choices=("itals", "ica"), default="itals",
        help="factorization or composite baseline",
    )
    p.add_argument("--split-ts", type=int, help="train only on events before this timestamp")
    p.set_defaults(func=cmd_train, required=("input", "output"))

    p = sub.add_parser("eval", parents=[ctx_opts], help="ranking metrics on a date split")
    p.add_argument("--model", help="model file")
    p.add_argument("--input", help="event TSV (full log; split decides train/test)")
    p.add_argument("--split-ts", type=int, help="test events start here")
    p.add_argument("--horizon", type=int, help="test window length in seconds")
    p.add_argument("--topn", type=int, default=50, help="evaluate N = 1..topn")
    p.add_argument("--exclude-seen", action="store_true")
    p.add_argument("--skip-unknown-users", action="store_true")
    p.add_argument(
        "--average", choices=("macro", "micro"), default="macro", help="mean over users or pooled"
    )
    p.add_argument("--out-prefix", help="write <prefix>.pr.csv and <prefix>.metrics.jsonl")
    p.add_argument("--dataset", help="dataset label for the metric records")
    p.set_defaults(func=cmd_eval, required=("model", "input", "split_ts"))

    p = sub.add_parser("recommend", parents=[ctx_opts], help="top-N items for one user")
    p.add_argument("--model", help="model file")
    p.add_argument("--user", help="user id (dense index for a model without id maps)")
    p.add_argument("--state", type=int, help="context state id")
    p.add_argument("--at", type=int, help="request timestamp (timeband context)")
    p.add_argument("--topn", type=int, default=10, help="list length")
    p.add_argument("--exclude-seen", action="store_true")
    p.add_argument("--input", help="event TSV for --exclude-seen")
    p.add_argument("--split-ts", type=int, help="seen items come from events before this")
    p.add_argument("--allow-cold-user", action="store_true")
    p.set_defaults(func=cmd_recommend, required=("model", "user"))

    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        for dest in args.required:
            if getattr(args, dest) is None:
                raise ValueError(f"missing required option --{dest.replace('_', '-')}")
        return args.func(args)
    except CliError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
