"""Output checks computed apart from the program.

Every check recomputes what a layer produced from the generated events
or from the model's raw factors, with plain numpy written here, and
raises CheckError on a mismatch.  Rankings are compared with a tolerance
for near-ties only: scores within ``TIE_EPS`` (relative to the row's
largest score) may come out in either order, anything else must agree.
"""

from __future__ import annotations

import numpy as np

TIE_EPS = 1e-9
NORMAL_EQ_TOL = 1e-10  # normwise residual allowed in check_normal_equations


class CheckError(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _numeric_ids(ids: list) -> np.ndarray:
    """Generator ids 'u12', 'i7', 'c3' back to their integers."""
    return np.asarray([int(s[1:]) for s in ids], dtype=np.int64)


def check_ingest(gen, log) -> None:
    """The ingested log holds exactly the generated rows, in file order."""
    _require(len(log) == len(gen.users), f"ingested {len(log)} events, generated {len(gen.users)}")
    _require(np.array_equal(_numeric_ids(log.user_ids)[log.users], gen.users), "user ids differ")
    _require(np.array_equal(_numeric_ids(log.item_ids)[log.items], gen.items), "item ids differ")
    _require(np.array_equal(log.timestamps, gen.timestamps), "timestamps differ")
    if gen.categories is not None:
        cats = _numeric_ids(log.category_ids)[log.categories]
        _require(np.array_equal(cats, gen.categories), "categories differ")


# ---------------------------------------------------------------------------
# context


def merge_window(recent_first: list, decay: float, cold: int) -> dict:
    """{state: weight} of a recent-first category window, weights capped at 1."""
    if not recent_first:
        return {cold: 1.0}
    out: dict = {}
    for rank, cat in enumerate(recent_first):
        out[cat] = min(1.0, out.get(cat, 0.0) + decay**rank)
    return out


def _as_dict(pairs) -> dict:
    pairs = list(pairs)
    states = [int(s) for s, _ in pairs]
    _require(len(set(states)) == len(states), f"repeated state in {pairs}")
    return {int(s): float(w) for s, w in pairs}


def _same_states(got, want: dict, where: str) -> None:
    got = _as_dict(got)
    _require(
        got.keys() == want.keys()
        and all(abs(got[s] - want[s]) <= 1e-12 for s in want),
        f"{where}: states {got} != recomputed {want}",
    )


def band_of(timestamps, season: int, bands: int) -> np.ndarray:
    """Uniform time band of each timestamp."""
    width = season // bands
    return (np.asarray(timestamps, dtype=np.int64) % season) // width


def check_timeband_states(rng, events, states, season: int, bands: int, sample: int) -> None:
    """Sampled events carry exactly their own band with weight 1."""
    _require(len(states) == len(events), "one state list per event expected")
    idx = rng.choice(len(events), size=min(sample, len(events)), replace=False)
    want = band_of(events.timestamps[idx], season, bands)
    for e, band in zip(idx, want):
        _same_states(states[e], {int(band): 1.0}, f"event {e}")


def _history(train, user: int, item_cat: dict, before=None) -> list:
    """Categories of a user's training events, recent first; ties by log position."""
    rows = np.flatnonzero(train.users == user)
    if before is not None:
        rows = rows[train.timestamps[rows] < before]
    rows = rows[np.lexsort((rows, train.timestamps[rows]))]
    return [item_cat[int(i)] for i in train.items[rows[::-1]]]


def check_sequence_states(
    rng, train, ordered, states, item_cat: dict, depth: int, decay: float, cold: int, sample: int
) -> None:
    """Sampled events' states equal a scan of that user's strictly-earlier events."""
    _require(len(states) == len(ordered) == len(train), "one state list per training event expected")
    for e in rng.choice(len(ordered), size=min(sample, len(ordered)), replace=False):
        user, ts = int(ordered.users[e]), int(ordered.timestamps[e])
        recent = _history(train, user, item_cat, before=ts)[:depth]
        _same_states(states[e], merge_window(recent, decay, cold), f"event {e} (user {user})")


def check_sequence_requests(
    rng, train, requests: dict, item_cat: dict, depth: int, decay: float, cold: int, sample: int
) -> None:
    """Sampled users' request states come from their last ``depth`` purchases."""
    users = sorted(requests)
    for u in rng.choice(users, size=min(sample, len(users)), replace=False):
        recent = _history(train, int(u), item_cat)[:depth]
        _same_states(requests[u], merge_window(recent, decay, cold), f"request of user {u}")


def check_timeband_requests(rng, test, requests: dict, season: int, bands: int, sample: int) -> None:
    """Sampled users' request band is the band of their first test event."""
    users = sorted(requests)
    _require(users == sorted(set(test.users.tolist())), "request users differ from test users")
    for u in rng.choice(users, size=min(sample, len(users)), replace=False):
        first = test.timestamps[test.users == u].min()
        _same_states(requests[u], {int(band_of(first, season, bands)): 1.0}, f"request of user {u}")


# ---------------------------------------------------------------------------
# tensor


def cell_keys(users, items, states=None):
    """(keys, relative weights) of every (event, state) pair; keys in axis order."""
    if states is None:
        return np.stack([users, items], axis=1), np.ones(len(users))
    counts = np.fromiter((len(p) for p in states), dtype=np.int64, count=len(states))
    flat = [pair for pairs in states for pair in pairs]
    keys = np.stack(
        [
            np.repeat(users, counts),
            np.repeat(items, counts),
            np.fromiter((s for s, _ in flat), dtype=np.int64, count=len(flat)),
        ],
        axis=1,
    )
    return keys, np.fromiter((w for _, w in flat), dtype=np.float64, count=len(flat))


def check_tensor(obs, keys: np.ndarray, rel: np.ndarray, base: float, alpha: float) -> None:
    """Stored cells are the distinct keys, weighted base + alpha * summed weights."""
    cells, inverse = np.unique(keys, axis=0, return_inverse=True)
    _require(
        obs.n_nonzero == len(cells),
        f"n_plus {obs.n_nonzero} != {len(cells)} distinct cell keys",
    )
    order = np.lexsort(obs.coords.T[::-1])
    _require(np.array_equal(obs.coords[order], cells), "stored coordinates differ from the cell keys")
    want = base + alpha * np.bincount(inverse.ravel(), weights=rel, minlength=len(cells))
    _require(
        np.allclose(obs.weights[order], want, rtol=1e-12, atol=0.0),
        "per-cell weights differ from base + alpha * summed relative weights",
    )
    total, expected = float(obs.weights.sum()), base * len(cells) + alpha * float(rel.sum())
    _require(
        abs(total - expected) <= 1e-9 * expected,
        f"summed weight {total!r} != base*N+ + alpha*sum(rel) = {expected!r}",
    )


# ---------------------------------------------------------------------------
# solver


def _cell_vectors(factors, coords, skip=None) -> np.ndarray:
    """K x n Hadamard products of the factor columns at each cell, skipping one axis."""
    v = np.ones((factors[0].shape[0], coords.shape[0]))
    for axis, matrix in enumerate(factors):
        if axis != skip:
            v *= matrix[:, coords[:, axis]]
    return v


def check_normal_equations(factors, obs, axis: int, reg: float) -> None:
    """Each column of ``axis`` solves its ridge system built from cells and Grams.

    The error is normwise: |A m - b| / (|A| |m| + |b|).
    """
    k = factors[0].shape[0]
    base = np.ones((k, k))
    for a, matrix in enumerate(factors):
        if a != axis:
            base *= matrix @ matrix.T
    col = obs.coords[:, axis]
    order = np.argsort(col, kind="stable")
    bounds = np.searchsorted(col[order], np.arange(obs.shape.dims[axis] + 1))
    worst, where = 0.0, None
    for c in range(obs.shape.dims[axis]):
        cells = order[bounds[c] : bounds[c + 1]]
        v = _cell_vectors(factors, obs.coords[cells], skip=axis)
        w = obs.weights[cells]
        a_mat = base + (v * (w - 1.0)) @ v.T + reg * np.eye(k)
        rhs = v @ w
        m = factors[axis][:, c]
        err = np.linalg.norm(a_mat @ m - rhs) / (
            np.linalg.norm(a_mat, 2) * np.linalg.norm(m) + np.linalg.norm(rhs) + 1e-300
        )
        if not err <= worst:
            worst, where = err, c
    _require(
        worst <= NORMAL_EQ_TOL,
        f"axis {axis} column {where}: normal-equation error {worst:.3g} > {NORMAL_EQ_TOL:g}",
    )


def check_grams(model) -> None:
    """Cached Gram matrices equal factors @ factors.T."""
    for axis, (matrix, gram) in enumerate(zip(model.factors, model.grams)):
        want = matrix @ matrix.T
        _require(
            np.allclose(gram, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()),
            f"cached Gram of axis {axis} differs from factors @ factors.T",
        )


def regularized_objective(factors, obs, reg: float) -> float:
    """Weighted squared loss over every cell plus the ridge terms.

    The sum of squared predictions over all cells is 1'(G_1 * ... * G_D)1;
    stored cells then swap their p^2 for w (1 - p)^2.
    """
    prod = np.ones((factors[0].shape[0],) * 2)
    for matrix in factors:
        prod *= matrix @ matrix.T
    p = _cell_vectors(factors, obs.coords).sum(axis=0)
    stored = float(np.sum(obs.weights * (1.0 - p) ** 2 - p**2))
    ridge = reg * sum(float(np.sum(m * m)) for m in factors)
    return float(prod.sum()) + stored + ridge


def check_objective(snapshots: list, obs, reg: float) -> list:
    """The objective after each epoch never increases; returns the values."""
    _require(len(snapshots) >= 2, "need factor snapshots of at least two epochs")
    values = [regularized_objective(f, obs, reg) for f in snapshots]
    _require(all(np.isfinite(values)), f"non-finite objective {values}")
    for epoch, (prev, cur) in enumerate(zip(values, values[1:]), start=2):
        _require(cur <= prev + 1e-9 * abs(prev), f"objective rose at epoch {epoch}: {prev!r} -> {cur!r}")
    return values


# ---------------------------------------------------------------------------
# rankings


def context_vector(matrix: np.ndarray, pairs) -> np.ndarray:
    """Weight-averaged context columns."""
    states = np.array([s for s, _ in pairs], dtype=np.int64)
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    return (matrix[:, states] * weights).sum(axis=1) / weights.sum()


def dense_scores(model, users: np.ndarray, requests) -> np.ndarray:
    """(users x items) scores from raw factors; composite models use the heaviest state."""
    if hasattr(model, "submodels"):
        n_items = model.shape.dims[model.shape.item_axis]
        out = np.zeros((len(users), n_items))
        for row, u in enumerate(users):
            pairs = requests[int(u)]
            state = int(pairs[int(np.argmax([w for _, w in pairs]))][0])
            sub = model.submodels[state]
            if sub is not None:
                out[row] = sub.factors[0][:, u] @ sub.factors[1]
        return out
    shape = model.shape
    left = model.factors[shape.user_axis][:, users].copy()
    for axis in shape.context_axes:
        left *= np.stack([context_vector(model.factors[axis], requests[int(u)]) for u in users], axis=1)
    return left.T @ model.factors[shape.item_axis]


def _masked(scores: np.ndarray, seen_rows: list) -> np.ndarray:
    out = scores.copy()
    for row, seen in enumerate(seen_rows):
        out[row, seen] = -np.inf
    return out


def ranking_bounds(scores: np.ndarray, seen_rows: list, relevant: np.ndarray, n: int):
    """Per-user (min, max) hits in the top n that any near-tie order allows."""
    s = _masked(scores, seen_rows)
    finite = np.isfinite(s)
    _require(np.all(finite.sum(axis=1) >= n), f"a user has fewer than {n} candidates")
    kth = -np.sort(-s, axis=1)[:, n - 1 : n]
    tol = TIE_EPS * np.abs(np.where(finite, s, 0.0)).max(axis=1, keepdims=True)
    above = s > kth + tol
    tied = finite & ~above & (s >= kth - tol)
    sure = (relevant & above).sum(axis=1)
    slots = n - above.sum(axis=1)
    rel_tied = (relevant & tied).sum(axis=1)
    other_tied = (~relevant & tied).sum(axis=1)
    return sure + np.maximum(0, slots - other_tied), sure + np.minimum(slots, rel_tied)


def check_report(report, scores, seen_rows, relevant: np.ndarray, n: int, label: str) -> None:
    """recall@n and precision@n equal the brute-force dense ranking's."""
    lo, hi = ranking_bounds(scores, seen_rows, relevant, n)
    n_rel = relevant.sum(axis=1)
    _require(report.n_users == len(n_rel), f"{label}: {report.n_users} users ranked, {len(n_rel)} expected")
    recall, precision = report.at(n)
    for name, got, low, high in (
        ("recall", recall, np.mean(lo / n_rel), np.mean(hi / n_rel)),
        ("precision", precision, np.mean(lo / n), np.mean(hi / n)),
    ):
        _require(
            low - 1e-12 <= got <= high + 1e-12,
            f"{label}: {name}@{n} {got!r} outside brute-force [{low!r}, {high!r}]",
        )


def check_topn(ranked, scores_row: np.ndarray, seen: np.ndarray, n: int) -> None:
    """A served top-n list equals the dense ranking, up to near-ties."""
    s = scores_row.copy()
    s[seen] = -np.inf
    want = np.argsort(-s, kind="stable")[:n]
    items = np.asarray(ranked.items)
    if not np.array_equal(items, want):
        tol = TIE_EPS * np.abs(scores_row).max()
        _require(
            len(items) == n and len(set(items.tolist())) == n and np.all(np.isfinite(s[items])),
            f"user {ranked.user}: list {items.tolist()} is not {n} distinct unseen items",
        )
        _require(
            np.all(np.abs(s[items] - s[want]) <= tol),
            f"user {ranked.user}: list {items.tolist()} != dense ranking {want.tolist()}",
        )
    _require(
        np.allclose(ranked.scores, scores_row[items], rtol=1e-9, atol=TIE_EPS * np.abs(scores_row).max()),
        f"user {ranked.user}: reported scores differ from the dense scores",
    )


def check_reload(model, loaded) -> None:
    """Reloaded factors are bit-identical to the trained ones."""
    _require(type(loaded) is type(model), "reloaded model has another type")
    _require(loaded.shape == model.shape, "reloaded model has another shape")
    for axis, (a, b) in enumerate(zip(model.factors, loaded.factors)):
        _require(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
            f"reloaded factors of axis {axis} are not bit-identical",
        )


def check_gate(recall: float, recall_ials: float, recall_ica: float) -> None:
    """The paper's claim: iTALS beats iALS and iCA on recall@20."""
    _require(
        recall > recall_ials and recall > recall_ica,
        f"recall@20 iTALS {recall:.4f} does not beat iALS {recall_ials:.4f} and iCA {recall_ica:.4f}",
    )
