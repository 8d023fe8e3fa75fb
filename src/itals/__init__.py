"""ALS-based factorization of sparse binary tensors for implicit feedback.

The observation tensor holds (user, item, context...) cells that carry at
least one event, each with a confidence weight of at least 1; every other cell
is an implicit zero with weight 1.  Training alternates exact
ridge-regression solves over the factor matrices, using cached Gram
matrices to cover all implicit zeros at once, so an epoch is linear in
the number of stored cells.

Context specs turn raw event logs into a tensor axis and each test
user's request: recurring-season time bands (``TimeBandContext``) or the
categories of each user's preceding purchases (``SequenceContext``).  The
package also ships the two-matrix iALS baseline, a per-context-state
composite baseline, a dense brute-force oracle for verification, a
ranking evaluation harness and an `itals` command-line front end.
"""

from .baseline import CompositeModel, fit_ials, fit_ica
from .context import (
    ContextError,
    ContextPairs,
    RequestPairs,
    SeasonSpec,
    SequenceContext,
    SequenceSpec,
    TimeBandContext,
    assign_time_band,
    last_category_states,
    sequential_context,
    time_band_states,
)
from .events import (
    EventLog,
    ParseError,
    RatingLog,
    ingest_events,
    ingest_ratings,
    read_category_rows,
)
from .evaluation import (
    EvalError,
    RankedList,
    RankingReport,
    SplitSpec,
    emit_pr_curve,
    implicitize,
    recall_precision_at,
    recommend_topn,
    score_items,
    split_by_date,
)
from .oracle import (
    DenseCapError,
    dense_loss,
    dense_predictions,
    dense_regularized_loss,
    dense_solve_column,
    gram_product_bruteforce,
)
from .persistence import PersistenceError, load_model, save_model
from .solver import (
    Model,
    SolverError,
    TrainConfig,
    effective_lambdas,
    fit,
    solve_axis,
)
from .tensor import (
    ObservationTensor,
    TensorBuildError,
    TensorShape,
    WeightingScheme,
    build_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeModel",
    "ContextError",
    "ContextPairs",
    "RequestPairs",
    "DenseCapError",
    "EvalError",
    "EventLog",
    "Model",
    "ObservationTensor",
    "ParseError",
    "PersistenceError",
    "RankedList",
    "RankingReport",
    "RatingLog",
    "SeasonSpec",
    "SequenceContext",
    "SequenceSpec",
    "SolverError",
    "SplitSpec",
    "TensorBuildError",
    "TensorShape",
    "TimeBandContext",
    "TrainConfig",
    "WeightingScheme",
    "assign_time_band",
    "build_tensor",
    "dense_loss",
    "dense_predictions",
    "dense_regularized_loss",
    "dense_solve_column",
    "effective_lambdas",
    "emit_pr_curve",
    "fit",
    "fit_ials",
    "fit_ica",
    "gram_product_bruteforce",
    "implicitize",
    "ingest_events",
    "ingest_ratings",
    "last_category_states",
    "load_model",
    "read_category_rows",
    "recall_precision_at",
    "recommend_topn",
    "save_model",
    "score_items",
    "sequential_context",
    "solve_axis",
    "split_by_date",
    "time_band_states",
    "__version__",
]
