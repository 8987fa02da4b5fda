"""Linear item-item collaborative filtering with closed-form training.

Models are dense or sparse item-item weight matrices learned from the Gram
matrix G = XᵀX and a few per-item vectors that describe the target, with an
exact zero-diagonal constraint, optional popularity re-scaling, and a
strong-generalization ranking evaluation."""

from .data import (
    InteractionSchema,
    InteractionSet,
    SplitSpec,
    TimeIntervalIndex,
    UserItemMatrix,
    filter_activity,
    load_interactions,
    load_split_files,
    popularity,
    save_split_files,
    split_strong_generalization,
    time_intervals,
    to_user_item_matrix,
)
from .errors import DataError, GramrecError, NumericalError
from .evaluation import (
    EvalReport,
    PopularityScorer,
    evaluate_model,
    evaluate_time_aware,
    grid_search_lambda,
    rank_items,
    score_histories,
)
from .gram import GramStats, build_disjoint_gram, build_gram, build_user_weighted_gram
from .solver import (
    DenseModel,
    ItemWeightVector,
    PrecisionMatrix,
    invert_regularized,
    load_model,
    save_model,
    solve_rr,
    solve_zero_diag,
)
from .sparse import (
    CorrelationMatrix,
    SparseModel,
    SparsityPattern,
    aggregate_blocks,
    block_partition,
    correlation_from_gram,
    load_sparse_model,
    mask_model,
    save_sparse_model,
    solve_blocks,
    threshold_pattern,
    train_sparse,
)
from .weighting import (
    apply_item_rescaling,
    load_weights_csv,
    popularity_weights,
    save_weights_csv,
    time_popularity_weights,
)

__version__ = "0.1.0"
