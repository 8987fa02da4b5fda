"""Item re-scaling of trained models.

Training against column-scaled targets Y*diagMat(w) yields exactly the
original zero-diagonal model post-multiplied by diagMat(w), so popularity
corrections never require retraining: build a weight vector and hand it
to a copy of the model, which scales each column of B by it as the column
is formed from packed P.  Weights here either dampen popular items
(w_i proportional to 1/pop_i^alpha) or adapt scores to the popularity of a
time interval (w_i proportional to (pop_i(t)/pop_i)^alpha).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import atomic_write, read_key_csv
from .solver import VARIANT_ZERO_DIAG, DenseModel

KIND_UNIFORM = "uniform"
KIND_INVERSE_POP = "inverse_pop"
KIND_TIME_ADJUSTED = "time_adjusted"
WEIGHT_KINDS = (KIND_UNIFORM, KIND_INVERSE_POP, KIND_TIME_ADJUSTED)

DEFAULT_EPSILON = 1e-9


@dataclass
class ItemWeightVector:
    """Positive per-item scaling factors with their construction recorded."""

    w: np.ndarray
    kind: str
    alpha: float

    @property
    def n_items(self) -> int:
        return len(self.w)


def _checked(w: np.ndarray, kind: str, alpha: float) -> ItemWeightVector:
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise DataError(
            "item weights must be positive and finite; the usual causes are an item of "
            "popularity 0 with epsilon=0, and an item of negative popularity, which "
            "negative event values give when they are not binarized"
        )
    return ItemWeightVector(w=w, kind=kind, alpha=alpha)


def _check_options(alpha: float, epsilon: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha must be in [0, 1], got {alpha}")
    if not epsilon >= 0.0:
        raise DataError(f"epsilon must be non-negative, got {epsilon}")


def popularity_weights(
    pop: np.ndarray, alpha: float, epsilon: float = DEFAULT_EPSILON
) -> ItemWeightVector:
    """w_i = 1/(pop_i + epsilon)^alpha, unnormalized.

    Normalization is irrelevant for ranking, so none is applied.  alpha=0.5
    is a good operating point on the public rating datasets; epsilon keeps
    weights finite for items nobody interacted with.
    """
    _check_options(alpha, epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):  # _checked rejects nan/inf
        w = (pop + epsilon) ** (-alpha)
    return _checked(w, KIND_INVERSE_POP, alpha)


def time_popularity_weights(
    pop_t: np.ndarray, pop: np.ndarray, alpha: float, epsilon: float = DEFAULT_EPSILON
) -> ItemWeightVector:
    """w_i = ((pop_i at time t + epsilon)/(pop_i + epsilon))^alpha.

    Boosts items popular within the interval relative to their overall
    popularity; pop_t = pop gives the all-ones vector.
    """
    _check_options(alpha, epsilon)
    if len(pop_t) != len(pop):
        raise DataError(f"popularity vectors differ in length: {len(pop_t)} vs {len(pop)}")
    with np.errstate(divide="ignore", invalid="ignore"):  # _checked rejects nan/inf
        w = ((pop_t + epsilon) / (pop + epsilon)) ** alpha
    return _checked(w, KIND_TIME_ADJUSTED, alpha)


def apply_item_rescaling(model: DenseModel, weights: ItemWeightVector) -> DenseModel:
    """Copy of the model with column j multiplied by w_j.

    Equivalent to retraining on targets Y*diagMat(w); the zero diagonal is
    preserved, and stored multipliers scale along (the rescaled model is the
    exact optimum of the column-scaled objective).  The model takes w as
    the column scale of its read-off, which costs O(n) and shares packed P.
    The original model is never mutated, so weights can change per request
    without retraining.
    """
    if model.variant != VARIANT_ZERO_DIAG:
        raise DataError(f"re-scaling applies to zero-diagonal models, not variant {model.variant!r}")
    if weights.n_items != model.n_items:
        raise DataError(f"expected {model.n_items} weights, got {weights.n_items}")
    if model.applied_item_weights is not None:
        raise DataError("model already carries item weights; re-scale the unweighted model")
    gamma = None if model.gamma is None else model.gamma * weights.w
    return replace(model, applied_item_weights=weights, gamma=gamma)


def save_weights_csv(path: str | Path, weights: ItemWeightVector, item_keys: list[str]) -> None:
    """Item-key/weight CSV with a leading comment carrying kind and alpha."""
    if len(item_keys) != weights.n_items:
        raise DataError(f"expected {weights.n_items} item keys, got {len(item_keys)}")
    with atomic_write(path) as fh:
        fh.write(f"# kind={weights.kind} alpha={float(weights.alpha)!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["item", "weight"])
        for key, val in zip(item_keys, weights.w):
            writer.writerow([key, repr(float(val))])


def load_weights_csv(path: str | Path, item_index: dict[str, int]) -> ItemWeightVector:
    """Read a weight CSV back, aligning rows to dense item ids.

    Every item must receive a weight.  Files without the leading comment
    (hand-written ones) load as kind uniform, alpha 0.
    """
    w, comment = read_key_csv(path, item_index, "item", "weight", np.nan)
    kind, alpha = KIND_UNIFORM, 0.0
    if comment:
        fields = dict(tok.split("=", 1) for tok in comment[1:].strip().split() if "=" in tok)
        kind = fields.get("kind", KIND_UNIFORM)
        if kind not in WEIGHT_KINDS:
            raise DataError(f"{path}: unknown weight kind {kind!r}")
        try:
            alpha = float(fields.get("alpha", "0"))
        except ValueError:
            raise DataError(f"{path}: bad alpha in weight header") from None
    if np.any(np.isnan(w)):
        missing = int(np.isnan(w).sum())
        raise DataError(f"{path}: {missing} items received no weight")
    return _checked(w, kind, alpha)
