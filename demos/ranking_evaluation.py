"""Ranking evaluation on users the model has never seen.

Judging a recommender on the users it was trained on rewards
memorization.  The protocol here holds entire users out of training,
feeds the model a random 80% of each held-out user's history, and asks
it to rank the remaining 20% highly among all items the user has not
revealed.  Recall@k counts how many of the hidden items make the top k;
NDCG@k also rewards putting them near the very top.

The script trains on a synthetic catalog with genre structure, compares
the model against the popularity baseline, and then runs the ridge
parameter over a grid.  Too little regularization memorizes which exact
item pairs co-occurred in the small training set; too much washes out
the genre signal and falls back toward popularity; the best value sits
in between.
"""

import numpy as np

from gramrec import (
    PopularityScorer,
    SplitSpec,
    build_gram,
    evaluate_model,
    grid_search_lambda,
    popularity,
    solve_zero_diag,
    to_user_item_matrix,
)
from gramrec.data import InteractionSet


def make_events(rng, n_users, n_hubs=4, n_genres=6, genre_size=4):
    """Each user takes one hub item and three items from one genre."""
    users, items = [], []
    for u in range(n_users):
        picks = list(rng.choice(n_hubs, size=1, replace=False))
        g = int(rng.integers(n_genres))
        picks += [n_hubs + g * genre_size + int(p)
                  for p in rng.choice(genre_size, size=3, replace=False)]
        for it in picks:
            users.append(u)
            items.append(int(it))
    n_items = n_hubs + n_genres * genre_size
    keys_u = [f"u{k}" for k in range(n_users)]
    keys_i = [f"i{k}" for k in range(n_items)]
    return InteractionSet(
        user_ids=np.asarray(users), item_ids=np.asarray(items),
        values=np.ones(len(users)), timestamps=None,
        user_keys=keys_u, item_keys=keys_i,
    )


rng = np.random.default_rng(0)
iset = make_events(rng, n_users=28)
matrix = to_user_item_matrix(iset)
split = SplitSpec(
    train_users=np.arange(12),
    validation_users=np.arange(12, 28),
    test_users=np.array([], dtype=np.int64),
    fold_in_fraction=0.75,
    seed=0,
)
train_matrix = matrix.restrict_users(split.train_users)
stats = build_gram(train_matrix)

model = solve_zero_diag(stats, lam=1.0)
report = evaluate_model(model, matrix, split, users="validation")
baseline = evaluate_model(
    PopularityScorer(popularity(matrix, split.train_users)), matrix, split, users="validation"
)
print("trained model, validation users:")
print(report.to_text())
print("popularity baseline:")
print(baseline.to_text())

lams = [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e5]
# the grid rebuilds the statistics for each lambda and solves them in place
best, reports, _ = grid_search_lambda(
    lambda: build_gram(train_matrix), matrix, split, lams, metric="ndcg@100"
)
print("regularization sweep (ndcg@100 on validation users):")
for lam in lams:
    mean, stderr = reports[lam].metrics["ndcg@100"]
    marker = "  <- chosen" if lam == best else ""
    print(f"  lambda {lam:>8g}: {mean:.4f} +/- {stderr:.4f}{marker}")
