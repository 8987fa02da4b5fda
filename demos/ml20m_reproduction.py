"""Full-scale run on the MovieLens 20M ratings.

Everything in the other demos fits in a screenful of output; this one
shows the same pipeline at its intended scale: about 20,000 movies and
136,000 users after preprocessing, a 20k x 20k Gram matrix, and one
Cholesky solve for the whole model.  Ratings above 3.5 are kept as
binary events, users with fewer than five kept movies are dropped, and
10,000 users each go to the validation and test sets.

Expected results with lam=500 on the 10,000 test users (one fixed
random fold-in per user, so small run-to-run wiggle comes only from the
seed): Recall@20 around 0.391, Recall@50 around 0.521, NDCG@100 around
0.420, against a popularity baseline of about 0.162 Recall@20.  On a
16-core machine the Gram build plus solve takes on the order of two
minutes; most of it is the dense inversion.

Run with the ratings file from https://grouplens.org/datasets/movielens/20m/:

    GRAMREC_ML20M_RATINGS=/data/ml-20m/ratings.csv python demos/ml20m_reproduction.py
"""

import os
import sys
import time

import numpy as np

from gramrec import (
    InteractionSchema,
    PopularityScorer,
    build_gram,
    evaluate_model,
    filter_activity,
    load_interactions,
    popularity,
    solve_zero_diag,
    split_strong_generalization,
    to_user_item_matrix,
)

path = os.environ.get("GRAMREC_ML20M_RATINGS")
if path is None:
    print(__doc__)
    print("GRAMREC_ML20M_RATINGS is not set; nothing to do.")
    sys.exit(0)

t0 = time.perf_counter()
schema = InteractionSchema(user="userId", item="movieId", value="rating", time="timestamp")
iset = load_interactions(path, schema=schema, min_value=4.0, binarize=True)
iset = filter_activity(iset, min_user_events=5)
print(f"[{time.perf_counter() - t0:7.1f}s] {iset.n_events} events, "
      f"{iset.n_users} users, {iset.n_items} movies")

matrix = to_user_item_matrix(iset)
split = split_strong_generalization(iset, n_val=10_000, n_test=10_000, seed=0)
print(f"[{time.perf_counter() - t0:7.1f}s] split: {len(split.train_users)} train users")

t_train = time.perf_counter()
train_matrix = matrix.restrict_users(split.train_users)
stats = build_gram(train_matrix)
print(f"[{time.perf_counter() - t0:7.1f}s] gram built")
model = solve_zero_diag(stats, lam=500.0)
print(f"[{time.perf_counter() - t0:7.1f}s] model solved "
      f"(training phase {time.perf_counter() - t_train:.0f}s)")

report = evaluate_model(model, matrix, split, recall_ks=(20, 50), ndcg_k=100)
print(f"[{time.perf_counter() - t0:7.1f}s] test users evaluated\n")
print("linear model, lam=500:")
print(report.to_text())

base = evaluate_model(
    PopularityScorer(popularity(iset, split.train_users)),
    matrix, split, recall_ks=(20, 50), ndcg_k=100,
)
print("popularity baseline:")
print(base.to_text())
