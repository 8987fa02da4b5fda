"""Taking popularity bias out of a trained model without retraining it.

Training data concentrated on a few blockbuster items pulls every score
toward those items.  Because the model is linear in its targets, training
against popularity-discounted targets is the same as scaling the columns
of the already-trained weight matrix, so the correction costs one
elementwise multiply instead of a second training run.

The demo builds a catalog where two blockbusters co-occur with every
user while niche items come in correlated pairs.  For a one-item niche
history the partner item tops the list either way, but the margin it has
over the blockbusters grows under rescaling by exactly the ratio of the
item weights.  The script prints both lists, verifies that factor, and
closes with the time-resolved variant of the weights: popularity counted
per interval, so an item is discounted by its share in one slice of time
rather than its lifetime share.
"""

import numpy as np

from gramrec import (
    apply_item_rescaling,
    build_gram,
    popularity,
    popularity_weights,
    solve_zero_diag,
    time_intervals,
    time_popularity_weights,
    to_user_item_matrix,
)
from gramrec.data import InteractionSet


def make_events(rng, n_users=200, n_pairs=5):
    """Every user grabs both blockbusters plus one correlated niche pair."""
    users, items, stamps = [], [], []
    for u in range(n_users):
        p = int(rng.integers(n_pairs))
        for it in (0, 1, 2 + 2 * p, 3 + 2 * p):
            users.append(u)
            items.append(it)
            stamps.append(int(rng.integers(0, 1000)))
    keys_u = [f"u{k}" for k in range(n_users)]
    keys_i = [f"i{k}" for k in range(2 + 2 * n_pairs)]
    return InteractionSet(
        user_ids=np.asarray(users), item_ids=np.asarray(items),
        values=np.ones(len(users)), timestamps=np.asarray(stamps),
        user_keys=keys_u, item_keys=keys_i,
    )


rng = np.random.default_rng(3)
iset = make_events(rng)
matrix = to_user_item_matrix(iset)
pop = popularity(iset)
print("interaction counts:", pop.astype(int))

model = solve_zero_diag(build_gram(matrix), lam=5.0)
weights = popularity_weights(pop, alpha=1.0)
print("item weights      :", np.round(weights.w, 3))
rescaled = apply_item_rescaling(model, weights)

history = [2]  # one member of the first niche pair; its partner is item 3
raw = model.b[history].sum(axis=0)
raw[history] = -np.inf
adj = rescaled.b[history].sum(axis=0)
adj[history] = -np.inf
print("\ntop-4 for history [2] (partner item is 3, blockbusters are 0 and 1)")
print("  raw model :", [int(i) for i in np.argsort(-raw)[:4]], np.round(np.sort(-raw)[:4] * -1, 3))
print("  rescaled  :", [int(i) for i in np.argsort(-adj)[:4]], np.round(np.sort(-adj)[:4] * -1, 3))

blockbuster = max(raw[0], raw[1])
margin_raw = raw[3] / blockbuster
margin_adj = adj[3] / max(adj[0], adj[1])
print("\npartner margin over the best blockbuster")
print(f"  raw {margin_raw:.2f}x, rescaled {margin_adj:.2f}x")
print(f"  growth factor {margin_adj / margin_raw:.3f}, weight ratio {weights.w[3] / weights.w[0]:.3f}")

# the same weights per time interval: early share versus late share
idx = time_intervals(iset, 4, np.arange(iset.n_users))
for k in (0, idx.n_intervals - 1):
    w = time_popularity_weights(idx.pops[k], idx.pops.sum(axis=0), alpha=1.0)
    print(f"\ninterval {k} weights (blockbusters first):", np.round(w.w[:4], 3))
