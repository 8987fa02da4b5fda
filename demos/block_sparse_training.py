"""Training a sparse model block by block.

A dense item-item model stores and inverts an |items| x |items| matrix,
which stops being fun somewhere past a hundred thousand items.  When the
catalog has community structure most of those entries are noise anyway:
an item's useful neighbors live in its own community.  The sparse
pipeline keeps only item pairs whose correlation passes a threshold,
groups the surviving columns into overlapping blocks, solves each block
independently with the same closed form, and averages entries that land
in more than one block.

On data whose Gram matrix is exactly block diagonal nothing is lost:
this script builds three item communities with no shared users, lets the
threshold rediscover them, and shows the blockwise solution agreeing
with the dense one to machine precision while storing a third of the
entries.  It then loosens the structure so the blocks overlap and prints
what the averaging does.
"""

import numpy as np
import scipy.sparse as sp

from gramrec import (
    UserItemMatrix,
    block_partition,
    build_gram,
    correlation_from_gram,
    mask_model,
    solve_zero_diag,
    threshold_pattern,
    train_sparse,
)

rng = np.random.default_rng(60)
g, ipb = 12, 10  # users and items per community
n_items = 3 * ipb
dense = np.zeros((5 * g, n_items))
for blk in range(3):
    dense[blk * g : (blk + 1) * g, blk * ipb : (blk + 1) * ipb] = (
        rng.random((g, ipb)) < 0.8
    )

x = UserItemMatrix(matrix=sp.csr_matrix(dense))
stats = build_gram(x)
cor_stats = correlation_from_gram(stats)
cor = cor_stats[:, :]  # the whole matrix; fine at this size
print("mean |correlation| within communities :", np.abs(cor[:ipb, :ipb]).mean().round(3))
print("mean |correlation| across communities :", np.abs(cor[:ipb, ipb:2 * ipb]).mean().round(3))

pattern = threshold_pattern(np.abs(cor), theta=0.3, n_max=n_items)
blocks = block_partition(pattern)
print("\nblocks found:", [len(b) for b in blocks])

lam = 2.0
sparse_model = train_sparse(stats, theta=0.3, n_max=n_items, lam=lam)
dense_model = solve_zero_diag(build_gram(x), lam=lam)  # a solve consumes its statistics
masked = mask_model(dense_model, pattern)
gap = np.max(np.abs(sparse_model.values.toarray() - masked.values.toarray()))
print(f"stored entries: {sparse_model.values.nnz} of {n_items * n_items}")
print(f"max |blockwise - dense| on the pattern: {gap:.2e}")

# overlap: lower the threshold until cross-community pairs sneak in
loose = train_sparse(stats, theta=0.2, n_max=n_items, lam=lam)
loose_blocks = block_partition(threshold_pattern(np.abs(cor), theta=0.2, n_max=n_items))
print("\nwith theta=0.2 the blocks overlap:", [len(b) for b in loose_blocks])
overlap_gap = np.max(np.abs(loose.values.toarray() - dense_model.b * (loose.values.toarray() != 0)))
print(f"averaged entries now differ from the dense model by up to {overlap_gap:.3f}")
