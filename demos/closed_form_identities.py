"""Exact identities of the linear item-item model.

A linear model scores items as a weighted sum of the items already in a
user's history.  With a squared-error objective and a ridge penalty the
weight matrix has a closed form, and constraining its diagonal to zero
(so an item cannot recommend itself) only changes that closed form by a
rank correction: one Lagrange multiplier per item.

This script trains the unconstrained and the constrained variants on a
tiny binary dataset and checks four things numerically: the constrained
solution matches a per-column brute-force fit that simply deletes the
offending feature; its diagonal is exactly zero; the whole model can be
read off the inverse P of the regularized Gram matrix, which the solver
does for every target it trains on, and agrees with the general formula
P·C − P·diagMat(γ) written out with an explicit target C, for C = G and
for centered targets; and the gradient at the constrained optimum is
diagonal, with the multipliers on the diagonal.
"""

import numpy as np
import scipy.sparse as sp

from gramrec import UserItemMatrix, build_gram, solve_rr, solve_zero_diag
from gramrec.packed import unpack

rng = np.random.default_rng(0)
n_users, n_items, lam = 60, 8, 2.0

dense = (rng.random((n_users, n_items)) < 0.35).astype(np.float64)
x = UserItemMatrix(matrix=sp.csr_matrix(dense))
# G is held as its lower triangle in packed storage; the target C is G here
g = unpack(build_gram(x).g)

print("Gram diagonal (per-item interaction counts):")
print(np.diag(g).astype(int))

# each solve consumes the statistics it is given (P is made in G's packed
# buffer), so every solve below gets a fresh build; a solved model forms B
# from P whenever .b is read
rr = solve_rr(build_gram(x), lam=lam)
zd = solve_zero_diag(build_gram(x), lam=lam)
print("\nridge diagonal       :", np.round(np.diag(rr.b), 3))
print("constrained diagonal :", np.diag(zd.b))

# brute force: column j refit with feature j removed from the input
brute = np.zeros((n_items, n_items))
for j in range(n_items):
    rest = [i for i in range(n_items) if i != j]
    xs = dense[:, rest]
    a = xs.T @ xs + lam * np.eye(n_items - 1)
    brute[rest, j] = np.linalg.solve(a, xs.T @ dense[:, j])
print("\nmax |closed form - brute force| =", np.max(np.abs(zd.b - brute)))



def general(c):
    """B = P·C − P·diagMat(γ) with γ = diag(P·C)/diag(P), zero diagonal."""
    p = np.linalg.inv(g + lam * np.eye(n_items))
    b = p @ c
    b -= p * (np.diag(b) / np.diag(p))[np.newaxis, :]
    np.fill_diagonal(b, 0.0)
    return b


# zd was read off the precision matrix, B = -P·diagMat(1/diag(P)); the
# general formula takes the product P·C with C = G
print("max |general - read-off|        =", np.max(np.abs(general(g) - zd.b)))
# centered targets are read off P too, through the column sums and means
centered = solve_zero_diag(build_gram(x, center=True), lam=lam)
c = dense.T @ (dense - dense.mean(axis=0))
print("centered: max |general - read-off| =", np.max(np.abs(general(c) - centered.b)))

# stationarity: the gradient 2(G B - C + lam B) is diagonal at the optimum,
# and minus half its diagonal is the stored multiplier vector
grad = 2.0 * (g @ zd.b - g + lam * zd.b)
off = grad - np.diag(np.diag(grad))
print("\nmax off-diagonal gradient entry =", np.max(np.abs(off)))
print("max |multiplier mismatch|       =", np.max(np.abs(np.diag(grad) / -2.0 - zd.gamma)))
