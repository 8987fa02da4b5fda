"""Peak memory of the training steps, in units of one n×n float64 matrix.

tracemalloc counts the allocations numpy makes (scipy's sparse products and
LAPACK's in-place calls allocate through numpy or not at all), so a peak
taken while G already exists is the memory a step needs beyond G.
"""

import tracemalloc

import numpy as np
import pytest

from gramrec import build_gram, solve_zero_diag, train_sparse

from conftest import binary_matrix


@pytest.fixture(scope="module")
def wide():
    x = binary_matrix(np.random.default_rng(7), 400, 1024, density=0.05)
    return x, build_gram(x, x)


def peak_n2(fn, n: int) -> float:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def test_build_gram_holds_g_plus_panels(wide):
    x, gram = wide
    assert peak_n2(lambda: build_gram(x, x), gram.n_items) < 1.5


def test_zero_diag_solve_holds_one_matrix_beyond_g(wide):
    _, gram = wide
    assert peak_n2(lambda: solve_zero_diag(gram, 50.0), gram.n_items) < 1.5


def test_train_sparse_holds_no_matrix_beyond_g(wide):
    _, gram = wide
    assert peak_n2(lambda: train_sparse(gram, theta=0.1, n_max=50, lam=50.0), gram.n_items) < 1.5
