"""The narrative scripts in demos/ run to completion.  The MovieLens one
runs on a small synthetic log in the MovieLens ratings layout."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", [
    "closed_form_identities", "popularity_rescaling", "block_sparse_training",
    "ranking_evaluation",
])
def test_demo_runs(name):
    res = run_demo(name)
    assert res.returncode == 0, res.stderr


def test_ml20m_demo_runs_on_a_small_log(tmp_path):
    """The demo holds out 10,000 + 10,000 users, so the log has 20,050 users,
    each with six ratings of at least 4.0 (kept) and one of 2.0 (dropped)."""
    n_users, n_movies = 20_050, 30
    r = np.random.default_rng(0)
    movies = np.argsort(r.random((n_users, n_movies)), axis=1)[:, :7]
    ratings = np.tile([4.0, 4.5, 5.0, 4.0, 5.0, 4.0, 2.0], (n_users, 1))
    users = np.repeat(np.arange(n_users), 7)
    stamps = r.integers(0, 10**9, users.size)
    rows = [f"{u},{m},{v},{t}" for u, m, v, t in
            zip(users.tolist(), movies.ravel().tolist(), ratings.ravel().tolist(), stamps.tolist())]
    ratings_csv = tmp_path / "ratings.csv"
    ratings_csv.write_text("userId,movieId,rating,timestamp\n" + "\n".join(rows) + "\n",
                           encoding="utf-8")
    res = run_demo("ml20m_reproduction", GRAMREC_ML20M_RATINGS=str(ratings_csv))
    assert res.returncode == 0, res.stderr
    assert f"{6 * n_users} events, {n_users} users, {n_movies} movies" in res.stdout
    assert res.stdout.count("evaluated 10000 users, skipped 0") == 2  # model and baseline
