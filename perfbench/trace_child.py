"""Run one gramrec CLI command in process with a span around each layer call.

Usage: python perfbench/trace_child.py SPANS_JSON -- <gramrec command and options>

Every public function a command reaches is replaced, in each gramrec module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and the process peak RSS when the span ends.  The
wrappers live here, so the package itself is unchanged; because internal
calls go through the patched module globals, spans nest exactly as the
program calls them.  The spans are written as JSON when the command ends,
and the command's exit code is passed through.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np

import gramrec.cli
import gramrec.data
import gramrec.evaluation
import gramrec.gram
import gramrec.solver
import gramrec.sparse
import gramrec.weighting

MODULES = {
    "data": gramrec.data,
    "gram": gramrec.gram,
    "solver": gramrec.solver,
    "weighting": gramrec.weighting,
    "sparse": gramrec.sparse,
    "evaluation": gramrec.evaluation,
    "cli": gramrec.cli,
}
TRACED = {
    "data": ["load_interactions", "filter_activity", "to_user_item_matrix",
             "split_strong_generalization", "save_split_files", "load_split_files",
             "time_intervals", "popularity"],
    "gram": ["build_gram"],
    "solver": ["invert_regularized", "solve_zero_diag", "solve_ease", "save_model", "load_model"],
    "weighting": ["popularity_weights", "time_popularity_weights", "apply_item_rescaling"],
    "sparse": ["train_sparse", "correlation_from_gram", "threshold_pattern", "block_partition",
               "solve_blocks", "aggregate_blocks", "save_sparse_model", "load_sparse_model"],
    "evaluation": ["evaluate_model", "evaluate_time_aware", "grid_search_lambda",
                   "score_histories"],
    "cli": ["cmd_ingest", "cmd_split", "cmd_train", "cmd_train_sparse", "cmd_rescale",
            "cmd_evaluate", "cmd_recommend"],
}


def _heldout_events(args, kwargs) -> int:
    """Held-out events the time-aware protocol ranks: n - ceil(f*n) per user."""
    iset, split = args[1], args[2]
    users = split.validation_users if kwargs.get("users") == "validation" else split.test_users
    n = np.bincount(iset.user_ids, minlength=iset.n_users)[users]
    n = n[n >= 2]
    return int(np.sum(n - np.ceil(split.fold_in_fraction * n).astype(np.int64)))


def _blocks(blocks) -> dict:
    sizes = np.asarray([len(b) for b in blocks], dtype=np.float64)
    return {"n_blocks": len(blocks), "max_block_items": int(sizes.max(initial=0)),
            "block_items": int(sizes.sum()), "block_flop": float(np.sum(sizes ** 3))}


# Counts recorded at the same boundaries as the spans: name -> f(args, kwargs, result).
ATTRS = {
    "data.load_interactions": lambda a, k, r: {"events": r.n_events},
    "gram.build_gram": lambda a, k, r: {
        "n_items": r.n_items, "x_nnz": int(a[0].matrix.nnz),
        "dense_bytes": int(r.g.nbytes + (0 if r.c is r.g else r.c.nbytes))},
    "solver.invert_regularized": lambda a, k, r: {"n_items": r.n_items},
    "sparse.threshold_pattern": lambda a, k, r: {"pattern_nnz": int(r.a.nnz)},
    "sparse.block_partition": lambda a, k, r: _blocks(r),
    "evaluation.evaluate_model": lambda a, k, r: {"users": r.n_users, "skipped": r.n_skipped},
    "evaluation.evaluate_time_aware": lambda a, k, r: {
        "users": r.n_users, "skipped": r.n_skipped, "heldout_events": _heldout_events(a, k)},
    "evaluation.grid_search_lambda": lambda a, k, r: {"grid_points": len(r[1])},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in every module that
        imported it, and in module-level dispatch tables such as the CLI's
        variant map, so calls from any module go through the wrapper."""
        for layer, names in TRACED.items():
            home = MODULES[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in MODULES.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in value.items():
                                if entry is original:
                                    value[key] = wrapper


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        code = gramrec.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"base_maxrss_kb": base_kb, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
