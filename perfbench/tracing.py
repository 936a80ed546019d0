"""Spans and counters recorded from outside the program.

``Tracer`` wraps the entry points of each layer, where the callers look
them up (``cli`` and ``solver`` import most of them by name), and keeps
spans in memory.  ``Counter`` wraps the hot inner calls for the separate,
untimed count pass.  Both patch module and class attributes and restore
them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

from spincorr import checks, cli, exact, fields, lattice, solver

Ctx = solver.OperatorContext

# span name -> the attributes that reach that layer
SPAN_TARGETS = {
    "modelfile.load": [(cli, "load_model")],
    "fields.bounds": [(cli, "field_bounds"), (solver, "field_bounds")],
    "checks.env_gate": [
        (cli, "check_environment_condition"),
        (solver, "check_environment_condition"),
        (checks, "check_environment_condition"),
    ],
    "solver.domain": [(Ctx, "__init__")],
    "solver.materialize": [(Ctx, "materialize")],
    "solver.matvec": [(Ctx, "matvec")],
    "solver.iterate": [(solver, "_iterate")],
    "solver.direct": [(solver, "_direct_solve")],
    "solver.certificate": [(Ctx, "dropped_bstar"), (solver, "epsilon_bound")],
    "exact.enumerate": [(cli, "rho_exact")],
    "exact.oracle": [(cli, "verify_correlation_equation")],
    "exact.table_io": [(cli, "write_table")],
}
ROOT_SPAN = "cli"


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute) -> value for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for (owner, attr) in replacements]
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans: [name, start, end, parent index, job id].

    Every wrapped layer runs on the calling thread (the thread pool only
    runs unwrapped inner blocks), so one stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def job_span(self):
        """One traced job: wrappers installed, under a new root span."""
        self.job += 1
        with self.installed(), self.span(ROOT_SPAN):
            yield

    def installed(self):
        return patched(
            {
                target: self._wrap(name, target[0].__dict__[target[1]])
                for name, targets in SPAN_TARGETS.items()
                for target in targets
            }
        )


class Counter:
    """Work counts for one job, from wrapped inner calls."""

    def __init__(self):
        self.counts = {
            "fields.eval_calls": 0,
            "exact.walker_steps": 0,
            "solver.rows": 0,
            "solver.j_terms_enumerated": 0,
            "solver.j_terms_nonzero": 0,
            "solver.unknowns": 0,
            "solver.row_nnz": 0,
            "solver.memo_entries": 0,
            "solver.matvec_calls": 0,
            "solver.iterations": 0,
            "solver.direct_bytes": 0,
            "parallel.blocks": 0,
            "parallel.pool_blocks": 0,
            "checks.env_instances": 0,
        }

    def installed(self):
        counts = self.counts
        lock = threading.Lock()  # the exact walker runs on pool threads

        def add(key, n=1):
            with lock:
                counts[key] += n

        eval_ = fields.PairField.eval
        advance = exact._VolumeWalker.advance
        row = Ctx.row
        materialize = Ctx.materialize
        matvec = Ctx.matvec
        iterate = solver._iterate
        direct = solver._direct_solve
        map_blocks = exact.map_blocks
        env = checks.check_environment_condition

        def count_eval(self, *args):
            add("fields.eval_calls")
            return eval_(self, *args)

        def count_advance(self):
            add("exact.walker_steps")
            return advance(self)

        def count_row(self, x):
            result = row(self, x)
            t = x.items[0][0]
            candidates = lattice.ball(t, self.radius) - x.support
            if self.restrict_to_window:
                candidates &= self.window
            n_star = len(self._star)
            keys = result[1]
            add("solver.rows")
            add("solver.j_terms_enumerated", (1 + n_star) ** len(candidates) - 1)
            add("solver.j_terms_nonzero", (len(keys) - (len(x) > 1)) // (1 + n_star))
            return result

        def count_materialize(self, *args, **kwargs):
            materialize(self, *args, **kwargs)
            add("solver.unknowns", len(self.domain))
            add("solver.row_nnz", sum(len(r[1]) for r in self.rows))
            add("solver.memo_entries", len(self._weights_memo) + len(self._kfac_memo))

        def count_matvec(self, *args, **kwargs):
            add("solver.matvec_calls")
            return matvec(self, *args, **kwargs)

        def count_iterate(ctx, *args, **kwargs):
            result = iterate(ctx, *args, **kwargs)
            add("solver.iterations", result[1])
            return result

        def count_direct(ctx):
            # the dense system matrix, computed from its shape (float64)
            add("solver.direct_bytes", 8 * len(ctx.domain) ** 2)
            return direct(ctx)

        def count_map_blocks(fn, ranges, threads=1):
            add("parallel.blocks", len(ranges))
            if threads > 1 and len(ranges) > 1:
                add("parallel.pool_blocks", len(ranges))
            return map_blocks(fn, ranges, threads)

        def count_env(field, plan, *args, **kwargs):
            add("checks.env_instances", len(plan))
            return env(field, plan, *args, **kwargs)

        return patched(
            {
                (fields.PairField, "eval"): count_eval,
                (exact._VolumeWalker, "advance"): count_advance,
                (Ctx, "row"): count_row,
                (Ctx, "materialize"): count_materialize,
                (Ctx, "matvec"): count_matvec,
                (solver, "_iterate"): count_iterate,
                (solver, "_direct_solve"): count_direct,
                (exact, "map_blocks"): count_map_blocks,
                (solver, "map_blocks"): count_map_blocks,
                (cli, "check_environment_condition"): count_env,
                (solver, "check_environment_condition"): count_env,
                (checks, "check_environment_condition"): count_env,
            }
        )
