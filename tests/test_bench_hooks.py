"""The benchmark's tracer (``perfbench/tracing.py``) patches program
attributes by name.  Installing and removing its hooks must keep working
when those names move, or only the traced benchmark run would notice."""

import pathlib

from spincorr import EMPTY_CONFIG, cli, exact, solver
from spincorr.modelfile import load_model

ROOT = pathlib.Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
MODEL = str(ROOT / "models" / "chain_gated.model")

# one job per benchmark workload, at test size
JOBS = [
    ["exact", "--model", MODEL, "--window=0:2", "--threads", "2"],
    ["solve", "--model", MODEL, "--window=0:3", "--method", "both"],
]


def import_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_and_counter_hooks_install_and_restore(monkeypatch):
    tracing = import_tracing(monkeypatch)
    targets = [t for ts in tracing.SPAN_TARGETS.values() for t in ts]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.Tracer().installed():
        pass
    with tracing.Counter().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr in targets] == before


def test_counter_counts_real_jobs(monkeypatch, capsys):
    tracing = import_tracing(monkeypatch)
    for argv in JOBS:
        counter = tracing.Counter()
        with counter.installed():
            assert cli.main(argv) == 0
        assert counter.counts["parallel.blocks"] > 0
        assert counter.counts["parallel.pool_blocks"] == 0
        assert counter.counts["fields.eval_calls"] > 0
    assert counter.counts["solver.iterations"] > 0


def test_counter_counts_repeat_exactly(monkeypatch, capsys):
    # the benchmark's two count passes must agree; state left behind by one
    # exact job (a cache outliving its call) would show here
    tracing = import_tracing(monkeypatch)
    runs = []
    for _ in range(2):
        counter = tracing.Counter()
        with counter.installed():
            assert cli.main(JOBS[0]) == 0
        runs.append(counter.counts)
    assert runs[0] == runs[1]
    assert runs[0]["fields.eval_calls"] > 0


def test_counter_counts_equal_a_materialized_context(monkeypatch, capsys):
    # the solve job's window 0:3 at the finite-volume k_max
    tracing = import_tracing(monkeypatch)
    counter = tracing.Counter()
    with counter.installed():
        assert cli.main(JOBS[1]) == 0
    window = frozenset((i,) for i in range(4))
    ctx = solver.OperatorContext(load_model(MODEL).field, window, len(window))
    ctx.materialize()
    counts = counter.counts
    assert counts["solver.row_nnz"] == len(ctx.data)
    assert counts["solver.unknowns"] == len(ctx.domain)
    assert counts["solver.memo_entries"] == (
        len(ctx._weights_memo) + len(ctx._kfac_memo)
    )


def test_tracer_spans_real_jobs(monkeypatch, capsys):
    tracing = import_tracing(monkeypatch)
    tracer = tracing.Tracer()
    for argv in JOBS:
        with tracer.job_span():
            assert cli.main(argv) == 0
    names = {span[0] for span in tracer.spans}
    assert {
        "exact.enumerate",
        "exact.oracle",
        "solver.domain",
        "solver.materialize",
        "solver.matvec",
        "solver.iterate",
        "solver.direct",
        "solver.certificate",
    } <= names


def test_exact_job_blocks_are_the_marginal_walk(monkeypatch, capsys):
    # the benchmark's exact job: only the self-check's Z walks, through
    # map_blocks; the table's weights come from one telescoped pass
    tracing = import_tracing(monkeypatch)
    counter = tracing.Counter()
    with counter.installed():
        assert cli.main(["exact", "--model", MODEL, "--window=0:11"]) == 0
    window = frozenset((i,) for i in range(12))
    table = exact._TransitionTable(load_model(MODEL).field, window, EMPTY_CONFIG)
    marginal = table.blocks()
    assert len(marginal) == 2
    assert counter.counts["parallel.blocks"] == len(marginal)
