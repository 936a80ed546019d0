"""Generated command lines and input files (model files, `solve --exact`
tables, `converge --probes` files), valid and mangled, run through
``cli.main`` in-process: every run must end in a documented exit code.

The generator keeps models at dimension <= 2 and range <= 2 and windows at
<= 4 sites so each example runs in milliseconds."""

import contextlib
import io
import itertools
import pathlib

from hypothesis import given, settings, strategies as st

from spincorr import cli

MODELS = pathlib.Path(__file__).parent.parent / "models"

LABELS = ("0", "1", "2", "a")
COUPLINGS = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 0.045, 0.7, 3.0, 800.0, 1e300]),
)
GARBAGE = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=20
).filter(lambda text: "range" not in text)
# garbage rows for the comma-separated table and probe files
FIELDS = st.lists(
    st.text(st.sampled_from("0123456789 -.;xe"), min_size=1, max_size=5),
    min_size=2,
    max_size=3,
).map(",".join)


def rarely(draw) -> bool:
    """True in about an eighth of the examples: most inputs stay valid so
    that the solver paths, not only the input checks, get exercised."""
    return draw(st.integers(0, 7)) == 4


@st.composite
def model_texts(draw):
    dim = draw(st.integers(1, 2))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=3, unique=True))
    vacuum = draw(st.sampled_from(labels))
    radius = draw(st.integers(0, 2))
    lines = [
        f"dimension = {dim}",
        f"spins = {' '.join(labels)}",
        f"vacuum = {vacuum}",
        f"range = {radius}",
    ]
    offset = st.tuples(*[st.integers(-radius, radius)] * dim).filter(any).map(
        lambda off: "(" + ",".join(map(str, off)) + ")"
    )
    label = st.sampled_from(labels if rarely(draw) else [l for l in labels if l != vacuum])
    for _ in range(draw(st.integers(0, 3)) if radius else 0):
        lines.append(
            f"coupling {draw(offset)} {draw(label)} {draw(label)} = {draw(COUPLINGS)!r}"
        )
    if draw(st.booleans()):
        lines.append(f"onebody {draw(label)} = {draw(COUPLINGS)!r}")
    if rarely(draw):
        lines.append(f"perturb ({','.join(['0'] * dim)}) {draw(label)} {draw(label)} = 0.2")
    return dim, mangled(draw, lines, GARBAGE, rarely(draw))


def mangled(draw, lines: list, garbage, mangle: bool) -> str:
    """The lines as a file text; if `mangle`, with lines dropped or
    truncated, or `garbage` lines inserted."""
    ops = draw(st.lists(st.sampled_from("dtg"), min_size=1, max_size=3)) if mangle else []
    for op in ops:
        i = draw(st.integers(0, len(lines)))
        if op == "g":
            lines.insert(i, draw(garbage))
        elif lines and op == "d":
            lines.pop(min(i, len(lines) - 1))
        elif lines:
            line = lines[min(i, len(lines) - 1)]
            lines[min(i, len(lines) - 1)] = line[: draw(st.integers(0, len(line)))]
    return "\n".join(lines) + "\n"


@st.composite
def site_texts(draw, sites, count: int) -> str:
    """`count` distinct sites drawn from the strategy `sites`, ';'-separated."""
    picked = draw(st.lists(sites, min_size=count, max_size=count, unique=True))
    return ";".join(" ".join(map(str, site)) for site in picked)


@st.composite
def table_texts(draw, dim: int):
    """A correlation table as `exact --out` writes it for spins 0 1, mangled
    in half of the examples."""
    sites = st.tuples(*[st.integers(-2, 2)] * dim)
    lines = [
        f"# window = {draw(site_texts(sites, draw(st.integers(1, 3))))}",
        f"# partition_value = {draw(st.floats(0.5, 10.0))!r}",
        "support,spins,value",
        ",,1.0",
    ]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 2))
        labels = ";".join(draw(st.sampled_from("01")) for _ in range(k))
        lines.append(f"{draw(site_texts(sites, k))},{labels},{draw(st.floats(0.0, 1.0))!r}")
    return mangled(draw, lines, FIELDS, draw(st.booleans()))


@st.composite
def probe_texts(draw, sites: list):
    """A probe file of 1-2 probes on `sites` for spins 0 1 (rarely with
    the vacuum 0), mangled in half of the examples."""
    lines = ["# probes"]
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 2))
        labels = ";".join(draw(st.sampled_from("01" if rarely(draw) else "1")) for _ in range(k))
        lines.append(f"{draw(site_texts(st.sampled_from(sites), k))},{labels}")
    return mangled(draw, lines, FIELDS, draw(st.booleans()))


def box_spec(lo: tuple, hi: tuple) -> str:
    return ",".join(map(str, lo)) + ":" + ",".join(map(str, hi))


@st.composite
def window_specs(draw, dim: int):
    """A box of <= 4 sites and a box of <= 4 sites containing it."""
    shapes = [(1,), (2,), (3,), (4,)] if dim == 1 else [(1, 1), (1, 2), (2, 1), (2, 2)]
    inner = draw(st.sampled_from(shapes))
    outer = draw(st.sampled_from([s for s in shapes if all(map(int.__ge__, s, inner))][-2:]))
    lo = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
    spec = [box_spec(lo, tuple(a + n - 1 for a, n in zip(lo, s))) for s in (inner, outer)]
    if rarely(draw):
        mangled = draw(st.sampled_from(["", "abc", "0:", ":", "1:0", "0,0:1", "0:1:2"]))
        return mangled, mangled
    return spec[0], ";".join(spec)


@st.composite
def argvs(draw, path: str):
    dim, text = draw(model_texts())
    window, windows = draw(window_specs(dim))
    command = draw(st.sampled_from(["verify", "exact", "solve", "converge", "bounds"]))
    argv = [command, "--model", path]
    if command == "verify":
        argv += ["--instances", str(draw(st.integers(-1, 0) if rarely(draw) else st.integers(1, 30)))]
        if draw(st.booleans()):
            argv += ["--exhaustive", f"--window={window}"]
    elif command == "exact":
        argv.append(f"--window={window}")
    elif command == "solve":
        argv += [f"--window={window}", "--method"]
        argv.append(draw(st.sampled_from(["iterative", "direct", "both", "both", "fast"])))
        kmax = draw(st.one_of(st.none(), st.integers(-1, 3)))
        if kmax is not None:
            argv += ["--kmax", str(kmax)]
        if draw(st.booleans()):
            argv.append("--override-gate")
    elif command == "converge":
        argv.append(f"--window={windows}")
        if draw(st.booleans()):
            argv.append("--override-gate")
    tol = draw(st.floats() if rarely(draw) else st.one_of(st.none(), st.floats(1e-13, 1e-6)))
    if tol is not None:
        argv.append(f"--tol={tol!r}")
    threads = draw(st.integers(-2, 0) if rarely(draw) else st.integers(1, 3))
    argv.append(f"--threads={threads}")
    return text, argv


@st.composite
def file_argvs(draw, path: str):
    """`solve --exact` with a table file or `converge --probes` with a
    probe file at `path`, on a gated model from models/ whose runs succeed
    with valid files, so that every example reads its file."""
    name, dim = draw(st.sampled_from([("chain_gated", 1), ("grid_gated", 2)]))
    argv = ["--model", str(MODELS / f"{name}.model")]
    inner = box_spec((0,) * dim, (1,) * dim)
    if draw(st.booleans()):
        argv = ["solve", *argv, f"--window={inner}", "--exact", path]
        return draw(table_texts(dim)), argv
    outer = box_spec((-1,) * dim, (2,) * dim if dim == 1 else (1,) * dim)
    argv = ["converge", *argv, f"--window={inner};{outer}", "--probes", path]
    sites = list(itertools.product(range(2), repeat=dim))
    return draw(probe_texts(sites)), argv


def run(argv: list) -> object:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            return exc.code


def check_exit_codes(runs, path: pathlib.Path, max_examples: int) -> None:
    """Draw (file text, argv) from `runs(path)`, write the text to `path`
    and run the argv: it must end in a documented exit code."""

    @settings(max_examples=max_examples, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        text, argv = data.draw(runs(str(path)))
        path.write_text(text, encoding="utf-8")
        code = run(argv)
        assert isinstance(code, int) and 0 <= code <= 5, (argv, text, code)

    check()


def test_every_input_gets_a_documented_exit_code(tmp_path_factory):
    check_exit_codes(argvs, tmp_path_factory.mktemp("fuzz") / "fuzz.model", 200)


def test_every_input_file_gets_a_documented_exit_code(tmp_path_factory):
    check_exit_codes(file_argvs, tmp_path_factory.mktemp("fuzz") / "fuzz.txt", 100)
