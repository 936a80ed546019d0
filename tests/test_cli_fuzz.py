"""Generated command lines and model files, valid and mangled, run through
``cli.main`` in-process: every run must end in a documented exit code.

The generator keeps models at dimension <= 2 and range <= 2 and windows at
<= 4 sites so each example runs in milliseconds."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from spincorr import cli

LABELS = ("0", "1", "2", "a")
COUPLINGS = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, 0.045, 0.7, 3.0, 800.0, 1e300]),
)
GARBAGE = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=20
).filter(lambda text: "range" not in text)


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
    # mangling: drop or truncate lines, or insert garbage ones
    ops = draw(st.lists(st.sampled_from("dtg"), min_size=1, max_size=3)) if rarely(draw) else []
    for op in ops:
        i = draw(st.integers(0, len(lines)))
        if op == "g":
            lines.insert(i, draw(GARBAGE))
        elif lines and op == "d":
            lines.pop(min(i, len(lines) - 1))
        elif lines:
            line = lines[min(i, len(lines) - 1)]
            lines[min(i, len(lines) - 1)] = line[: draw(st.integers(0, len(line)))]
    return dim, "\n".join(lines) + "\n"


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


def run(argv: list) -> object:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            return exc.code


def test_every_input_gets_a_documented_exit_code(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.model"

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        text, argv = data.draw(argvs(str(path)))
        path.write_text(text, encoding="utf-8")
        code = run(argv)
        assert isinstance(code, int) and 0 <= code <= 5, (argv, text, code)

    check()
