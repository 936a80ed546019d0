"""Command-line entry point.

Subcommands wire model files to the library: ``verify`` runs the identity
suites, ``exact`` enumerates a correlation table and checks it against
the correlation equation, ``solve`` runs the fixed-point solvers,
``converge`` runs the window-convergence study, and ``bounds`` prints the
contraction constants.

Exit codes: 0 success, 1 identity failure, 2 input error, 3 enumeration
budget exceeded, 4 contraction gate not certified, 5 solver divergence.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from . import __version__
from .checks import (
    check_environment_condition,
    check_field_consistency,
    check_one_point_consistency,
    environment_plan_random,
    field_plan_random,
    one_point_plan_exhaustive,
    one_point_plan_random,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    EnvironmentConditionError,
    GateNotCertifiedError,
    SolverDivergenceError,
    SpincorrError,
)
from .exact import (
    read_probes,
    read_table,
    rho_exact,
    verify_correlation_equation,
    write_table,
)
from .fields import field_bounds, pair_potential_norm, remark1_sufficiency
from .lattice import MAX_UNKNOWNS, Configuration, box, validate_site
from .modelfile import Model, load_model

DEFAULT_SEED = 20260816
DEFAULT_INSTANCES = 10000
EXHAUSTIVE_WINDOW_LIMIT = 4


def _parse_corner(text: str) -> tuple:
    try:
        return tuple(int(c.strip()) for c in text.split(","))
    except ValueError:
        raise DomainError(f"bad window corner {text!r} (want comma-separated integers)")


def _parse_window(spec: str, dimension: int) -> frozenset:
    """Box corners 'lo:hi', coordinates comma-separated, e.g. '-2,-2:2,2'."""
    lo_text, sep, hi_text = spec.partition(":")
    if not sep:
        raise DomainError(f"bad window spec {spec!r} (want 'lo:hi')")
    lo = _parse_corner(lo_text)
    hi = _parse_corner(hi_text)
    if len(lo) != dimension or len(hi) != dimension:
        raise DomainError(
            f"window spec {spec!r} has dimension {len(lo)}/{len(hi)}, "
            f"model has dimension {dimension}"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise DomainError(f"window spec {spec!r} has lo > hi")
    # counted before the box is built: no job solves or enumerates more sites
    if (sites := math.prod(b - a + 1 for a, b in zip(lo, hi))) > MAX_UNKNOWNS:
        raise BudgetExceededError(f"window {spec!r} has {sites} sites, limit is {MAX_UNKNOWNS}")
    validate_site(lo)
    validate_site(hi)
    return box(lo, hi)


def _parse_windows(spec: str, dimension: int) -> list:
    parts = [p for p in spec.split(";") if p.strip()]
    if not parts:
        raise DomainError("empty window spec")
    return [_parse_window(p.strip(), dimension) for p in parts]


def _center_site(window: frozenset) -> tuple:
    dimension = len(next(iter(window)))
    center = []
    for axis in range(dimension):
        coords = sorted(s[axis] for s in window)
        center.append(coords[len(coords) // 2])
    site = tuple(center)
    return site if site in window else min(sorted(window))


def _default_probes(window: frozenset, model: Model) -> list:
    site = _center_site(window)
    return [
        Configuration(((site, spin),)) for spin in model.spins.star_indices
    ]


def _headers(model: Model, args, tol: float) -> dict:
    return {
        "tool_version": __version__,
        "model_digest": model.digest,
        "seed": str(getattr(args, "seed", DEFAULT_SEED)),
        "tolerance": repr(tol),
    }


def _emit(lines: list, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    if args.instances < 1:
        raise DomainError(f"--instances must be at least 1, got {args.instances}")
    model = load_model(args.model)
    field = model.field
    tol = args.tol if args.tol is not None else 1e-10
    rng = random.Random(args.seed)

    if args.exhaustive:
        if not args.window:
            raise DomainError("--exhaustive needs --window")
        window = _parse_window(args.window, model.dimension)
        if len(window) > EXHAUSTIVE_WINDOW_LIMIT:
            raise DomainError(
                f"exhaustive mode is limited to windows of at most "
                f"{EXHAUSTIVE_WINDOW_LIMIT} sites, got {len(window)}"
            )
        one_point_plan = one_point_plan_exhaustive(field, window)
    else:
        one_point_plan = one_point_plan_random(field, rng, args.instances)

    reports = [
        check_one_point_consistency(field, one_point_plan, tol),
        check_field_consistency(
            field, field_plan_random(field, rng, args.instances), tol
        ),
        check_environment_condition(
            field, environment_plan_random(field, rng, args.instances), tol
        ),
    ]
    lines = [f"# {k} = {v}" for k, v in _headers(model, args, tol).items()]
    lines.extend(r.summary() for r in reports)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        lines.append(f"witness[{r.name}]: {r.witness}")
    _emit(lines, args.out)
    return 1 if failed else 0


def cmd_exact(args) -> int:
    model = load_model(args.model)
    if not args.window:
        raise DomainError("exact needs --window")
    window = _parse_window(args.window, model.dimension)
    tol = args.tol if args.tol is not None else 1e-9
    table = rho_exact(model.field, window)
    report = verify_correlation_equation(model.field, window, table, tol)
    if args.out:
        write_table(args.out, table, model.spins, _headers(model, args, tol))
    lines = [
        f"window_sites = {len(window)}",
        f"partition_value = {table.partition_value!r}",
        f"table_entries = {len(table.codes)}",
        report.summary(),
    ]
    if not report.passed:
        lines.append(f"witness[{report.name}]: {report.witness}")
    _emit(lines, None)
    return 0 if report.passed else 1


def cmd_solve(args) -> int:
    from .solver import solve_finite_volume, solve_infinite_volume

    model = load_model(args.model)
    if not args.window:
        raise DomainError("solve needs --window")
    window = _parse_window(args.window, model.dimension)
    tol = args.tol if args.tol is not None else 1e-12

    if args.kmax is None:
        solution, report = solve_finite_volume(
            model.field,
            window,
            tol=tol,
            method=args.method,
            override_gate=args.override_gate,
        )
    else:
        solution, report = solve_infinite_volume(
            model.field,
            window,
            tol=tol,
            k_max=args.kmax,
            method=args.method,
            override_gate=args.override_gate,
        )

    headers = _headers(model, args, tol)
    headers.update(
        {
            "method": report.method,
            "unknowns": str(report.unknowns),
            "iterations": str(report.iterations),
            "residual_norm": repr(report.residual_norm),
            "operator_norm_bound": repr(report.operator_norm_bound),
            "empirical_contraction_rate": repr(report.empirical_contraction_rate),
            "certified": str(report.certified).lower(),
            "overridden": str(report.overridden).lower(),
            "truncation_tail": repr(report.truncation_tail),
        }
    )
    if args.out:
        write_table(args.out, solution, model.spins, headers)

    lines = [f"{k} = {v}" for k, v in headers.items() if k != "tolerance"]
    lines.insert(0, f"tolerance = {tol!r}")
    if report.final_update_norm:
        lines.append(f"final_update_norm = {report.final_update_norm!r}")
    if report.direct_deviation is not None:
        lines.append(f"direct_deviation = {report.direct_deviation!r}")
    if report.tail_bounds:
        for depth, eps in report.tail_bounds:
            lines.append(f"tail_bound[d={depth}] = {eps!r}")

    if args.exact:
        exact_table = read_table(args.exact, model.spins)
        for site in exact_table.sites:
            if len(site) != model.dimension:
                raise DomainError(
                    f"{args.exact}: site {site!r} is not {model.dimension}-dimensional"
                )
        matched = [c for c in exact_table.values if c in solution.values]
        if not any(matched):
            raise DomainError(
                f"{args.exact}: no nonempty entry matches a solved configuration"
            )
        deviations = [abs(solution.values[c] - exact_table.values[c]) for c in matched]
        lines.append(f"max_deviation_vs_exact = {max(deviations)!r}")
    _emit(lines, None)
    return 0


def cmd_converge(args) -> int:
    from .solver import convergence_profile, series_lines, write_series

    model = load_model(args.model)
    if not args.window:
        raise DomainError("converge needs --window with at least two boxes")
    windows = _parse_windows(args.window, model.dimension)
    tol = args.tol if args.tol is not None else 1e-12
    if args.probes:
        probes = read_probes(args.probes, model.spins)
    else:
        probes = _default_probes(windows[0], model)

    series = convergence_profile(
        model.field,
        windows,
        probes,
        tol=tol,
        override_gate=args.override_gate,
    )
    if args.out:
        write_series(args.out, series, _headers(model, args, tol))
    _emit(series_lines(series), None)
    return 0


def cmd_bounds(args) -> int:
    model = load_model(args.model)
    bounds = field_bounds(model.field)
    # Remark 1 gates vacuum potentials only
    pair_norm = remark1_lhs = remark1 = "unavailable"
    if model.potential.vacuum:
        phi_norm = pair_potential_norm(model.potential, model.spins)
        remark_lhs, remark_pass = remark1_sufficiency(phi_norm, model.spins.n_x)
        pair_norm, remark1_lhs = repr(phi_norm), repr(remark_lhs)
        remark1 = "pass" if remark_pass else "FAIL"
    lines = [f"# {k} = {v}" for k, v in _headers(model, args, 0.0).items() if k != "tolerance"]
    lines.extend(
        [
            f"norm_delta1 = {bounds.norm_delta1!r}",
            f"decay_total = {bounds.decay_total!r}",
            f"n_x = {bounds.n_x}",
            f"c1 = {bounds.c1!r}",
            f"c1_proof = {bounds.c1_proof!r}",
            f"c2 = {bounds.c2!r}",
            f"contraction_lhs = {bounds.contraction_lhs!r}",
            f"gate = {'pass' if bounds.passes else 'FAIL'}",
            f"pair_norm = {pair_norm}",
            f"remark1_lhs = {remark1_lhs}",
            f"remark1 = {remark1}",
        ]
    )
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description=(
            "Transition energy fields, exact correlation tables, and "
            "correlation-equation solvers for lattice spin systems"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--window", help="box corners 'lo:hi' (use --window=-2:2)")
        p.add_argument("--tol", type=float, default=None, help="check tolerance")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="output file path")
        p.add_argument(
            "--threads", type=int, default=1, help="ignored; runs are single-threaded"
        )

    p = sub.add_parser("verify", help="run the identity suites on a model")
    common(p)
    p.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="exhaustive one-point plan over --window (at most 4 sites)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="enumerate a correlation table")
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("solve", help="solve the correlation equation")
    common(p)
    p.add_argument(
        "--kmax",
        type=int,
        default=None,
        help="support-size cap; switches to the window iteration of the "
        "infinite-volume equation",
    )
    p.add_argument(
        "--method",
        choices=("iterative", "direct", "both"),
        default="iterative",
    )
    p.add_argument("--override-gate", action="store_true")
    p.add_argument("--exact", help="exact table file to compare against")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="window-convergence study")
    common(p)
    p.add_argument("--probes", help="probe file ('sites,labels' rows)")
    p.add_argument("--override-gate", action="store_true")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("bounds", help="print contraction constants")
    common(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def _check_common(args) -> None:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise DomainError(f"--tol must be finite and > 0, got {args.tol!r}")
    if args.threads < 1:
        raise DomainError(f"--threads must be at least 1, got {args.threads}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_common(args)
        return args.func(args)
    except EnvironmentConditionError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        print(f"witness: {exc.witness} (residual {exc.residual!r})", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except GateNotCertifiedError as exc:
        print(f"gate not certified: {exc}", file=sys.stderr)
        return 4
    except SolverDivergenceError as exc:
        print(
            f"solver divergence: {exc} "
            f"(rate estimate {exc.rate!r} after {exc.iterations} iterations)",
            file=sys.stderr,
        )
        return 5
    # the remaining program errors: ModelFileError, ModelDefinitionError, DomainError
    except (SpincorrError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
