"""Correlation-equation operator and Neumann-series solvers.

The correlation function solves a fixed-point equation rho = delta + K rho
where K = gamma (S + T) acts on functions over finite non-vacuum
configurations.  This module materializes the operator rows over a finite
domain of integer codes (supports inside a window, support size capped by
k_max), iterates the equation, optionally cross-checks with a sparse direct
(LU) solve, and hands the values on by code in a `CorrelationTable`; it
also evaluates the contraction and tail bounds that certify convergence.

Row coefficients: for a configuration x with minimal site t and remainder
x', the equation reads

    rho(x) = gamma(x) [ 1_{|I|=1} + 1_{|I|>1} rho(x')
             + sum_{J,y} kappa(J,y) (rho(x'y) - sum_b rho(b x'y)) ]

with kappa(J,y) = K(x_t,y)(1 + sum_a w_a) - sum_a w_a K(a,y), where w_a
are the single-site exponential weights at boundary x' and K(a,y) is the
product kernel.  Kernel factors vanish outside the field's neighbourhood
(``ball_offsets()``: for a pair field, the offsets of its nonzero
couplings), so the J-sum over subsets of that neighbourhood around t is
exact for finite-range fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

# check_environment_condition is not called here; the benchmark hooks patch this name
from .checks import check_environment_condition, require_environment_condition
from .errors import (
    BudgetExceededError,
    DomainError,
    GateNotCertifiedError,
    SolverDivergenceError,
)
from .exact import CorrelationTable, map_blocks, rho_probe
from .fields import (
    FieldBounds,
    OnePointField,
    _exp,
    decay_sums,
    field_bounds,
    require_homogeneous,
)
from .lattice import (
    MAX_UNKNOWNS,
    Configuration,
    distance_to_complement,
    interior,
)

DEFAULT_TOL = 1e-12
RESIDUAL_TOL = 1e-10
FALLBACK_MAX_ITERS = 3000
PROFILE_SOLVER_LIMIT = 2 ** 10
RATE_NOISE_FLOOR = 1e-11


def _fsum(terms: Sequence[float]) -> float:
    """math.fsum, or the plain sum (inf or nan) where fsum raises on the
    overflow or inf - inf that huge couplings under the override produce."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def bstar_norm(table: Mapping[Configuration, float]) -> float:
    """Sequence-space norm: the largest per-support sum of absolute values.

    The empty configuration does not belong to any support class."""
    groups: dict = {}
    for config, value in table.items():
        if not config:
            continue
        key = tuple(site for site, _ in config.items)
        groups.setdefault(key, []).append(abs(value))
    return max((_fsum(vs) for vs in groups.values()), default=0.0)


@dataclass(frozen=True)
class SolveReport:
    method: str
    unknowns: int
    iterations: int
    max_iters: int
    final_update_norm: float
    residual_norm: float
    operator_norm_bound: float
    empirical_contraction_rate: float
    certified: bool
    overridden: bool
    truncation_tail: float
    direct_deviation: float | None = None
    tail_bounds: tuple | None = None


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


class OperatorContext:
    """Materialized operator rows over an explicit configuration domain.

    The domain lists every non-vacuum configuration with support inside
    the window and support size at most k_max, in a fixed order that keeps
    each support's configurations together (from ``group_starts`` on).
    ``codes`` holds it: a code sums (1 + star position of the spin) *
    base**rank(site) over the sorted window; ``domain`` decodes it.  Each
    row stores the free term, the referenced domain indices with
    coefficients, and the absolute mass of references that fall outside
    the domain (those reads are 0 during iteration; the mass feeds the
    truncation certificate); both solve routes read the flat arrays
    ``materialize`` makes of them."""

    def __init__(
        self,
        field: OnePointField,
        window: frozenset,
        k_max: int,
        restrict_to_window: bool = True,
    ):
        if k_max < 1:
            raise DomainError("k_max must be >= 1")
        require_homogeneous(field)
        self.field = field
        self.spins = field.spins
        self.window = frozenset(window)
        self.k_max = min(k_max, len(self.window))
        self.radius = field.radius  # unused here; the benchmark's row counter reads it
        self.restrict_to_window = restrict_to_window
        self._vac = self.spins.vacuum_index
        self._star = self.spins.star_indices
        self._weights_memo: dict = {}
        self._kfac_memo: dict = {}
        self._origin = field.origin()

        n_sites = len(self.window)
        count = sum(
            math.comb(n_sites, k) * self.spins.n_x ** k
            for k in range(1, self.k_max + 1)
        )
        if count > MAX_UNKNOWNS:
            raise BudgetExceededError(
                f"operator domain needs {count} unknowns, limit is {MAX_UNKNOWNS}"
            )
        places = [(self.spins.n_x + 1) ** i for i in range(n_sites)]
        self.codes: list = []
        self.group_starts: list = []
        for k in range(1, self.k_max + 1):
            digits = list(product(range(1, self.spins.n_x + 1), repeat=k))
            start = len(self.codes)
            self.codes += [sum(map(mul, d, p)) for p, d in product(combinations(places, k), digits)]
            self.group_starts += range(start, len(self.codes), len(digits))
        self.rows: list | None = None

    def _pairs(self) -> Iterator[tuple]:
        """(support, spins) of every unknown, in domain order."""
        return chain.from_iterable(
            product(combinations(sorted(self.window), k), product(self._star, repeat=k))
            for k in range(1, self.k_max + 1)
        )

    @cached_property
    def domain(self) -> tuple:
        """The unknowns as Configurations, in domain order."""
        return tuple(Configuration._make(tuple(zip(*pair))) for pair in self._pairs())

    def _gamma_weights(self, t: tuple, rest: tuple) -> tuple:
        """(denominator, weights-by-star-spin) for boundary items rest at t;
        only the items in t's ball (``field.ball_offsets()``) enter."""
        field = self.field
        ball = field.ball_offsets()
        key = tuple([(off, sp) for s, sp in rest if (off := _sub(s, t)) in ball])
        got = self._weights_memo.get(key)
        if got is None:
            boundary = {_add(t, off): sp for off, sp in key}
            vac = self._vac
            weights = tuple(
                _exp(field.eval(t, boundary, a, vac)) for a in self._star
            )
            got = (1.0 + _fsum(weights), weights)
            self._weights_memo[key] = got
        return got

    def kernel_factor(self, t: tuple, s: tuple, a: int, b: int) -> float:
        """exp{(energy of b at s with boundary a at t) - (free energy)} - 1."""
        key = (_sub(t, s), a, b)
        got = self._kfac_memo.get(key)
        if got is None:
            field = self.field
            origin = self._origin
            vac = self._vac
            shifted = field.eval(origin, {key[0]: a}, b, vac)
            free = field.eval(origin, {}, b, vac)
            got = _exp(shifted - free) - 1.0
            self._kfac_memo[key] = got
        return got

    def row(self, x: Configuration) -> tuple:
        """(free_term, keys, coeffs) for one domain entry.  A key lists the
        (offset from t, spin) pairs of its sites outside x's remainder: ()
        for the remainder itself, the y sites for rest + y, and those plus
        t's zero offset for rest + y + beta at t."""
        if not x:
            raise DomainError("cannot split the empty configuration")
        (t, x_t), rest = x.items[0], x.items[1:]
        denom, weights = self._gamma_weights(t, rest)
        star = self._star
        gamma_x = weights[star.index(x_t)] / denom
        free_term = gamma_x if len(x) == 1 else 0.0
        keys: list = []
        coeffs: list = []
        if len(x) > 1:
            keys.append(())
            coeffs.append(gamma_x)

        candidates = {_add(t, off) for off in self.field.ball_offsets()} - x.support
        if self.restrict_to_window:
            candidates &= self.window
        kf = self.kernel_factor
        sites = sorted(candidates)
        zero = _sub(t, t)
        weight_sum = denom  # 1 + sum of star weights
        for k in range(1, len(sites) + 1):
            for subset in combinations(sites, k):
                for assignment in product(star, repeat=k):
                    k_by_spin = []
                    for a in star:
                        prod_a = 1.0
                        for s, b in zip(subset, assignment):
                            prod_a *= kf(t, s, a, b)
                            if prod_a == 0.0:
                                break
                        k_by_spin.append(prod_a)
                    k_x = k_by_spin[star.index(x_t)]
                    kappa = k_x * weight_sum - _fsum(
                        [w * ka for w, ka in zip(weights, k_by_spin)]
                    )
                    coeff = gamma_x * kappa
                    if coeff == 0.0:
                        continue
                    y = tuple([(_sub(s, t), b) for s, b in zip(subset, assignment)])
                    keys.append(y)
                    coeffs.append(coeff)
                    for beta in star:
                        keys.append(y + ((zero, beta),))
                        coeffs.append(-coeff)
        return free_term, keys, coeffs

    def materialize(self) -> None:
        """Resolve all rows to domain indices and flatten them into arrays.
        References outside the domain become per-row dropped mass.

        Under a homogeneous field a row depends on x only through its
        shape: the spin x_t at the minimal site t, the remainder's (offset,
        spin) pairs inside the ball around t, the window clip of that ball
        (with them, it fixes the candidate sites) and whether x has more
        sites than t.  ``row`` builds each shape once, from its first
        entry as a Configuration; the other entries of that shape are
        stamped from it by their ``codes``.  A key's code is the
        remainder's code plus the code of the key's (offset, spin) pairs
        placed at t.  Such a key is in the domain exactly when those sites
        lie in the window and it has at most k_max sites, so t and the
        entry's size fix which keys drop.  All rows are one job."""
        if self.rows is not None:
            return
        import numpy

        codes = self.codes
        k_max = self.k_max
        base = len(self._star) + 1
        digit = {a: i for i, a in enumerate(self._star, 1)}
        place = {s: base ** i for i, s in enumerate(sorted(self.window))}
        code_index = dict(zip(codes, range(len(codes))))
        offsets = self.field.ball_offsets()
        site_shapes: dict = {}  # t -> (window sites in its ball -> offset, clip)
        for t in self.window:
            near = {s: off for off in offsets if (s := _add(t, off)) in self.window}
            clip = frozenset(near.values()) if self.restrict_to_window else None
            site_shapes[t] = (near, clip)
        templates: dict = {}  # shape -> (free_term, keys, coeffs, stamps)

        def stamp(keys: list, coeffs: list, t: tuple, size: int) -> tuple:
            """(code of each kept key's sites placed at t, the kept
            coefficients, dropped mass) for entries of `size` sites."""
            deltas = []
            kept = []
            dropped = 0.0
            for key, coeff in zip(keys, coeffs):
                at = [place.get(_add(t, off)) for off, _ in key]
                if size - 1 + len(key) > k_max or None in at:
                    dropped += abs(coeff)
                else:
                    deltas.append(sum(digit[sp] * p for (_, sp), p in zip(key, at)))
                    kept.append(coeff)
            return deltas, tuple(kept), dropped

        def job(start: int, stop: int) -> list:
            out = []
            pairs = islice(self._pairs(), start, stop)
            for i, (support, spins) in enumerate(pairs, start):
                t, x_t, size = support[0], spins[0], len(support)
                near, clip = site_shapes[t]
                shape = (
                    x_t,
                    tuple([(near[s], sp) for s, sp in zip(support, spins) if s in near]),
                    clip,
                    size > 1,
                )
                got = templates.get(shape)
                if got is None:
                    x = Configuration._make(tuple(zip(support, spins)))
                    got = templates[shape] = (*self.row(x), {})
                free_term, keys, coeffs, stamps = got
                placed = stamps.get((t, size))
                if placed is None:
                    placed = stamps[t, size] = stamp(keys, coeffs, t, size)
                deltas, kept, dropped = placed
                rest_code = codes[i] - digit[x_t] * place[t]
                idxs = tuple([code_index[rest_code + d] for d in deltas])
                out.append((free_term, idxs, kept, dropped))
            return out

        (rows,) = map_blocks(job, [(0, len(codes))])
        self.rows = rows
        self.free = numpy.array([row[0] for row in rows], float)
        lengths = [len(row[1]) for row in rows]
        self.row_ids = numpy.repeat(numpy.arange(len(rows)), lengths)
        self.indices = numpy.fromiter(chain.from_iterable(row[1] for row in rows), int)
        self.data = numpy.fromiter(chain.from_iterable(row[2] for row in rows), float)
        self.group_starts = numpy.asarray(self.group_starts)

    def dropped_bstar(self) -> float:
        """Largest per-support sum of dropped reference mass; feeds the
        truncation certificate of window-restricted solves.  Equals
        ``bstar_norm`` of the nonzero dropped masses: supports are the
        domain's contiguous groups, and zeros leave an fsum unchanged."""
        assert self.rows is not None
        dropped = [row[3] for row in self.rows]
        if not any(dropped):  # every finite-volume solve
            return 0.0
        bounds = self.group_starts.tolist() + [len(dropped)]
        groups = (dropped[a:b] for a, b in zip(bounds, bounds[1:]))
        return max((_fsum(g) for g in groups if any(g)), default=0.0)

    def matvec(self, phi):
        """K phi (no free term) as a numpy array; empty rows give exactly 0."""
        import numpy

        terms = self.data * numpy.asarray(phi, float)[self.indices]
        return numpy.bincount(self.row_ids, weights=terms, minlength=len(self.free))

    def group_norm(self, vec) -> float:
        """bstar_norm of a domain vector: the largest per-support sum of |v|."""
        import numpy

        return float(numpy.add.reduceat(numpy.abs(vec), self.group_starts).max())


def _contraction_gate(
    bounds: FieldBounds, override: bool
) -> tuple:
    certified = bounds.passes
    if not certified and not override:
        raise GateNotCertifiedError(
            "contraction gate fails: "
            f"max(C1, C1') (1 + C2) = {bounds.contraction_lhs!r} >= 1; "
            "run with the gate override to proceed anyway (unverified)"
        )
    return certified, (not certified) and override


def _auto_max_iters(bound: float, tol: float, certified: bool) -> int:
    if certified and 0.0 < bound < 1.0:
        predicted = 10 * math.ceil(math.log(tol) / math.log(bound))
        return max(predicted, 10)
    return FALLBACK_MAX_ITERS


def _iterate(ctx: OperatorContext, tol: float, limit: int) -> tuple:
    import numpy

    free = ctx.free
    phi = free
    updates: list = []
    iterations = 0
    converged = False
    # non-finite rows (huge couplings, override) end in the checks, not in warnings
    with numpy.errstate(invalid="ignore", over="ignore"):
        while iterations < limit:
            new = free + ctx.matvec(phi)
            update = ctx.group_norm(new - phi)
            phi = new
            iterations += 1
            updates.append(update)
            if update <= tol:
                converged = True
                break
            if update > 1e12 or (
                len(updates) >= 4
                and updates[-1] > updates[-2] > updates[-3] > updates[-4]
                and updates[-1] > 100.0 * updates[0]
                and updates[-1] > 1e-6
            ):
                rate = updates[-1] / updates[-2] if len(updates) > 1 else math.inf
                raise SolverDivergenceError(
                    f"update norms are growing ({update!r} after {iterations} "
                    "iterations); the iteration does not contract here",
                    rate=rate,
                    iterations=iterations,
                )
            if math.isnan(update):
                raise SolverDivergenceError(
                    f"update norm is nan after {iterations} iterations",
                    rate=math.inf,
                    iterations=iterations,
                )

    if not converged:
        rate = updates[-1] / updates[-2] if len(updates) > 1 else math.inf
        raise SolverDivergenceError(
            f"no convergence within {limit} iterations "
            f"(last update norm {updates[-1]!r})",
            rate=rate,
            iterations=limit,
        )

    residual = ctx.group_norm(phi - free - ctx.matvec(phi))
    if residual > (bound := max(tol, RESIDUAL_TOL)):  # a loose tol leaves ~tol
        raise SolverDivergenceError(
            f"converged updates but residual {residual!r} exceeds {bound!r}",
            rate=updates[-1] / updates[-2] if len(updates) > 1 else 0.0,
            iterations=iterations,
        )

    rate = 0.0
    for prev, cur in zip(updates, updates[1:]):
        if prev >= RATE_NOISE_FLOOR:
            rate = max(rate, cur / prev)
    return phi, iterations, updates[-1] if updates else 0.0, residual, rate


def _direct_solve(ctx: OperatorContext) -> numpy.ndarray:
    """Solve (I - K) rho = free by sparse LU on the materialized arrays."""
    import numpy
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import splu

    assert ctx.rows is not None
    n = len(ctx.codes)
    kernel = csr_matrix((ctx.data, (ctx.row_ids, ctx.indices)), shape=(n, n))
    system = (identity(n, format="csc") - kernel).tocsc()
    try:
        solution = splu(system).solve(ctx.free)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverDivergenceError(
            f"direct linear solve failed: {exc}", rate=math.inf, iterations=0
        )
    if not numpy.all(numpy.isfinite(solution)):
        raise SolverDivergenceError(
            "direct linear solve produced non-finite values",
            rate=math.inf,
            iterations=0,
        )
    return solution


def _solve(
    field: OnePointField,
    window: frozenset,
    k_max: int,
    restrict_to_window: bool,
    tol: float,
    method: str,
    override_gate: bool,
) -> tuple:
    if not window:
        raise DomainError("window must be nonempty")
    if method not in ("iterative", "direct", "both"):
        raise DomainError(f"unknown solve method {method!r}")
    # the gate runs first: with a huge coupling, rounding in the field makes
    # the identity check fail although the field satisfies it
    bounds = field_bounds(field)
    certified, overridden = _contraction_gate(bounds, override_gate)
    require_environment_condition(field, 1e-10)
    bound = bounds.contraction_lhs
    ctx = OperatorContext(field, window, k_max, restrict_to_window)
    ctx.materialize()
    limit = _auto_max_iters(bound, tol, certified)

    direct_vec = None
    if method in ("direct", "both"):
        direct_vec = _direct_solve(ctx)
    phi_vec = None
    iterations = 0
    update_norm = 0.0
    residual = 0.0
    rate = 0.0
    if method in ("iterative", "both"):
        phi_vec, iterations, update_norm, residual, rate = _iterate(
            ctx, tol, limit
        )

    direct_deviation = None
    if phi_vec is not None and direct_vec is not None:
        direct_deviation = float(abs(phi_vec - direct_vec).max())
    values = phi_vec if phi_vec is not None else direct_vec

    dropped = ctx.dropped_bstar()
    if dropped > 0.0 and certified:
        # error relay: correlation values are bounded by 1, so dropped
        # reads perturb the fixed point by at most dropped/(1 - bound)
        truncation_tail = dropped / (1.0 - bound)
    else:
        truncation_tail = dropped

    codes = dict(zip(ctx.codes, values.tolist()))
    codes[0] = 1.0  # the empty configuration
    solution = CorrelationTable.from_codes(window, ctx._star, codes, None, ctx.k_max)
    report = SolveReport(
        method=method,
        unknowns=len(ctx.codes),
        iterations=iterations,
        max_iters=limit,
        final_update_norm=update_norm,
        residual_norm=residual,
        operator_norm_bound=bound,
        empirical_contraction_rate=rate,
        certified=certified,
        overridden=overridden,
        truncation_tail=truncation_tail,
        direct_deviation=direct_deviation,
        tail_bounds=None,
    )
    return solution, report, bounds


def solve_finite_volume(
    field: OnePointField,
    window: Iterable[tuple],
    tol: float = DEFAULT_TOL,
    k_max: int | None = None,
    method: str = "iterative",
    override_gate: bool = False,
) -> tuple:
    """Solve the window-projected correlation equation.

    With the default k_max (the window size) and a finite-range field the
    materialized rows reproduce the finite-volume equation exactly, so the
    fixed point is the exact finite-volume correlation function."""
    window = frozenset(window)
    solution, report, _ = _solve(
        field,
        window,
        len(window) if k_max is None else k_max,
        True,
        tol,
        method,
        override_gate,
    )
    return solution, report


def solve_infinite_volume(
    field: OnePointField,
    window: Iterable[tuple],
    tol: float = DEFAULT_TOL,
    k_max: int = 4,
    method: str = "iterative",
    override_gate: bool = False,
) -> tuple:
    """Iterate the unprojected operator with reads confined to the window.

    Reads outside the window (or deeper than k_max) are 0; their absolute
    row mass is folded into the report's truncation_tail.  Values are
    trusted only for supports deep inside the window: when the gate is
    certified the report carries (depth, bound) pairs quantifying the
    finite-window error at each interior depth."""
    window = frozenset(window)
    solution, report, bounds = _solve(
        field,
        window,
        k_max,
        False,
        tol,
        method,
        override_gate,
    )
    if report.certified:
        depth = 1
        pairs = []
        while interior(window, depth):
            pairs.append((depth, epsilon_bound(field, depth, bounds=bounds)))
            depth += 1
        report = dataclasses.replace(report, tail_bounds=tuple(pairs))
    return solution, report


def delta_norm(field: OnePointField) -> float:
    """Norm of the free term: per site, the total conditional weight of
    the non-vacuum spins with empty boundary."""
    require_homogeneous(field)
    spins = field.spins
    vac = spins.vacuum_index
    t = field.origin()
    s = math.fsum(math.exp(field.eval(t, {}, a, vac)) for a in spins.star_indices)
    return s / (1.0 + s)


def tail_f_bound(
    field: OnePointField,
    r: int,
    bounds: FieldBounds | None = None,
    decay=None,
) -> float:
    """Window-replacement tail: how much one operator application can
    move mass across a distance-r boundary.  Derived from the proof
    chain, not a quoted formula; 0 beyond the farthest coupled offset."""
    if r < 0:
        raise DomainError("distance must be >= 0")
    if bounds is None:
        bounds = field_bounds(field)
    if decay is None:
        decay = decay_sums(field)
    # huge couplings saturate to inf, which never beats the trivial bound
    envelope = _exp(_exp(decay.sigma_tail(r)) - 1.0) - 1.0
    if not envelope:
        return 0.0
    return 4.0 * bounds.c1_conservative * _exp(bounds.norm_delta1) * envelope


def epsilon_bound(
    field: OnePointField,
    d: int,
    bounds: FieldBounds | None = None,
    contraction: float | None = None,
) -> float:
    """Certified gap between finite-volume and infinite-volume correlation
    values for supports at interior depth d (distance to the window
    complement strictly greater than d - 1).

    Minimizes 2k^(n+1)/(1-k) + 2f(r)/(1-k)^2 over integer splits with
    n*r <= d-1, against the trivial bound 2/(1-k); scaled by the free-term
    norm.  Derived from the proof chain (reconstruction, not a quoted
    formula).  With contraction given, that rate is used instead of the
    certified bound (callers must label such output as empirical)."""
    if d < 1:
        raise DomainError("depth must be >= 1")
    if bounds is None:
        bounds = field_bounds(field)
    k = bounds.contraction_lhs if contraction is None else contraction
    if not 0.0 <= k < 1.0:
        raise GateNotCertifiedError(
            f"contraction constant {k!r} is not below 1; no certified bound"
        )
    decay = decay_sums(field)
    dnorm = delta_norm(field)
    best = 2.0 / (1.0 - k)
    for n in range(1, d):
        r = (d - 1) // n
        f_r = tail_f_bound(field, r, bounds, decay)
        candidate = (
            2.0 * k ** (n + 1) / (1.0 - k) + 2.0 * f_r / (1.0 - k) ** 2
        )
        best = min(best, candidate)
    return dnorm * best


@dataclass(frozen=True)
class ConvergencePoint:
    window_size: int
    depth: int
    max_deviation: float
    epsilon: float | None
    iterations: int
    residual: float


@dataclass(frozen=True)
class ConvergenceSeries:
    points: tuple
    reference_size: int
    reference_method: str
    epsilon_source: str
    contraction: float | None


def convergence_profile(
    field: OnePointField,
    windows: Sequence[Iterable[tuple]],
    probes: Sequence[Configuration],
    tol: float = DEFAULT_TOL,
    override_gate: bool = False,
) -> ConvergenceSeries:
    """Deviation-vs-depth study: how fast window correlation values
    approach the large-volume limit.

    The last (largest) window is the reference, read by `rho_probe`; the
    series covers the others, each solved by the iterative route when its
    domain is small and read by `rho_probe` otherwise, so the series never
    leans on a single numerical path."""
    vols = [frozenset(w) for w in windows]
    if len(vols) < 2:
        raise DomainError("need at least two windows (the last is the reference)")
    for small, big in zip(vols, vols[1:]):
        if not small < big:
            raise DomainError("windows must be strictly increasing")
    if not probes:
        raise DomainError("need at least one probe configuration")
    for probe in probes:
        if not probe:
            raise DomainError("probes must be nonempty configurations")
        if not probe.support <= vols[0]:
            raise DomainError(
                f"probe {probe!r} is not supported in the smallest window"
            )

    spins = field.spins
    bounds = field_bounds(field)
    certified, _ = _contraction_gate(bounds, override_gate)

    # no window's pass holds more states than the reference's, so a family
    # over the state budget is refused here, before any window is solved
    reference = vols[-1]
    ref_values = rho_probe(field, reference, probes)

    rates: list = []
    raw_points: list = []
    for window in vols[:-1]:
        depth = min(
            min(distance_to_complement(site, window) for site in probe.support)
            for probe in probes
        )
        unknowns = spins.size ** len(window) - 1
        if unknowns <= PROFILE_SOLVER_LIMIT:
            solution, report = solve_finite_volume(
                field,
                window,
                tol,
                override_gate=override_gate,
            )
            values = {p: solution.value(p) for p in probes}
            iterations = report.iterations
            residual = report.residual_norm
            rates.append(report.empirical_contraction_rate)
        else:
            values = rho_probe(field, window, probes)
            iterations = 0
            residual = 0.0
        deviation = max(abs(values[p] - ref_values[p]) for p in probes)
        raw_points.append((len(window), depth, deviation, iterations, residual))

    if certified:
        epsilon_source = "certified"
        contraction: float | None = bounds.contraction_lhs
    else:
        usable = [r for r in rates if 0.0 < r < 1.0]
        if usable:
            epsilon_source = "empirical"
            contraction = max(usable)
        else:
            epsilon_source = "unavailable"
            contraction = None

    points = []
    for size, depth, deviation, iterations, residual in raw_points:
        if contraction is not None:
            eps = epsilon_bound(field, depth, bounds, contraction=(
                None if certified else contraction
            ))
        else:
            eps = None
        points.append(
            ConvergencePoint(size, depth, deviation, eps, iterations, residual)
        )
    return ConvergenceSeries(
        tuple(points),
        len(reference),
        "enumeration",
        epsilon_source,
        contraction,
    )


def series_lines(
    series: ConvergenceSeries,
    headers: Mapping[str, str] | None = None,
    prefix: str = "",
) -> list:
    """Summary lines (`prefix` + 'key = value') and CSV rows of a series."""
    merged = dict(headers or {})
    merged["reference_size"] = str(series.reference_size)
    merged["reference_method"] = series.reference_method
    merged["epsilon_source"] = series.epsilon_source
    if series.contraction is not None:
        merged["contraction"] = repr(series.contraction)
    lines = [f"{prefix}{key} = {value}" for key, value in merged.items()]
    lines.append("window_size,d,max_abs_deviation,epsilon_bound,iterations,residual")
    for p in series.points:
        eps = "" if p.epsilon is None else repr(p.epsilon)
        lines.append(
            f"{p.window_size},{p.depth},{p.max_deviation!r},{eps},"
            f"{p.iterations},{p.residual!r}"
        )
    return lines


def write_series(path: str, series: ConvergenceSeries, headers: Mapping[str, str] | None = None) -> None:
    """Emit the convergence series as delimiter-separated text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(series_lines(series, headers, "# ")) + "\n")
