import hashlib
import math
import pathlib
import random
import subprocess
import sys

import numpy
import pytest

from spincorr import (
    BudgetExceededError,
    Configuration,
    DomainError,
    EMPTY_CONFIG,
    EnvironmentConditionError,
    GateNotCertifiedError,
    PairField,
    PairPotential,
    SolverDivergenceError,
    rho_exact,
    solver,
    verify_correlation_equation,
)
from spincorr.exact import CorrelationTable, correlation_rhs
from spincorr.fields import (
    TripleInteractionField,
    ZeroField,
    field_bounds,
)
from spincorr.lattice import enumerate_configs
from spincorr.modelfile import load_model
from spincorr.solver import (
    OperatorContext,
    _direct_solve,
    bstar_norm,
    convergence_profile,
    delta_norm,
    epsilon_bound,
    solve_finite_volume,
    solve_infinite_volume,
    tail_f_bound,
    write_series,
)

from support import (
    SPINS2,
    SPINS3,
    chain_field,
    config,
    grid_field,
    random_pair_field,
    singleton,
)

ROOT = pathlib.Path(__file__).parent.parent
LN2 = math.log(2.0)
W2 = frozenset(((0,), (1,)))


def chain_window(n: int, start: int = 0) -> tuple:
    return tuple((i,) for i in range(start, start + n))


def centered_window(n: int) -> tuple:
    return tuple((i,) for i in range(-n, n + 1))


def free_term(field, x: Configuration) -> float:
    """Free term of the materialized row of x (gamma on singletons, else 0)."""
    return OperatorContext(field, x.support, len(x)).row(x)[0]


def assert_rows_match_oracle(rng, field, window: tuple) -> None:
    """Materialized rows (free term plus K applied to arbitrary values)
    against the right-hand side computed by the enumeration module."""
    values = {EMPTY_CONFIG: 1.0}
    for cfg in enumerate_configs(window, field.spins):
        if cfg:
            values[cfg] = rng.uniform(-1.0, 1.0)
    table = CorrelationTable(frozenset(window), values, None)
    ctx = OperatorContext(field, frozenset(window), len(window))
    ctx.materialize()
    assert len(ctx.domain) == len(values) - 1
    image = ctx.matvec([values[x] for x in ctx.domain])
    free = ctx.free
    for i, x in enumerate(ctx.domain):
        got = free[i] + image[i]
        want = correlation_rhs(field, frozenset(window), table, x)
        assert got == pytest.approx(want, abs=1e-12), x


def resolve(x: Configuration, key: tuple) -> Configuration:
    """The configuration a row key of x names: x's remainder plus the key's
    (offset from t, spin) pairs placed at x's minimal site t."""
    (t, _), rest = x.items[0], x.items[1:]
    placed = [(tuple(a + o for a, o in zip(t, off)), spin) for off, spin in key]
    return Configuration(rest + tuple(placed))


def remainder_coefficient(field, x: Configuration) -> float:
    """Coefficient of the row of x on its remainder x' (gamma for |x| > 1)."""
    _, keys, coeffs = OperatorContext(field, x.support, len(x)).row(x)
    assert resolve(x, keys[0]).items == x.items[1:]
    return coeffs[0]


class TestNorms:
    def test_bstar_groups_by_support(self):
        # Two entries share the support {(0,)}: their absolute values add.
        table = {
            config(((0,), 1)): 0.3,
            config(((0,), 2)): -0.4,
            config(((1,), 1)): 0.5,
        }
        assert bstar_norm(table) == pytest.approx(0.7, abs=1e-15)

    def test_bstar_ignores_empty_configuration(self):
        table = {EMPTY_CONFIG: 1.0, singleton((0,)): 0.25}
        assert bstar_norm(table) == 0.25

    def test_bstar_empty_table(self):
        assert bstar_norm({}) == 0.0

    def test_supported_function_lookup(self):
        phi = CorrelationTable(
            W2,
            {singleton((0,)): 0.5, config(((0,), 1), ((1,), 1)): 0.25},
        )
        assert phi.value(singleton((0,))) == 0.5
        assert phi.value(singleton((1,))) == 0.0


class TestRowIngredients:
    def test_gamma_zero_field(self):
        # gamma of a singleton is its free term
        assert free_term(ZeroField(SPINS2), singleton((0,))) == pytest.approx(
            0.5, abs=1e-15
        )
        assert free_term(ZeroField(SPINS3), singleton((0,))) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_gamma_conditions_on_remainder(self):
        # gamma of the pair row equals w/(1+w) with w = exp(-ln 2) = 1/2.
        value = remainder_coefficient(chain_field(LN2), config(((0,), 1), ((1,), 1)))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_delta_fn(self):
        field = ZeroField(SPINS2)
        assert free_term(field, singleton((0,))) == pytest.approx(0.5, abs=1e-15)
        assert free_term(field, config(((0,), 1), ((1,), 1))) == 0.0
        with pytest.raises(DomainError):
            OperatorContext(field, W2, 2).row(EMPTY_CONFIG)

    def test_kernel_hand_values(self):
        kf = OperatorContext(chain_field(LN2), W2, 2).kernel_factor
        # Adjacent occupied site: exp(-ln 2) - 1 = -1/2.
        assert kf((0,), (1,), 1, 1) == pytest.approx(-0.5, abs=1e-15)
        # Beyond the interaction radius the factor vanishes.
        assert kf((0,), (5,), 1, 1) == 0.0
        # A vacuum spin at t produces no interaction at all.
        assert kf((0,), (1,), 0, 1) == 0.0

    def test_two_site_row_coefficients(self):
        # Hand-solved 2x2 system for the coupled pair at coupling ln 2:
        # singleton row reads -1/4 on the other singleton and +1/4 on the
        # pair; the pair row reads +1/3 on its remainder.
        ctx = OperatorContext(chain_field(LN2), W2, 2)
        rows = {}
        for x in ctx.domain:
            free, keys, coeffs = ctx.row(x)
            agg: dict = {}
            for key, coeff in zip(keys, coeffs):
                key = resolve(x, key)
                agg[key] = agg.get(key, 0.0) + coeff
            rows[x] = (free, agg)

        t, s = singleton((0,)), singleton((1,))
        pair = config(((0,), 1), ((1,), 1))
        free, agg = rows[t]
        assert free == pytest.approx(0.5, abs=1e-15)
        assert agg[s] == pytest.approx(-0.25, abs=1e-15)
        assert agg[pair] == pytest.approx(0.25, abs=1e-15)
        free_pair, agg_pair = rows[pair]
        assert free_pair == 0.0
        assert agg_pair == {s: pytest.approx(1.0 / 3.0, abs=1e-15)}

    def test_two_site_fixed_point_by_hand(self):
        # The system rho_t = 1/2 - rho_s/4 + rho_ts/4, rho_ts = rho_s/3
        # with rho_t = rho_s has the solution rho_t = 3/7, rho_ts = 1/7.
        sol, _ = solve_finite_volume(chain_field(LN2), W2, override_gate=True)
        assert sol.value(singleton((0,))) == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert sol.value(config(((0,), 1), ((1,), 1))) == pytest.approx(
            1.0 / 7.0, abs=1e-12
        )


class TestOperatorApplication:
    @pytest.mark.parametrize(
        "dimension,spins,radius,n_sites",
        [(1, SPINS2, 1, 5), (1, SPINS3, 1, 4), (2, SPINS2, 1, None)],
    )
    def test_apply_g_matches_enumeration_side_sum(
        self, dimension, spins, radius, n_sites
    ):
        rng = random.Random(hash((dimension, spins.size, radius)) & 0xFFFF)
        field = random_pair_field(rng, dimension, spins, radius, max_coupling=0.4)
        if dimension == 1:
            window = chain_window(n_sites)
        else:
            window = tuple((i, j) for i in range(2) for j in range(2))
        assert_rows_match_oracle(rng, field, window)

    def test_rows_with_uncoupled_sites_match_enumeration_side_sum(self):
        # only spin a couples, and only at distance 1: the distance-2 sites
        # of the range-2 ball have all kernel factors 0 and leave the J-sum,
        # while the distance-1 sites couple for some spin pairs only
        pot = PairPotential.create(1, 2, {((1,), 1, 1): 0.3}, SPINS3)
        field = PairField(pot, SPINS3)
        assert_rows_match_oracle(random.Random(7), field, chain_window(4))

    def test_exact_table_is_fixed_point(self):
        field = chain_field(0.045)
        window = chain_window(6)
        table = rho_exact(field, window)
        ctx = OperatorContext(field, frozenset(window), len(window))
        ctx.materialize()
        phi = [table.values[x] for x in ctx.domain]
        image = ctx.matvec(phi)
        worst = max(
            abs(p - (f + v)) for p, f, v in zip(phi, ctx.free, image)
        )
        assert worst <= 1e-12


class TestOperatorArrays:
    """The flat arrays materialize builds and the matvec and group norm
    read from them."""

    @staticmethod
    def assert_matvec_matches_rows(ctx, phi) -> int:
        """matvec against a per-row fsum over ctx.rows; returns the number
        of rows without in-domain references (their image must be 0)."""
        image = ctx.matvec(phi)
        empty = 0
        for i, (_, idxs, coeffs, _) in enumerate(ctx.rows):
            want = math.fsum(c * phi[j] for c, j in zip(coeffs, idxs))
            if not idxs:
                empty += 1
                assert image[i] == 0.0
            assert image[i] == pytest.approx(want, rel=1e-15, abs=1e-15)
        return empty

    def test_rows_without_references_give_zero(self):
        # zero field: singleton rows reference nothing, larger rows their
        # remainder, so the empty rows lead the domain
        ctx = OperatorContext(ZeroField(SPINS2), frozenset(chain_window(4)), 4)
        ctx.materialize()
        rng = random.Random(1)
        phi = [rng.uniform(0.5, 1.0) for _ in ctx.domain]
        assert self.assert_matvec_matches_rows(ctx, phi) == 4

    def test_kmax_one_window_iteration_of_zero_field_has_only_empty_rows(self):
        window = frozenset(chain_window(5))
        ctx = OperatorContext(ZeroField(SPINS3), window, 1, restrict_to_window=False)
        ctx.materialize()
        rng = random.Random(2)
        phi = [rng.uniform(0.5, 1.0) for _ in ctx.domain]
        assert self.assert_matvec_matches_rows(ctx, phi) == len(ctx.domain)
        sol, report = solve_infinite_volume(ZeroField(SPINS3), window, k_max=1)
        assert report.iterations == 1
        assert [sol.value(x) for x in ctx.domain] == ctx.free.tolist()

    def test_matvec_matches_rows_three_spins(self):
        rng = random.Random(3)
        field = random_pair_field(rng, 1, SPINS3, 1, max_coupling=0.4)
        ctx = OperatorContext(field, frozenset(chain_window(4)), 4)
        ctx.materialize()
        phi = [rng.uniform(-1.0, 1.0) for _ in ctx.domain]
        assert self.assert_matvec_matches_rows(ctx, phi) == 0

    def test_support_groups_and_group_norm_on_grid(self):
        window = frozenset((i, j) for i in range(3) for j in range(3))
        ctx = OperatorContext(
            grid_field(0.05, SPINS3), window, 2, restrict_to_window=False
        )
        ctx.materialize()
        starts = ctx.group_starts.tolist() + [len(ctx.domain)]
        assert starts[0] == 0
        supports = []
        for start, stop in zip(starts, starts[1:]):
            block = {x.support for x in ctx.domain[start:stop]}
            assert len(block) == 1
            supports.append(block.pop())
        assert len(set(supports)) == len(supports)
        assert len(supports) == 9 + math.comb(9, 2)
        rng = random.Random(4)
        for _ in range(20):
            vec = [rng.uniform(-1.0, 1.0) for _ in ctx.domain]
            want = bstar_norm(dict(zip(ctx.domain, vec)))
            assert ctx.group_norm(vec) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestRowTemplates:
    """materialize builds each row shape once and stamps it out by integer
    codes; every row must equal row(x) resolved through the domain."""

    @staticmethod
    def contexts() -> list:
        sparse = PairField(
            PairPotential.create(1, 2, {((1,), 1, 1): 0.3}, SPINS2), SPINS2
        )
        grid = frozenset((i, j) for i in range(3) for j in range(3))
        return [
            OperatorContext(
                random_pair_field(random.Random(5), 1, SPINS3, 2, 0.2),
                frozenset(chain_window(6)),
                6,
            ),
            OperatorContext(
                grid_field(0.05, SPINS3), grid, 2, restrict_to_window=False
            ),
            OperatorContext(
                sparse, frozenset(centered_window(4)), 3, restrict_to_window=False
            ),
            OperatorContext(ZeroField(SPINS3), frozenset(chain_window(5)), 3),
        ]

    def test_stamped_rows_equal_resolved_rows(self):
        for ctx in self.contexts():
            ctx.materialize()
            index = {x: i for i, x in enumerate(ctx.domain)}
            for i, x in enumerate(ctx.domain):
                free_term, keys, coeffs = ctx.row(x)
                idxs = []
                kept = []
                dropped = 0.0
                for key, coeff in zip(keys, coeffs):
                    j = index.get(resolve(x, key))
                    if j is None:
                        dropped += abs(coeff)
                    else:
                        idxs.append(j)
                        kept.append(coeff)
                assert ctx.rows[i] == (free_term, tuple(idxs), tuple(kept), dropped), x

    def test_dropped_bstar_is_bstar_norm_of_dropped_masses(self):
        grid = frozenset((i, j) for i in range(3) for j in range(3))
        gated = load_model(str(ROOT / "models" / "chain_gated.model")).field
        for ctx in (
            OperatorContext(
                grid_field(0.05, SPINS3), grid, 2, restrict_to_window=False
            ),
            OperatorContext(
                gated, frozenset(centered_window(6)), 3, restrict_to_window=False
            ),
        ):
            ctx.materialize()
            want = bstar_norm({x: row[3] for x, row in zip(ctx.domain, ctx.rows)})
            assert want > 0.0
            assert ctx.dropped_bstar() == want


def model_context(name: str, window, k_max: int, restrict: bool = True):
    field = load_model(str(ROOT / "models" / f"{name}.model")).field
    return OperatorContext(field, frozenset(window), k_max, restrict_to_window=restrict)


def operator_digest(ctx: OperatorContext) -> str:
    """sha256 of a materialized context: its codes, free terms, sparse
    arrays and each row's dropped mass."""
    ctx.materialize()
    h = hashlib.sha256(repr(ctx.codes).encode("ascii"))
    dropped = numpy.array([row[3] for row in ctx.rows], float)
    for array in (ctx.free, ctx.row_ids, ctx.indices, ctx.data, dropped):
        h.update(array.dtype.str.encode("ascii") + array.tobytes())
    return h.hexdigest()


GRID_3X3 = tuple((i, j) for i in range(3) for j in range(3))
# every case reads the interaction neighbourhood: its J-sums, gamma
# boundaries and window clips
OPERATOR_CASES = {
    "chain_gated-0:5": lambda: model_context("chain_gated", chain_window(6), 6),
    "chain_q3_mid-3:3-kmax3-unrestricted": lambda: model_context(
        "chain_q3_mid", centered_window(3), 3, restrict=False
    ),
    "grid_gated-3x3-kmax2": lambda: model_context("grid_gated", GRID_3X3, 2),
    "grid_gated-3x3-kmax2-unrestricted": lambda: model_context(
        "grid_gated", GRID_3X3, 2, restrict=False
    ),
    "zero_field-0:4": lambda: model_context("zero_field", chain_window(5), 5),
}
# recorded before the rows read the neighbourhood from field.ball_offsets()
OPERATOR_DIGESTS = {
    "chain_gated-0:5": "771d5b07c3cfacf92e895623640499117460e9574bf7936be79d7cb89a280f9d",
    "chain_q3_mid-3:3-kmax3-unrestricted": "5aed46af9308fcc39c1c27579fcd5b41cc7dfaaade2c47b1119fe87bd361b066",
    "grid_gated-3x3-kmax2": "4abfded8adfabbe713b090d8821806f549c5f3f736f337da324ada65bba0d3ef",
    "grid_gated-3x3-kmax2-unrestricted": "d2db5e2b193f98782d52c797fa5e4ba6494a4d33e75ac57ef076a7e73eaf56c1",
    "zero_field-0:4": "27119d833d8642338e22c892154bb6f601d4c3c830b9fd0c9ba324a969318387",
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CASES))
def test_operator_arrays_are_golden(name):
    assert operator_digest(OPERATOR_CASES[name]()) == OPERATOR_DIGESTS[name]


@pytest.mark.parametrize("restrict", [True, False], ids=["restricted", "unrestricted"])
def test_declared_range_past_the_couplings_keeps_the_operator(tmp_path, restrict):
    # grid_gated couples its 4 axis neighbours; range 2 declares 24 sites
    source = (ROOT / "models" / "grid_gated.model").read_text(encoding="utf-8")
    path = tmp_path / "wide.model"
    path.write_text(source.replace("range = 1", "range = 2"), encoding="utf-8")
    contexts = [
        OperatorContext(load_model(str(p)).field, frozenset(GRID_3X3), 2, restrict)
        for p in (ROOT / "models" / "grid_gated.model", path)
    ]
    name = "grid_gated-3x3-kmax2" + ("" if restrict else "-unrestricted")
    assert [operator_digest(ctx) for ctx in contexts] == [OPERATOR_DIGESTS[name]] * 2
    # the gamma memo keys only coupled sites, so the wider range adds none
    narrow, wide = contexts
    assert wide._weights_memo.keys() == narrow._weights_memo.keys()


class TestSolveRoutes:
    def test_iterative_matches_enumeration(self):
        field = chain_field(0.045)
        window = chain_window(6)
        table = rho_exact(field, window)
        sol, report = solve_finite_volume(field, window)
        worst = max(abs(sol.value(c) - v) for c, v in table.values.items())
        assert worst <= 1e-10
        assert report.certified and not report.overridden
        assert report.iterations <= report.max_iters
        assert report.residual_norm <= 1e-10
        assert report.truncation_tail == 0.0
        assert report.empirical_contraction_rate <= report.operator_norm_bound + 0.05

    def test_direct_matches_iterative(self):
        field = chain_field(0.045)
        window = chain_window(6)
        sol_i, _ = solve_finite_volume(field, window)
        sol_d, _ = solve_finite_volume(field, window, method="direct")
        worst = max(abs(sol_i.value(c) - sol_d.value(c)) for c in sol_i.values)
        assert worst <= 1e-11

    def test_both_reports_direct_deviation(self):
        field = chain_field(0.045)
        _, report = solve_finite_volume(field, chain_window(5), method="both")
        assert report.direct_deviation is not None
        assert report.direct_deviation <= 1e-11

    def test_both_at_iterative_sizes(self):
        # the direct route takes the same 32767-unknown domain as the iteration
        _, report = solve_finite_volume(
            chain_field(0.045), chain_window(15), method="both"
        )
        assert report.unknowns == 2 ** 15 - 1
        assert report.direct_deviation <= 1e-10

    def test_direct_singular_system_is_divergence(self):
        ctx = OperatorContext(chain_field(0.045), frozenset(chain_window(3)), 3)
        ctx.materialize()
        # K whose only entry is K[0, 0] = 1: rho(x) = free + rho(x) makes
        # row 0 of I - K vanish
        ctx.row_ids, ctx.indices, ctx.data = (
            numpy.array([0]),
            numpy.array([0]),
            numpy.array([1.0]),
        )
        with pytest.raises(SolverDivergenceError) as err:
            _direct_solve(ctx)
        assert err.value.iterations == 0

    def test_direct_non_finite_solution_is_divergence(self):
        ctx = OperatorContext(chain_field(0.045), frozenset(chain_window(3)), 3)
        ctx.materialize()
        ctx.free[0] = math.inf
        with pytest.raises(SolverDivergenceError):
            _direct_solve(ctx)

    def test_solve_and_write_build_a_configuration_per_template_only(
        self, monkeypatch, tmp_path
    ):
        # the unknowns travel as integer codes from the domain build to the
        # written table: a Configuration is made only for the row that a
        # new row template is built from (the env gate's random plan aside)
        from spincorr import checks, exact

        field = load_model(str(ROOT / "models" / "chain_gated.model")).field
        planning = []
        calls = {"configs": 0, "rows": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += not planning
                return fn(*args, **kwargs)

            return wrapper

        def plan(*args, inner=checks.environment_plan_random):
            planning.append(True)
            try:
                return inner(*args)
            finally:
                planning.pop()

        make = classmethod(counted("configs", Configuration._make.__func__))
        monkeypatch.setattr(Configuration, "_make", make)
        init = counted("configs", Configuration.__init__)
        monkeypatch.setattr(Configuration, "__init__", init)
        monkeypatch.setattr(OperatorContext, "row", counted("rows", OperatorContext.row))
        monkeypatch.setattr(checks, "environment_plan_random", plan)
        solution, report = solve_finite_volume(field, chain_window(12))
        exact.write_table(str(tmp_path / "t.csv"), solution, field.spins)
        assert report.unknowns == 4095
        assert 0 < calls["configs"] <= calls["rows"], calls

    def test_unknown_method_and_initial(self):
        field = chain_field(0.045)
        with pytest.raises(DomainError):
            solve_finite_volume(field, W2, method="fast")

    def test_empty_window(self):
        with pytest.raises(DomainError):
            solve_finite_volume(chain_field(0.045), ())

    def test_unknown_budget(self):
        with pytest.raises(BudgetExceededError):
            solve_finite_volume(chain_field(0.045), chain_window(25))


class TestGates:
    def test_contraction_gate_blocks_strong_coupling(self):
        with pytest.raises(GateNotCertifiedError):
            solve_finite_volume(chain_field(LN2), W2)

    def test_override_solves_anyway(self):
        field = chain_field(LN2)
        window = chain_window(4)
        table = rho_exact(field, window)
        sol, report = solve_finite_volume(field, window, override_gate=True)
        worst = max(abs(sol.value(c) - v) for c, v in table.values.items())
        assert worst <= 1e-10
        assert not report.certified
        assert report.overridden

    def test_environment_gate(self):
        # the solver and the oracle share one gate: same refusal, same witness
        field = TripleInteractionField(chain_field(0.05), 0.2)
        window = chain_window(3)
        with pytest.raises(EnvironmentConditionError) as solve_err:
            solve_finite_volume(field, window, override_gate=True)
        table = rho_exact(field, window, method="extension")
        with pytest.raises(EnvironmentConditionError) as oracle_err:
            verify_correlation_equation(field, window, table)
        assert str(oracle_err.value) == str(solve_err.value)
        assert oracle_err.value.witness == solve_err.value.witness

    def test_divergence_reported_with_rate(self):
        with pytest.raises(SolverDivergenceError) as err:
            solve_finite_volume(chain_field(3.0), chain_window(4), override_gate=True)
        assert err.value.rate > 1.0
        assert err.value.iterations > 0

    def test_max_iters_exhaustion(self, monkeypatch):
        monkeypatch.setattr(solver, "_auto_max_iters", lambda *args: 2)
        with pytest.raises(SolverDivergenceError) as err:
            solve_finite_volume(chain_field(0.045), chain_window(6))
        assert err.value.iterations == 2

    class ResidualStub:
        """Converges on the first update, then leaves `residual` behind."""

        def __init__(self, residual):
            self.free = numpy.zeros(1)
            self.reads = iter([numpy.zeros(1), numpy.full(1, residual)])

        def matvec(self, phi):
            return next(self.reads)

        def group_norm(self, vec):
            return float(numpy.abs(vec).max())

    def test_residual_above_the_default_bound_is_divergence(self):
        with pytest.raises(SolverDivergenceError, match="exceeds 1e-10"):
            solver._iterate(self.ResidualStub(1e-8), solver.DEFAULT_TOL, 10)

    def test_a_loose_tol_bounds_the_residual(self):
        _, iterations, _, residual, _ = solver._iterate(
            self.ResidualStub(1e-8), 1e-6, 10
        )
        assert (iterations, residual) == (1, 1e-8)


class TestInfiniteVolume:
    def test_window_iteration_approaches_enumeration_in_the_bulk(self):
        field = chain_field(0.045)
        window = chain_window(11)
        table = rho_exact(field, window)
        sol, report = solve_infinite_volume(field, window, k_max=3)
        center = singleton((5,))
        assert abs(sol.value(center) - table.values[center]) <= 1e-6
        assert report.certified
        assert report.truncation_tail > 0.0  # boundary rows read outside

    def test_tail_bounds_attached_when_certified(self):
        field = chain_field(0.045)
        _, report = solve_infinite_volume(field, chain_window(11), k_max=2)
        assert report.tail_bounds
        depths = [d for d, _ in report.tail_bounds]
        assert depths == list(range(1, len(depths) + 1))
        values = [b for _, b in report.tail_bounds]
        assert all(b > 0 for b in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_tail_bounds_without_certificate(self):
        field = chain_field(LN2)
        _, report = solve_infinite_volume(
            field, chain_window(6), k_max=2, override_gate=True
        )
        assert report.tail_bounds is None


    def test_zero_factor_sites_stay_out_of_the_j_sum(self, tmp_path):
        # range 2 in 2-d declares 24 sites, but only the two (0,+-1)
        # neighbours couple, so they are the field's whole neighbourhood;
        # a J-sum over all 24 would walk 2^24 subsets per row
        path = tmp_path / "sparse.model"
        path.write_text(
            "dimension = 2\nspins = 0 a\nvacuum = 0\nrange = 2\n"
            "coupling (0,1) a a = 0.01\n",
            encoding="utf-8",
        )
        argv = ["solve", "--model", str(path), "--window=0,1:0,1", "--kmax", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "spincorr", *argv],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert "unknowns = 1\n" in proc.stdout


class TestCertificates:
    def test_operator_norm_certificate(self):
        field = chain_field(0.045)
        _, report = solve_finite_volume(field, chain_window(4))
        assert report.operator_norm_bound == field_bounds(field).contraction_lhs
        assert report.certified
        assert report.empirical_contraction_rate <= report.operator_norm_bound + 0.05

    def test_uncertified_bound(self):
        field = chain_field(LN2)
        assert not field_bounds(field).passes
        _, report = solve_finite_volume(field, W2, override_gate=True)
        assert report.operator_norm_bound >= 1.0
        assert not report.certified

    def test_support_cap_deviation_within_certificate(self):
        # k_max below the window size drops reads of deeper supports; the
        # report's relayed tail must still bound the true error.
        field = chain_field(0.045)
        window = chain_window(6)
        table = rho_exact(field, window)
        sol, report = solve_finite_volume(field, window, k_max=2)
        assert report.truncation_tail > 0.0
        worst = max(
            abs(sol.value(c) - table.values[c]) for c in sol.values if 0 < len(c) <= 2
        )
        assert worst <= report.truncation_tail + 1e-12

    def test_delta_norm_values(self):
        assert delta_norm(ZeroField(SPINS2)) == pytest.approx(0.5, abs=1e-15)
        assert delta_norm(ZeroField(SPINS3)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        # One-site weight S = exp(0) stays 1 under a symmetric pair
        # coupling with empty boundary.
        assert delta_norm(chain_field(0.045)) == pytest.approx(0.5, abs=1e-15)

    def test_tail_f_vanishes_beyond_interaction_radius(self):
        field = chain_field(0.045)
        assert tail_f_bound(field, 0) > 0.0
        assert tail_f_bound(field, 1) == 0.0
        assert tail_f_bound(field, 2) == 0.0
        zero = ZeroField(SPINS2)
        assert tail_f_bound(zero, 0) == 0.0
        # a huge coupling saturates inside the radius and still vanishes beyond
        huge = chain_field(800.0)
        assert tail_f_bound(huge, 0) == math.inf
        assert tail_f_bound(huge, 1) == 0.0
        with pytest.raises(DomainError):
            tail_f_bound(field, -1)


class TestEpsilonBound:
    def test_zero_field_closed_form(self):
        # Free-term norm 1/2 and contraction constant 1/2 with no decay
        # tail: the trivial bound 2/(1-k) applies at depth 1 and the
        # geometric term alone beyond, giving 2^(1-d).
        zero = ZeroField(SPINS2)
        assert epsilon_bound(zero, 1) == pytest.approx(2.0, abs=1e-14)
        for d in range(2, 8):
            assert epsilon_bound(zero, d) == pytest.approx(2.0 ** (1 - d), rel=1e-12)

    def test_monotone_nonincreasing_in_depth(self):
        field = chain_field(0.045)
        values = [epsilon_bound(field, d) for d in range(1, 9)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(14.63831149194725, rel=1e-12)

    def test_empirical_contraction_argument(self):
        field = chain_field(0.045)
        assert epsilon_bound(field, 3, contraction=0.5) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_non_contracting_constant(self):
        with pytest.raises(GateNotCertifiedError):
            epsilon_bound(chain_field(0.045), 3, contraction=1.2)
        with pytest.raises(GateNotCertifiedError):
            epsilon_bound(chain_field(LN2), 3)

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            epsilon_bound(ZeroField(SPINS2), 0)


class TestConvergenceProfile:
    def test_zero_field_series_is_flat(self):
        zero = ZeroField(SPINS2)
        windows = [centered_window(n) for n in (1, 2, 3)]
        series = convergence_profile(zero, windows, [singleton((0,))])
        assert series.epsilon_source == "certified"
        assert series.reference_method == "enumeration"
        assert series.reference_size == 7
        assert [p.window_size for p in series.points] == [3, 5]
        for point in series.points:
            assert point.max_deviation <= 1e-14
            assert point.epsilon is not None and point.epsilon > 0

    def test_certified_chain_series_decays_below_bound(self):
        field = chain_field(0.045)
        windows = [centered_window(n) for n in (1, 2, 3, 4)]
        series = convergence_profile(field, windows, [singleton((0,))])
        assert series.epsilon_source == "certified"
        devs = [p.max_deviation for p in series.points]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
        assert all(p.max_deviation <= p.epsilon for p in series.points)
        assert devs[-1] <= devs[0] * 0.1

    def test_validation(self):
        field = chain_field(0.045)
        probe = [singleton((0,))]
        with pytest.raises(DomainError):
            convergence_profile(field, [centered_window(1)], probe)
        with pytest.raises(DomainError):
            convergence_profile(
                field, [centered_window(2), centered_window(2)], probe
            )
        with pytest.raises(DomainError):
            convergence_profile(
                field,
                [centered_window(1), centered_window(2)],
                [singleton((7,))],
            )
        with pytest.raises(DomainError):
            convergence_profile(field, [centered_window(1), centered_window(2)], [])
        with pytest.raises(DomainError):
            convergence_profile(
                field,
                [centered_window(1), centered_window(2)],
                [EMPTY_CONFIG],
            )

    def test_gate_applies_to_profiles(self):
        with pytest.raises(GateNotCertifiedError):
            convergence_profile(
                chain_field(LN2),
                [centered_window(1), centered_window(2)],
                [singleton((0,))],
            )

    def test_series_file_format(self, tmp_path):
        field = chain_field(0.045)
        series = convergence_profile(
            field,
            [centered_window(n) for n in (1, 2, 3)],
            [singleton((0,))],
        )
        path = tmp_path / "series.csv"
        write_series(str(path), series, headers={"model_digest": "x"})
        text = path.read_text(encoding="utf-8").splitlines()
        assert "# model_digest = x" in text
        assert "# epsilon_source = certified" in text
        header = "window_size,d,max_abs_deviation,epsilon_bound,iterations,residual"
        assert header in text
        rows = text[text.index(header) + 1 :]
        assert len(rows) == 2
        for row in rows:
            parts = row.split(",")
            assert len(parts) == 6
            float(parts[2]), float(parts[3])  # parse cleanly


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        field = chain_field(0.045)
        window = chain_window(6)
        sol_a, rep_a = solve_finite_volume(field, window)
        sol_b, rep_b = solve_finite_volume(field, window)
        assert sol_a.values == sol_b.values
        assert rep_a == rep_b
