import itertools
import math
import random

import pytest

from spincorr import (
    BudgetExceededError,
    Configuration,
    DomainError,
    EMPTY_CONFIG,
    EnvironmentConditionError,
    gibbs_distribution,
    partition_function,
    read_table,
    rho_exact,
    rho_probe,
    verify_correlation_equation,
    write_table,
)
from spincorr.exact import _VolumeWalker
from spincorr.fields import (
    OnePointField,
    TripleInteractionField,
    ZeroField,
    delta_volume,
)
from spincorr.lattice import SpinSpace
from spincorr.lattice import enumerate_configs

from support import (
    SPINS2,
    SPINS3,
    brute_force_partition,
    chain_field,
    config,
    random_pair_field,
    singleton,
)

LN2 = math.log(2.0)
WINDOW2 = ((0,), (1,))
# three spins with the vacuum in the middle of the alphabet
SPINS3_MID = SpinSpace(("a", "0", "b"), vacuum_index=1)


def chain_window(n: int) -> tuple:
    return tuple((i,) for i in range(n))


class CountingField(OnePointField):
    """Delegates to a field and counts the eval calls."""

    def __init__(self, base):
        self.base = base
        self.spins = base.spins
        self.dimension = base.dimension
        self.radius = base.radius
        self.calls = 0

    def eval(self, t, boundary, x, u):
        self.calls += 1
        return self.base.eval(t, boundary, x, u)


WALKS = {
    # spins, window, boundary, fixed sites -> spins, walk start
    "q2-chain": (SPINS2, chain_window(6), EMPTY_CONFIG, {}, 0),
    "q2-boundary-fixed": (
        SPINS2,
        chain_window(7),
        config(((-1,), 1), ((7,), 1)),
        {(3,): 1},
        21,
    ),
    "q3-vacuum-mid-grid": (
        SPINS3_MID,
        tuple((i, j) for i in range(2) for j in range(3)),
        config(((-1, 0), 2), ((2, 2), 0)),
        {(0, 1): 2},
        100,
    ),
}


@pytest.mark.parametrize("name", sorted(WALKS))
class TestVolumeWalker:
    def setup_walk(self, name):
        spins, window, boundary, fixed_spins, start = WALKS[name]
        rng = random.Random(name)
        base = random_pair_field(rng, len(window[0]), spins, 1, max_coupling=0.4)
        field = CountingField(base)
        fixed = Configuration(fixed_spins.items())
        free = sorted(s for s in window if s not in fixed_spins)
        walker = _VolumeWalker(field, frozenset(window), boundary, fixed, free)
        return field, walker, start, spins.size ** len(free)

    def walk(self, field, walker, start, total):
        """(digits, support, delta) at each position from start to the end,
        asserting one eval per step and the end of the walk."""
        walker.seek(start)
        seen = []
        for position in range(start, total):
            seen.append((tuple(walker.digits), walker.support_items(), walker.delta))
            calls = field.calls
            moved = walker.advance()
            assert moved == (position < total - 1)
            assert field.calls - calls == (1 if moved else 0)
        return seen

    def test_visits_each_configuration_once_by_single_site_steps(self, name):
        field, walker, _, total = self.setup_walk(name)
        seen = self.walk(field, walker, 0, total)
        digits = [d for d, _, _ in seen]
        assert len(set(digits)) == total
        assert set(digits) == set(
            itertools.product(range(walker.base), repeat=len(walker.free_sites))
        )
        for before, after in zip(digits, digits[1:]):
            changed = [(a, b) for a, b in zip(before, after) if a != b]
            assert len(changed) == 1
            assert abs(changed[0][0] - changed[0][1]) == 1

    def test_code_spells_the_digits(self, name):
        field, walker, start, total = self.setup_walk(name)
        walker.seek(start)
        for _ in range(total - start):
            expected = 0
            for d in walker.digits:
                expected = expected * walker.base + d
            assert walker.code == expected
            walker.advance()

    def test_energy_tracks_telescoped_value(self, name):
        field, walker, start, total = self.setup_walk(name)
        for _, support, delta in self.walk(field, walker, start, total):
            x = Configuration._make(support)
            exact = delta_volume(field.base, walker.window, walker.boundary, x, EMPTY_CONFIG)
            assert abs(delta - exact) <= 1e-12

    def test_seek_resumes_the_walk(self, name):
        field, walker, start, total = self.setup_walk(name)
        full = self.walk(field, walker, 0, total)
        resumed = self.walk(field, walker, start, total)
        assert [d for d, _, _ in resumed] == [d for d, _, _ in full[start:]]
        assert [s for _, s, _ in resumed] == [s for _, s, _ in full[start:]]


class TestPartitionFunction:
    def test_two_site_hand_value(self):
        # Weights 1, 1, 1, 1/2 for {}, {0}, {1}, {0,1}: the coupled pair
        # pays a factor exp(-ln 2).
        z = partition_function(chain_field(LN2), WINDOW2)
        assert z == pytest.approx(3.5, abs=1e-14)

    def test_zero_field_counts_configurations(self):
        zf = ZeroField(SPINS2)
        assert partition_function(zf, chain_window(5)) == pytest.approx(2.0**5, abs=1e-11)
        zf3 = ZeroField(SPINS3)
        assert partition_function(zf3, chain_window(4)) == pytest.approx(3.0**4, abs=1e-11)

    def test_boundary_condition_hand_value(self):
        # Boundary spin at (2,) couples to site (1,): weights become
        # 1, 1, 1/2, 1/4 and Z = 11/4.
        boundary = config(((2,), 1))
        z = partition_function(chain_field(LN2), WINDOW2, boundary=boundary)
        assert z == pytest.approx(2.75, abs=1e-14)

    def test_against_independent_telescoping_sum(self):
        field = chain_field(0.2)
        window = chain_window(8)
        boundary = config(((-1,), 1), ((8,), 1))
        z = partition_function(field, window, boundary=boundary)
        z_ref = brute_force_partition(field, window, boundary, delta_volume)
        assert z == pytest.approx(z_ref, rel=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            partition_function(chain_field(0.1), chain_window(30))


class TestGibbsDistribution:
    def test_normalized(self):
        dist = gibbs_distribution(chain_field(0.2), chain_window(5))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert len(dist.probabilities) == 2**5

    def test_two_site_hand_value(self):
        dist = gibbs_distribution(chain_field(LN2), WINDOW2)
        assert dist.probability(config(((0,), 1), ((1,), 1))) == pytest.approx(
            1.0 / 7.0, abs=1e-15
        )
        assert dist.probability(EMPTY_CONFIG) == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_reference_swap_invariance(self):
        field = chain_field(0.3)
        window = chain_window(4)
        base = gibbs_distribution(field, window)
        other = gibbs_distribution(
            field, window, reference=config(*(((i,), 1) for i in range(4)))
        )
        for cfg, p in base.probabilities.items():
            assert other.probability(cfg) == pytest.approx(p, abs=1e-12)

    def test_probability_outside_window(self):
        dist = gibbs_distribution(chain_field(0.2), WINDOW2)
        with pytest.raises(DomainError):
            dist.probability(singleton((5,)))


class TestRhoExact:
    def test_zero_field_product_form(self):
        table = rho_exact(ZeroField(SPINS2), chain_window(4))
        for cfg, value in table.values.items():
            assert value == pytest.approx(0.5 ** len(cfg), abs=1e-14)

    def test_zero_field_three_spins(self):
        table = rho_exact(ZeroField(SPINS3), chain_window(3))
        for cfg, value in table.values.items():
            assert value == pytest.approx(3.0 ** -len(cfg), abs=1e-14)

    def test_two_site_hand_values(self):
        table = rho_exact(chain_field(LN2), WINDOW2)
        assert table.partition_value == pytest.approx(3.5, abs=1e-14)
        assert table.value(singleton((0,))) == pytest.approx(3.0 / 7.0, abs=1e-15)
        assert table.value(singleton((1,))) == pytest.approx(3.0 / 7.0, abs=1e-15)
        assert table.value(config(((0,), 1), ((1,), 1))) == pytest.approx(
            1.0 / 7.0, abs=1e-15
        )
        assert table.value(EMPTY_CONFIG) == 1.0

    def test_two_site_boundary_hand_values(self):
        # With a boundary spin at (2,): numerators 5/4 at (0,), 3/4 at
        # (1,), 1/4 for the pair, over Z = 11/4.
        boundary = config(((2,), 1))
        table = rho_exact(chain_field(LN2), WINDOW2, boundary=boundary)
        assert table.partition_value == pytest.approx(2.75, abs=1e-14)
        assert table.value(singleton((0,))) == pytest.approx(5.0 / 11.0, abs=1e-15)
        assert table.value(singleton((1,))) == pytest.approx(3.0 / 11.0, abs=1e-15)
        assert table.value(config(((0,), 1), ((1,), 1))) == pytest.approx(
            1.0 / 11.0, abs=1e-15
        )

    def test_marginal_and_extension_routes_agree(self):
        rng = random.Random(7)
        field = random_pair_field(rng, 1, SPINS2, 2)
        window = chain_window(6)
        a = rho_exact(field, window, method="marginal")
        b = rho_exact(field, window, method="extension")
        assert a.partition_value == pytest.approx(b.partition_value, rel=1e-13)
        worst = max(abs(a.values[c] - b.values[c]) for c in a.values)
        assert worst <= 1e-13

    def test_routes_agree_across_blocks(self):
        # 3**7 = 2187 configurations: the walk restarts at position 2048,
        # inside the Gray sequence, on both routes.
        rng = random.Random(17)
        field = random_pair_field(rng, 2, SPINS3_MID, 1, max_coupling=0.3)
        window = tuple((i, j) for i in range(3) for j in range(3))[:7]
        boundary = config(((-1, 0), 0), ((1, 3), 2), ((3, 0), 0))
        a = rho_exact(field, window, boundary=boundary, method="marginal")
        b = rho_exact(field, window, boundary=boundary, method="extension")
        assert len(a.values) == 3**7
        assert set(a.values) == set(b.values)
        assert a.partition_value == pytest.approx(b.partition_value, rel=1e-13)
        worst = max(abs(a.values[c] - b.values[c]) for c in a.values)
        assert worst <= 1e-13
        probes = [
            EMPTY_CONFIG,
            config(((0, 0), 0)),
            config(((0, 1), 2), ((2, 0), 0)),
            config(((0, 0), 2), ((1, 1), 2), ((2, 0), 2)),
        ]
        got = rho_probe(field, window, probes, boundary=boundary)
        for probe in probes:
            assert got[probe] == pytest.approx(a.value(probe), abs=1e-13)

    def test_table_covers_every_configuration(self):
        window = chain_window(3)
        table = rho_exact(chain_field(0.2), window)
        expected = {c for c in enumerate_configs(window, SPINS2)}
        assert set(table.values) == expected
        assert len(table.values) == 2**3

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            rho_exact(chain_field(0.1), WINDOW2, method="fast")

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            rho_exact(chain_field(0.1), chain_window(30))


class TestRhoProbe:
    def test_matches_full_table(self):
        field = chain_field(0.25)
        window = chain_window(6)
        table = rho_exact(field, window)
        probes = [
            EMPTY_CONFIG,
            singleton((2,)),
            config(((0,), 1), ((5,), 1)),
            config(((1,), 1), ((2,), 1), ((3,), 1)),
        ]
        got = rho_probe(field, window, probes)
        for probe in probes:
            assert got[probe] == pytest.approx(table.value(probe), rel=1e-12)

    def test_empty_probe_is_one(self):
        got = rho_probe(chain_field(0.1), WINDOW2, [EMPTY_CONFIG])
        assert got[EMPTY_CONFIG] == 1.0

    def test_probe_outside_window(self):
        with pytest.raises(DomainError):
            rho_probe(chain_field(0.1), WINDOW2, [singleton((9,))])


class TestCorrelationEquation:
    def test_holds_on_gated_chain(self):
        field = chain_field(0.045)
        window = chain_window(6)
        table = rho_exact(field, window)
        report = verify_correlation_equation(field, window, table, tolerance=1e-9)
        assert report.passed, report.summary()
        assert report.instances == 2**6 - 1

    def test_holds_without_contraction_gate(self):
        # The equation is an identity of the finite-volume measure; it does
        # not require the iteration gate to pass.
        field = chain_field(LN2)
        window = chain_window(5)
        table = rho_exact(field, window)
        report = verify_correlation_equation(field, window, table, tolerance=1e-9)
        assert report.passed, report.summary()

    def test_holds_with_three_spins(self):
        rng = random.Random(11)
        field = random_pair_field(rng, 1, SPINS3, 1, max_coupling=0.3)
        window = chain_window(4)
        table = rho_exact(field, window)
        report = verify_correlation_equation(field, window, table, tolerance=1e-9)
        assert report.passed, report.summary()

    def test_detects_corrupted_table(self):
        field = chain_field(0.045)
        window = chain_window(4)
        table = rho_exact(field, window)
        values = dict(table.values)
        values[singleton((1,))] += 1e-3
        from spincorr.exact import CorrelationTable

        bad = CorrelationTable(table.window, values, table.partition_value)
        report = verify_correlation_equation(field, window, bad, tolerance=1e-9)
        assert not report.passed
        assert report.max_residual > 1e-5

    def test_rejects_field_without_boundary_replacement(self):
        base = chain_field(0.05)
        field = TripleInteractionField(base, 0.2)
        window = chain_window(3)
        # The two-route self check already refuses such a field: with a
        # genuine three-body term the marginal and extension enumerations
        # stop agreeing.
        with pytest.raises(DomainError):
            rho_exact(field, window, method="both")
        table = rho_exact(field, window, method="marginal")
        with pytest.raises(EnvironmentConditionError):
            verify_correlation_equation(field, window, table)


class TestTableIO:
    def test_round_trip_exact(self, tmp_path):
        field = chain_field(0.2)
        window = chain_window(5)
        table = rho_exact(field, window)
        path = tmp_path / "table.csv"
        write_table(str(path), table, SPINS2, headers={"model_digest": "abc123"})
        back = read_table(str(path), SPINS2)
        assert back.window == frozenset(window)
        assert back.partition_value == table.partition_value
        assert set(back.values) == set(table.values)
        for cfg, value in table.values.items():
            assert back.values[cfg] == value  # repr round-trips floats exactly
        assert back.headers["model_digest"] == "abc123"
        assert back.headers["vacuum"] == "0"

    def test_round_trip_with_named_spins(self, tmp_path):
        rng = random.Random(3)
        field = random_pair_field(rng, 1, SPINS3, 1, max_coupling=0.2)
        table = rho_exact(field, chain_window(3))
        path = tmp_path / "table3.csv"
        write_table(str(path), table, SPINS3)
        back = read_table(str(path), SPINS3)
        for cfg, value in table.values.items():
            assert back.values[cfg] == value

    def test_rejects_malformed_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# window = 0\nnot-the-header\n", encoding="utf-8")
        with pytest.raises(DomainError):
            read_table(str(path), SPINS2)
