import collections
import functools
import hashlib
import itertools
import math
import pathlib
import random

import pytest

from spincorr import (
    BudgetExceededError,
    Configuration,
    DomainError,
    EMPTY_CONFIG,
    EnvironmentConditionError,
    PairField,
    PairPotential,
    box,
    field_bounds,
    gibbs_distribution,
    load_model,
    parse_model,
    partition_function,
    read_table,
    rho_exact,
    rho_probe,
    verify_correlation_equation,
    write_table,
)
from spincorr import exact
from spincorr.exact import (
    CorrelationTable,
    _TransitionTable,
    _VolumeWalker,
    read_probes,
)
from spincorr.fields import (
    OnePointField,
    PerturbedField,
    TripleInteractionField,
    ZeroField,
    delta_volume,
)
from spincorr.lattice import SpinSpace
from spincorr.lattice import enumerate_configs

from support import (
    COEXISTENCE_MODEL,
    MALFORMED_TABLES,
    SPINS2,
    SPINS3,
    brute_force_partition,
    chain_field,
    config,
    grid_field,
    random_pair_field,
    singleton,
)

LN2 = math.log(2.0)
WINDOW2 = ((0,), (1,))
# three spins with the vacuum in the middle of the alphabet
SPINS3_MID = SpinSpace(("a", "0", "b"), vacuum_index=1)
SPINS4 = SpinSpace(("a", "b", "0", "c"), vacuum_index=2)
METHODS = ("extension", "both")


def chain_window(n: int) -> tuple:
    return tuple((i,) for i in range(n))


class CountingField(OnePointField):
    """Delegates to a field and counts the eval calls."""

    def __init__(self, base):
        self.base = base
        self.spins = base.spins
        self.dimension = base.dimension
        self.radius = base.radius
        self.homogeneous = base.homogeneous
        self.calls = 0

    def eval(self, t, boundary, x, u):
        self.calls += 1
        return self.base.eval(t, boundary, x, u)


def walk_field(kind, rng, dimension, spins):
    pair = random_pair_field(rng, dimension, spins, 1, max_coupling=0.4)
    if kind == "pair":
        return pair
    if kind == "perturbed":
        # opposite bumps on the two swaps between the vacuum and the first
        # star spin at one site: a one-body term there, so the field stays
        # consistent but is no longer translation invariant
        site, star, vac = (2,) * dimension, spins.star_indices[0], spins.vacuum_index
        bumped = PerturbedField(pair, site, star, vac, 0.3)
        return PerturbedField(bumped, site, vac, star, -0.3)
    return TripleInteractionField(pair, 0.3)


def without(sites: tuple, *holes: tuple) -> tuple:
    """The window `sites` less the sites `holes`, which the boundary holds."""
    return tuple(s for s in sites if s not in holes)


GRID23 = tuple((i, j) for i in range(2) for j in range(3))
GRID24 = tuple((i, j) for i in range(2) for j in range(4))

WALKS = {
    # spins, window, boundary, walk start, field kind; a window with a
    # hole has a boundary spin there
    "q2-chain": (SPINS2, chain_window(6), EMPTY_CONFIG, 0, "pair"),
    "q2-boundary-fixed": (
        SPINS2,
        without(chain_window(7), (3,)),
        config(((-1,), 1), ((3,), 1), ((7,), 1)),
        21,
        "pair",
    ),
    "q2-perturbed-boundary": (
        SPINS2,
        chain_window(6),
        config(((6,), 1),),
        5,
        "perturbed",
    ),
    "q3-triple-chain": (
        SPINS3,
        without(chain_window(5), (1,)),
        config(((1,), 2),),
        7,
        "triple",
    ),
    "q3-vacuum-mid-grid": (
        SPINS3_MID,
        without(GRID23, (0, 1)),
        config(((-1, 0), 2), ((0, 1), 2), ((2, 2), 0)),
        100,
        "pair",
    ),
    # 3**8 positions: the walk resumes at 2048, which no power of 3 divides
    "q3-grid-unaligned": (SPINS3_MID, GRID24, config(((2, 1), 2),), 2048, "pair"),
}


def ball_key(field, env, site, old, new):
    """The transition a step reads: the site (for a field that depends on
    it), the spins on the site's ball, and the old and new spins."""
    vac = field.spins.vacuum_index
    ball = tuple(
        env.get(tuple(a + o for a, o in zip(site, off)), vac)
        for off in field.ball_offsets()
    )
    return (None if field.homogeneous else site, ball, old, new)


def support_items(walker, digits=None) -> tuple:
    """The non-vacuum spins of the walker's configuration (or of the one
    that `digits` spell), in site order."""
    vac = walker.vacuum
    digits = walker.digits if digits is None else digits
    return tuple((s, d) for s, d in zip(walker.table.order, digits) if d != vac)


def seek_keys(field, walker):
    """The transitions `seek` telescopes, in window order with the earlier
    sites already vacuum."""
    vac = field.spins.vacuum_index
    env = dict(walker.table.boundary.items)
    env.update(support_items(walker))
    keys = set()
    for t in walker.table.order:
        keys.add(ball_key(field, env, t, vac, env.pop(t, vac)))
    return keys


@pytest.mark.parametrize("name", sorted(WALKS))
class TestVolumeWalker:
    def setup_walk(self, name):
        spins, window, boundary, start, kind = WALKS[name]
        base = walk_field(kind, random.Random(name), len(window[0]), spins)
        field = CountingField(base)
        table = _TransitionTable(field, frozenset(window), boundary)
        return field, _VolumeWalker(table), start, spins.size ** len(window)

    def walk(self, field, walker, start, total, keys=None):
        """(digits, support, delta) at each position from start to the end.

        Asserts the end of the walk, and that each step adds to the energy,
        bit for bit, the field's transition energy on the full
        configuration before the step.  Collects the transitions read
        into `keys`."""
        walker.seek(start)
        if keys is not None:
            keys.update(seek_keys(field.base, walker))
        seen = []
        for position in range(start, total):
            digits, support = tuple(walker.digits), support_items(walker)
            delta = walker.delta
            seen.append((digits, support, delta))
            moved = walker.advance()
            assert moved == (position < total - 1)
            if not moved:
                break
            (pos,) = [p for p, d in enumerate(digits) if d != walker.digits[p]]
            site, old, new = walker.table.order[pos], digits[pos], walker.digits[pos]
            env = dict(walker.table.boundary.items)
            env.update(support)
            env.pop(site, None)
            assert walker.delta == delta + field.base.eval(site, env, new, old)
            if keys is not None:
                keys.add(ball_key(field.base, env, site, old, new))
        return seen

    def test_visits_each_configuration_once_by_single_site_steps(self, name):
        field, walker, _, total = self.setup_walk(name)
        seen = self.walk(field, walker, 0, total)
        digits = [d for d, _, _ in seen]
        assert len(set(digits)) == total
        assert set(digits) == set(
            itertools.product(range(walker.base), repeat=len(walker.digits))
        )
        for before, after in zip(digits, digits[1:]):
            changed = [(a, b) for a, b in zip(before, after) if a != b]
            assert len(changed) == 1
            assert abs(changed[0][0] - changed[0][1]) == 1

    def test_code_spells_the_digits(self, name):
        # the pass's weight at the code that the digits spell, first site
        # most significant, is that of the configuration seek telescopes
        field, walker, start, total = self.setup_walk(name)
        weights = exact._telescoped_weights(walker.table)
        for position in range(start, total):
            walker.seek(position)
            code = functools.reduce(lambda c, d: c * walker.base + d, walker.digits, 0)
            assert weights[code] == pytest.approx(math.exp(walker.delta), rel=1e-12, abs=0.0)

    def test_energy_tracks_telescoped_value(self, name):
        field, walker, start, total = self.setup_walk(name)
        table = walker.table
        for _, support, delta in self.walk(field, walker, start, total):
            x = Configuration._make(support)
            telescoped = delta_volume(
                field.base, table.order, table.boundary, x, EMPTY_CONFIG
            )
            assert abs(delta - telescoped) <= 1e-12

    def test_seek_resumes_the_walk(self, name):
        field, walker, start, total = self.setup_walk(name)
        full = self.walk(field, walker, 0, total)
        resumed = self.walk(field, walker, start, total)
        assert [d for d, _, _ in resumed] == [d for d, _, _ in full[start:]]
        assert [s for _, s, _ in resumed] == [s for _, s, _ in full[start:]]
        # seek restarts from the telescoped sum, exactly as delta_volume adds it
        table = walker.table
        x = Configuration._make(resumed[0][1])
        assert resumed[0][2] == delta_volume(
            field.base, table.order, table.boundary, x, EMPTY_CONFIG
        )

    def test_each_transition_is_evaluated_once(self, name):
        field, walker, start, total = self.setup_walk(name)
        keys: set = set()
        self.walk(field, walker, start, total, keys)
        assert 0 < field.calls <= len(keys)
        second = _VolumeWalker(walker.table)
        calls = field.calls
        self.walk(field, second, start, total)
        assert field.calls == calls

    def test_capped_table_walks_the_same_energies(self, name, monkeypatch):
        field, walker, start, total = self.setup_walk(name)
        full = self.walk(field, walker, start, total)
        monkeypatch.setattr(exact, "TRANSITION_TABLE_CAP", 4)
        field, walker, start, total = self.setup_walk(name)
        table = walker.table
        walker.seek(start)
        capped = []
        for _ in range(start, total):
            capped.append((tuple(walker.digits), support_items(walker), walker.delta))
            walker.advance()
            stored = {id(m): len(m) for m in table.memo_list}
            assert table.size == sum(stored.values()) <= 4
        assert capped == full


class ThreeBodyField(OnePointField):
    """A plane pair field plus `strength` on every L-shaped triple
    {s, s + (1, 0), s + (0, 1)} whose three spins all take the mark.
    Consistent, unlike TripleInteractionField, and its swap energy depends
    on pairs of ball spins, not on each ball spin alone."""

    def __init__(self, base, strength):
        self.base = base
        self.spins = base.spins
        self.dimension = 2
        self.radius = base.radius
        self.homogeneous = True
        self.strength = strength
        self.mark = base.spins.star_indices[0]

    def eval(self, t, boundary, x, u):
        value = self.base.eval(t, boundary, x, u)
        du, dx = u == self.mark, x == self.mark
        if du == dx:
            return value
        i, j = t

        def marked(a, b):
            return boundary.get((i + a, j + b)) == self.mark

        triples = (
            (marked(1, 0) and marked(0, 1))
            + (marked(-1, 0) and marked(-1, 1))
            + (marked(0, -1) and marked(1, -1))
        )
        return value + self.strength * (du - dx) * triples


def consistent_field(kind, rng, dimension, spins):
    """A random pair field, with a one-body term at one site ("one-body")
    or the L-shaped triples ("three-body") on top."""
    pair = random_pair_field(rng, dimension, spins, 1, max_coupling=0.4)
    if kind == "three-body":
        return ThreeBodyField(pair, 0.3)
    if kind == "one-body":
        # h = 0.3 on the first star spin at one site: every swap into that
        # spin gains 0.3, every swap out of it loses 0.3
        site, star, field = (1,) * dimension, spins.star_indices[0], pair
        for other in spins.indices:
            if other != star:
                field = PerturbedField(field, site, other, star, 0.3)
                field = PerturbedField(field, site, star, other, -0.3)
        return field
    return pair


BLOCK_WALKS = {
    # spins, window, boundary, field kind; a window with a hole has a
    # boundary spin there
    # 2**13 positions: four blocks of 2**11, the second and fourth backward
    "q2-13-free": (
        SPINS2,
        without(chain_window(14), (5,)),
        config(((-1,), 1), ((5,), 1), ((14,), 1)),
        "pair",
    ),
    # 3**7 positions: three blocks of 3**6
    "q3-vacuum-mid-grid": (
        SPINS3_MID,
        without(GRID24, (1, 2)),
        config(((-1, 1), 0), ((0, 4), 0), ((1, 2), 0), ((2, 3), 2)),
        "three-body",
    ),
    # 4**6 positions: four blocks of 4**5
    "q4-chain": (
        SPINS4,
        without(chain_window(7), (3,)),
        config(((-1,), 3), ((3,), 1), ((7,), 0)),
        "one-body",
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCK_WALKS))
class TestBlockWalks:
    """walk() steps through a whole block from the table's move lists."""

    def setup_walk(self, name):
        spins, window, boundary, kind = BLOCK_WALKS[name]
        field = consistent_field(kind, random.Random(name), len(window[0]), spins)
        table = _TransitionTable(field, frozenset(window), boundary)
        return field, _VolumeWalker(table)

    @staticmethod
    def stepped(walker, start, stop):
        """(digits, delta) by seek(start) and advance() steps."""
        walker.seek(start)
        out = []
        for _ in range(start, stop):
            out.append((tuple(walker.digits), walker.delta))
            walker.advance()
        return out

    def test_blocks_match_seek_and_advance_bit_for_bit(self, name):
        field, walker = self.setup_walk(name)
        table = walker.table
        blocks = table.blocks()
        assert len(blocks) >= 3
        for start, stop in blocks:
            stepped = self.stepped(walker, start, stop)
            assert walker.walk(start, stop) == [delta for _, delta in stepped]
        # both directions of one move list were read, and nothing else
        b = table.block_digits
        assert set(table._moves) == {(b, True), (b, False)}

    def test_blocks_track_the_telescoped_energy(self, name):
        field, walker = self.setup_walk(name)
        table = walker.table
        for start, stop in table.blocks():
            stepped = self.stepped(walker, start, stop)
            for (digits, _), delta in zip(stepped, walker.walk(start, stop)):
                x = Configuration._make(support_items(walker, digits))
                telescoped = delta_volume(
                    field, table.order, table.boundary, x, EMPTY_CONFIG
                )
                assert abs(delta - telescoped) <= 1e-12

    def test_walk_stays_at_its_start(self, name):
        field, walker = self.setup_walk(name)
        start, stop = walker.table.blocks()[1]
        walker.seek(start)
        before = (list(walker.digits), walker.delta, list(walker.codes))
        walker.walk(start, stop)
        assert (list(walker.digits), walker.delta, walker.codes) == before

    def test_rejects_an_unaligned_range(self, name):
        field, walker = self.setup_walk(name)
        start, stop = walker.table.blocks()[1]
        with pytest.raises(ValueError):
            walker.walk(start + 1, stop + 1)


def test_move_lists_are_built_once_per_call(monkeypatch):
    built: collections.Counter = collections.Counter()
    gray_step = exact._gray_step

    def counting(digits, steps, q):
        built[len(digits)] += 1
        return gray_step(digits, steps, q)

    monkeypatch.setattr(exact, "_gray_step", counting)
    # rho_exact's self-check walks 3**8 positions in 9 blocks of 3**6,
    # forward and backward: the forward 6-digit list makes 3**6 - 1 moves
    # and one call that ends it, and the backward list reverses it without
    # a call
    field = random_pair_field(random.Random(8), 1, SPINS3, 1, max_coupling=0.3)
    rho_exact(field, chain_window(8))
    assert built == {6: 3**6}
    # the lists live on the call's table, not beyond it
    rho_exact(field, chain_window(8))
    assert built == {6: 2 * 3**6}
    # the other routes walk nothing
    rho_exact(field, chain_window(8), method="extension")
    partition_function(field, chain_window(8))
    assert built == {6: 2 * 3**6}


WEIGHT_PASSES = {
    # spins, window, boundary, field kind
    "q2-chain": (SPINS2, chain_window(7), EMPTY_CONFIG, "pair"),
    "q3-grid-boundary": (
        SPINS3,
        tuple((i, j) for i in range(2) for j in range(3)),
        config(((-1, 0), 2), ((2, 2), 1), ((0, 3), 2)),
        "pair",
    ),
    "q4-vacuum-inside": (
        SPINS4,
        chain_window(5),
        config(((-1,), 3), ((5,), 0)),
        "pair",
    ),
    "q3-perturbed": (SPINS3_MID, chain_window(6), config(((6,), 2),), "perturbed"),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_PASSES))
def test_telescoped_weights_match_delta_volume(name):
    spins, window, boundary, kind = WEIGHT_PASSES[name]
    field = walk_field(kind, random.Random(name), len(window[0]), spins)
    table = _TransitionTable(field, frozenset(window), boundary)
    weights = exact._telescoped_weights(table)
    q, n, vac = spins.size, len(window), spins.vacuum_index
    assert len(weights) == q**n
    for code, weight in enumerate(weights):
        digits = [code // q ** (n - 1 - p) % q for p in range(n)]
        x = Configuration((s, d) for s, d in zip(table.order, digits) if d != vac)
        expected = math.exp(delta_volume(field, window, boundary, x, EMPTY_CONFIG))
        assert weight == pytest.approx(expected, rel=1e-12, abs=0.0)


def recursive_weights(transitions) -> list:
    """The telescoped weights from a depth-first pass that places the spins
    in reverse window order, shifting shared ball codes before each call
    and back after it: the sums `_telescoped_weights` must reproduce bit
    for bit."""
    n = len(transitions.order)
    q, vac = transitions.base, transitions.vacuum
    energy = transitions.energy
    neighbours = transitions.neighbours
    codes = list(transitions.boundary_codes)
    places = [q ** (n - 1 - k) for k in range(n)]
    deltas = [0.0] * q**n

    def place(k: int, code: int, delta: float) -> None:
        ball = codes[k]
        for b in range(q):
            c = code + b * places[k]
            d = delta if b == vac else delta + energy(k, ball, vac, b)
            if not k:
                deltas[c] = d
                continue
            shift = b - vac
            for j, p in neighbours[k]:
                codes[j] += shift * p
            place(k - 1, c, d)
            for j, p in neighbours[k]:
                codes[j] -= shift * p

    if n:
        place(n - 1, 0, 0.0)
    return exact._exp_all(deltas)


RECURSIVE_PASSES = {
    **WEIGHT_PASSES,
    "empty-window": (SPINS3_MID, (), config(((1,), 2)), "pair"),
    "one-site-window": (SPINS3_MID, chain_window(1), config(((1,), 2)), "pair"),
}


@pytest.mark.parametrize("name", sorted(RECURSIVE_PASSES))
@pytest.mark.parametrize("cap", [None, 4], ids=["default-cap", "cap-4"])
def test_telescoped_weights_match_the_recursive_pass_bit_for_bit(monkeypatch, name, cap):
    if cap is not None:
        monkeypatch.setattr(exact, "TRANSITION_TABLE_CAP", cap)
    spins, window, boundary, kind = RECURSIVE_PASSES[name]
    field = walk_field(kind, random.Random(name), len(window[0]) if window else 1, spins)
    expected = recursive_weights(_TransitionTable(field, frozenset(window), boundary))
    got = exact._telescoped_weights(_TransitionTable(field, frozenset(window), boundary))
    assert len(got) == spins.size ** len(window)
    assert got == expected


def test_extension_route_walks_nothing(monkeypatch):
    # the table's weights come from the telescoped pass, which shares only
    # the transition table with the walk: "extension" builds no walker,
    # and the default builds walkers only to stream its check's Z
    built = []
    init = _VolumeWalker.__init__

    def counting(self, table):
        built.append(table)
        init(self, table)

    monkeypatch.setattr(_VolumeWalker, "__init__", counting)
    field = random_pair_field(random.Random(3), 1, SPINS3, 1, max_coupling=0.3)
    table = rho_exact(field, chain_window(5), method="extension")
    assert built == []
    assert len(table.values) == 3**5 and table.partition_value > 0
    assert rho_exact(field, chain_window(5)).codes == table.codes
    assert built  # the counter sees the walks that do run


def walked_weights(transitions) -> list:
    """exp of the energies that seek(0) and advance() steps walk, each at
    the code that its digits spell."""
    walker = _VolumeWalker(transitions)
    q = transitions.base
    weights = [0.0] * q ** len(transitions.order)
    walker.seek(0)
    moved = True
    while moved:
        code = functools.reduce(lambda c, d: c * q + d, walker.digits, 0)
        weights[code] = math.exp(walker.delta)
        moved = walker.advance()
    return weights


def block_fold(transitions, weights: list) -> list:
    """The fold as one pass per block of every site's axis: the order
    `_fold_numerators` must reproduce bit for bit."""
    n = len(transitions.order)
    q, vac = transitions.base, transitions.vacuum
    for pos in range(n):
        stride = q ** (n - 1 - pos)
        for lo in range(0, len(weights), q * stride):
            axis = [weights[lo + b * stride : lo + (b + 1) * stride] for b in range(q)]
            weights[lo + vac * stride : lo + (vac + 1) * stride] = map(math.fsum, zip(*axis))
    return weights


@pytest.mark.parametrize(
    "model, sites", [("chain_gated", n) for n in (1, 2, 5, 12)]
    + [("chain_q3_mid", n) for n in (1, 2, 5, 7)],
)
@pytest.mark.parametrize("route", ["walked", "telescoped"])
def test_fold_matches_the_block_order_bit_for_bit(model, sites, route):
    field = load_model(str(MODELS / f"{model}.model")).field
    table = _TransitionTable(field, frozenset(chain_window(sites)), EMPTY_CONFIG)
    if route == "walked":
        weights = walked_weights(table)
    else:
        weights = exact._telescoped_weights(table)
    expected = block_fold(table, list(weights))
    assert exact._fold_numerators(table, weights) == expected


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

    def test_budget(self, monkeypatch):
        # a 30-site chain holds one site at a time; a 21 x 21 box holds a
        # row and a site, 2**22 states, and is refused before any energy
        field = grid_field(0.1)
        assert partition_function(chain_field(0.1), chain_window(30)) > 1.0

        def energy(*args):
            raise AssertionError("an energy was evaluated")

        monkeypatch.setattr(_TransitionTable, "energy", energy)
        with pytest.raises(BudgetExceededError, match="needs 4194304 states, budget is 1048576"):
            partition_function(field, box((0, 0), (20, 20)))

    @pytest.mark.parametrize(
        "call",
        [
            partition_function,
            gibbs_distribution,
            *(functools.partial(rho_exact, method=m) for m in METHODS),
        ],
        ids=["partition", "gibbs", *METHODS],
    )
    def test_overflowing_weight_sum_is_refused(self, call):
        # 8**5 configurations of weight e**700 each: every exponent is in
        # range, their sum is not
        with pytest.raises(DomainError, match="weight sum overflows the float range"):
            call(overflowing_field(), chain_window(5))

    def test_probe_reads_past_an_overflowing_weight_sum(self):
        # a probe combines log Z values, so the sum that overflows above
        # cancels: each of the 8 spins at a site has probability 1/8 up to
        # the vacuum's share e**-140
        probe = singleton((0,))
        value = rho_probe(overflowing_field(), chain_window(5), [probe])[probe]
        assert value == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_underflowing_weights_count_as_zero(self):
        # J = 120 makes every adjacent occupied pair weigh e**-120 or less,
        # and the fully occupied chain's e**-840 underflows: what remains is
        # the hard-core count of the 8-site chain, F(10)
        z = partition_function(chain_field(120.0), chain_window(8))
        assert z == pytest.approx(55.0, rel=1e-14)
        table = rho_exact(chain_field(120.0), chain_window(8))
        assert table.partition_value == 55.0
        assert table.value(config(((0,), 1), ((1,), 1))) < 1e-50


def overflowing_field() -> PairField:
    """Nine spins, each of the eight non-vacuum ones weighing e**140 at
    every site."""
    spins = SpinSpace(tuple("0abcdefgh"))
    potential = PairPotential.create(1, 1, {}, spins)
    return PairField(potential, spins, [0.0] + [-140.0] * 8)


class TestGibbsDistribution:
    def test_normalized(self):
        dist = gibbs_distribution(chain_field(0.2), chain_window(5))
        assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist.probabilities) == 2**5

    def test_two_site_hand_value(self):
        dist = gibbs_distribution(chain_field(LN2), WINDOW2)
        assert dist.probability(config(((0,), 1), ((1,), 1))) == pytest.approx(
            1.0 / 7.0, abs=1e-15
        )
        assert dist.probability(EMPTY_CONFIG) == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_reference_swap_invariance(self):
        # p(x) = p(ref) exp{Delta(x, ref)}: the walked weights agree with
        # the volume energy telescoped against a full reference directly
        field = chain_field(0.3)
        window = chain_window(4)
        boundary = config(((4,), 1))
        ref = config(*(((i,), 1) for i in range(4)))
        dist = gibbs_distribution(field, window, boundary)
        p_ref = dist.probability(ref)
        for cfg, p in dist.probabilities.items():
            delta = delta_volume(field, window, boundary, cfg, ref)
            assert p == pytest.approx(p_ref * math.exp(delta), abs=1e-12)

    def test_partition_value_is_one_sum(self):
        # the full tables share the pass's Z; the walk streams its own,
        # 2**13 configurations in more than one block, within the
        # self-check's tolerance
        field = load_model(str(MODELS / "chain_ln2.model")).field
        window = box((0,), (12,))
        z = rho_exact(field, window).partition_value
        assert gibbs_distribution(field, window).partition_value == z
        walked = partition_function(field, window)
        assert walked == pytest.approx(z, rel=exact.SELF_CHECK_TOL, abs=0.0)

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
        # every entry of the pass's table against rho_probe's marginal,
        # a ratio of partition functions that the walk streams
        rng = random.Random(7)
        field = random_pair_field(rng, 1, SPINS2, 2)
        window = chain_window(6)
        table = rho_exact(field, window, method="extension")
        z = partition_function(field, window)
        assert table.partition_value == pytest.approx(z, rel=1e-13)
        marginals = rho_probe(field, window, list(table.values))
        assert max(abs(marginals[c] - v) for c, v in table.values.items()) <= 1e-13

    def test_routes_agree_across_blocks(self):
        # 3**7 = 2187 configurations: the walk restarts at position 2048,
        # inside the Gray sequence, for Z and for every probe's numerator.
        rng = random.Random(17)
        field = random_pair_field(rng, 2, SPINS3_MID, 1, max_coupling=0.3)
        window = tuple((i, j) for i in range(3) for j in range(3))[:7]
        boundary = config(((-1, 0), 0), ((1, 3), 2), ((3, 0), 0))
        a = rho_exact(field, window, boundary=boundary)
        assert len(a.values) == 3**7
        z = partition_function(field, window, boundary)
        assert a.partition_value == pytest.approx(z, rel=1e-13)
        probes = [
            EMPTY_CONFIG,
            config(((0, 0), 0)),
            config(((0, 1), 2), ((2, 0), 0)),
            config(((0, 0), 2), ((1, 1), 2), ((2, 0), 2)),
        ]
        got = rho_probe(field, window, probes, boundary=boundary)
        for probe in probes:
            assert got[probe] == pytest.approx(a.value(probe), abs=1e-13)

    @pytest.mark.parametrize("kind", ["one-body", "three-body"])
    def test_routes_agree_beyond_pair_fields(self, kind):
        # per-site memos (one-body) and non-pair ball dependence
        # (three-body) on the 3**7 grid of test_routes_agree_across_blocks
        field = consistent_field(kind, random.Random(kind), 2, SPINS3_MID)
        window = tuple((i, j) for i in range(3) for j in range(3))[:7]
        boundary = config(((-1, 0), 0), ((1, 3), 2), ((3, 0), 0), ((2, 1), 0))
        a = rho_exact(field, window, boundary=boundary)
        z = partition_function(field, window, boundary)
        assert a.partition_value == pytest.approx(z, rel=1e-13)
        probes = [
            config(((1, 1), 0)),
            config(((0, 0), 0), ((0, 1), 0), ((1, 0), 0)),
            config(((1, 1), 0), ((1, 2), 2), ((2, 0), 2)),
        ]
        got = rho_probe(field, window, probes, boundary=boundary)
        for probe in probes:
            assert got[probe] == pytest.approx(a.value(probe), abs=1e-13)

    def test_routes_disagree_on_an_inconsistent_field(self):
        # TripleInteractionField's volume energy depends on the walk's
        # path, so the walk's Z parts from the pass's and the self check
        # refuses it
        pair = random_pair_field(random.Random(5), 2, SPINS3_MID, 1, 0.4)
        field = TripleInteractionField(pair, 0.3)
        window = tuple((i, j) for i in range(3) for j in range(3))[:7]
        with pytest.raises(DomainError, match="routes disagree"):
            rho_exact(field, window, boundary=config(((1, 3), 2)))

    def test_routes_share_one_transition_table(self):
        # a two-spin chain of radius 1 has 2**2 ball codes and 2**2
        # (old, new) pairs, however often the walk and the pass read them
        field = CountingField(chain_field(0.2))
        rho_exact(field, chain_window(8), method="both")
        assert field.calls <= 2**2 * 2**2

    def test_table_covers_every_configuration(self):
        window = chain_window(3)
        table = rho_exact(chain_field(0.2), window)
        expected = {
            Configuration((s, b) for s, b in zip(window, spins) if b)
            for spins in itertools.product((0, 1), repeat=len(window))
        }
        assert set(table.values) == expected
        assert len(table.values) == 2**3

    def test_unknown_method(self):
        for method in ("fast", "marginal"):
            with pytest.raises(DomainError, match="unknown method"):
                rho_exact(chain_field(0.1), WINDOW2, method=method)

    def test_self_check_sees_one_scaled_weight(self, monkeypatch):
        # the walk's Z is the check's only input besides the pass: one
        # weight of the pass scaled by 1 + 1e-6 moves the pass's Z by
        # far more than SELF_CHECK_TOL, and only the default walks
        telescoped = exact._telescoped_weights

        def scaled(transitions):
            weights = telescoped(transitions)
            weights[5] *= 1.0 + 1e-6
            return weights

        monkeypatch.setattr(exact, "_telescoped_weights", scaled)
        field = load_model(str(MODELS / "chain_gated.model")).field
        with pytest.raises(DomainError, match="routes disagree"):
            rho_exact(field, chain_window(6))
        rho_exact(field, chain_window(6), method="extension")

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            rho_exact(chain_field(0.1), chain_window(30))


@pytest.mark.parametrize(
    "call",
    [gibbs_distribution, functools.partial(rho_exact, method="extension")],
    ids=["gibbs", "extension"],
)
def test_every_full_table_has_the_step_cap(call):
    # 2**16 configurations are within the budget, (2 + 1)**16 steps are not:
    # each full table builds the same q**n pass list and its fold
    with pytest.raises(BudgetExceededError, match="needs 43046721 enumeration steps"):
        call(chain_field(0.1), chain_window(16))


PROBE_CASES = {
    # spins, window, boundary, field kind
    "q2-chain-boundary": (
        SPINS2,
        chain_window(6),
        config(((-1,), 1), ((6,), 1)),
        "pair",
    ),
    "q3-vacuum-mid-grid": (
        SPINS3_MID,
        GRID23,
        config(((-1, 0), 2), ((0, 3), 0), ((2, 1), 2)),
        "three-body",
    ),
    "q3-grid-one-body": (SPINS3, GRID23, EMPTY_CONFIG, "one-body"),
    "q4-chain-one-body": (
        SPINS4,
        chain_window(5),
        config(((-1,), 3), ((5,), 0)),
        "one-body",
    ),
}


def brute_force_probe(field, window, boundary, probe):
    """The probe's correlation value from the defining sums, every
    configuration's energy telescoped by delta_volume."""
    numerator, z = [], []
    pinned = dict(probe.items)
    for x in enumerate_configs(window, field.spins):
        weight = math.exp(delta_volume(field, window, boundary, x, EMPTY_CONFIG))
        z.append(weight)
        spins = dict(x.items)
        if all(spins.get(s) == b for s, b in pinned.items()):
            numerator.append(weight)
    return math.fsum(numerator) / math.fsum(z)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_rho_exact_matches_the_defining_sums(name, method):
    # one brute-force pass adds each configuration's weight to every
    # restriction of it, so each entry is summed target by target
    spins, window, boundary, kind = PROBE_CASES[name]
    field = consistent_field(kind, random.Random(name), len(window[0]), spins)
    sums = collections.defaultdict(list)
    for x in enumerate_configs(window, spins):
        weight = math.exp(delta_volume(field, window, boundary, x, EMPTY_CONFIG))
        for k in range(len(x) + 1):
            for items in itertools.combinations(x.items, k):
                sums[Configuration._make(items)].append(weight)
    table = rho_exact(field, window, boundary=boundary, method=method)
    z = math.fsum(sums[EMPTY_CONFIG])
    assert table.partition_value == pytest.approx(z, rel=1e-12, abs=0.0)
    assert set(table.values) == set(sums)
    for x, weights in sums.items():
        expected = math.fsum(weights) / z
        assert table.values[x] == pytest.approx(expected, rel=1e-12, abs=0.0), x


def random_probes(rng, window, spins) -> list:
    """Probes on one site, on two sites and on the whole window, with
    random non-vacuum spins."""
    probes = []
    for k in (1, 2, len(window)):
        sites = sorted(rng.sample(window, k))
        probes.append(Configuration((s, rng.choice(spins.star_indices)) for s in sites))
    return probes


class TestRhoProbe:
    @pytest.mark.parametrize("name", sorted(PROBE_CASES))
    def test_matches_brute_force(self, name):
        spins, window, boundary, kind = PROBE_CASES[name]
        rng = random.Random(name)
        field = consistent_field(kind, rng, len(window[0]), spins)
        probes = random_probes(rng, window, spins)
        got = rho_probe(field, window, probes, boundary=boundary)
        for probe in probes:
            expected = brute_force_probe(field, window, boundary, probe)
            assert got[probe] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_each_probe_moves_into_the_boundary(self, monkeypatch):
        # one table for the denominator, then one per nonempty probe on
        # the rest of the window with the probe in the boundary
        built = []
        init = _TransitionTable.__init__

        def recording(self, field, window, boundary):
            built.append((window, boundary))
            init(self, field, window, boundary)

        monkeypatch.setattr(_TransitionTable, "__init__", recording)
        spins, window, boundary, kind = PROBE_CASES["q3-vacuum-mid-grid"]
        rng = random.Random(3)
        field = consistent_field(kind, rng, 2, spins)
        probes = [EMPTY_CONFIG] + random_probes(rng, window, spins)
        rho_probe(field, window, probes, boundary=boundary)
        window = frozenset(window)
        assert built == [(window, boundary)] + [
            (window - p.support, Configuration(boundary.items + p.items))
            for p in probes[1:]
        ]

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


@pytest.mark.parametrize("name", ["coexistence", "grid_gated"])
def test_boundary_frame_moves_the_density_only_past_the_gate(name):
    # claim (i)'s smallness condition is not removable in 2-d: at Ising
    # coexistence, the density at (1, 1) of a 4x4 window follows its frame
    # (0.0031 empty, 0.9969 all occupied), and at the centre of a 9x9 one
    # still by 0.994, while on the gated grid the frame moves them by
    # 7.9e-6 and 1.2e-13
    if name == "coexistence":
        field = parse_model(COEXISTENCE_MODEL).field
    else:
        field = load_model(str(MODELS / f"{name}.model")).field
    gated = field_bounds(field).passes
    assert gated == (name == "grid_gated")
    for side, centre, gated_gap in ((4, (1, 1), 1e-5), (9, (4, 4), 1e-12)):
        window = box((0, 0), (side - 1, side - 1))
        frame = sorted(box((-1, -1), (side, side)) - window)
        probe = singleton(centre)
        empty = rho_probe(field, window, [probe])[probe]
        full = rho_probe(field, window, [probe], config(*((s, 1) for s in frame)))[probe]
        if gated:
            assert abs(full - empty) <= gated_gap
        else:
            assert full - empty > 0.99


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
        bad = CorrelationTable(table.window, values, table.partition_value)
        report = verify_correlation_equation(field, window, bad, tolerance=1e-9)
        assert not report.passed
        assert report.max_residual > 1e-5

    def test_rejects_field_without_boundary_replacement(self):
        base = chain_field(0.05)
        field = TripleInteractionField(base, 0.2)
        window = chain_window(3)
        # The default self check already refuses such a field: with a
        # genuine three-body term the walk's Z and the pass's stop
        # agreeing.
        with pytest.raises(DomainError):
            rho_exact(field, window, method="both")
        table = rho_exact(field, window, method="extension")
        with pytest.raises(EnvironmentConditionError):
            verify_correlation_equation(field, window, table)

    @pytest.mark.parametrize("star", [None, (1,)])
    def test_spin_outside_the_coding_is_a_domain_error(self, star):
        # spin index 5 is neither in the table's given star nor a spin of
        # the field: the constructor, or the oracle's re-coding, names it
        field = load_model(str(MODELS / "chain_gated.model")).field
        window = chain_window(2)
        values = {EMPTY_CONFIG: 1.0, singleton((0,), 5): 0.1}
        match = r"spin index 5 at site \(0,\)"
        with pytest.raises(DomainError, match=match):
            table = CorrelationTable(window, values, star=star)
            verify_correlation_equation(field, window, table)

    def test_nan_residual_fails(self, monkeypatch):
        field = chain_field(0.045)
        window = chain_window(3)
        table = rho_exact(field, window)
        monkeypatch.setattr(exact, "correlation_rhs", lambda *args: math.nan)
        report = verify_correlation_equation(field, window, table)
        assert not report.passed
        assert report.max_residual == math.inf


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


SWEEP_FIELDS = {
    **{
        path.stem: functools.partial(lambda path: load_model(str(path)).field, path)
        for path in sorted(MODELS.glob("*.model"))
    },
    "range-2-q3-mid": lambda: random_pair_field(random.Random(2), 1, SPINS3_MID, 2, 0.3),
    "consistent-perturbed": lambda: walk_field("perturbed", random.Random(4), 2, SPINS3_MID),
}


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_summed_pass_matches_the_walk(name):
    # the pass that sums each site out ends with [log Z]; the walk sums
    # every configuration's weight along another placing path.  Each window
    # is tried free and inside a frame two sites deep
    field = SWEEP_FIELDS[name]()
    star = field.spins.star_indices
    if field.dimension == 1:
        window, outer = box((0,), (8,)), box((-2,), (10,))
    else:
        window, outer = box((0, 0), (2, 2)), box((-2, -2), (4, 4))
    sites = sorted(outer - window)
    frame = Configuration((s, star[i % len(star)]) for i, s in enumerate(sites))
    for boundary in (EMPTY_CONFIG, frame):
        table = _TransitionTable(field, window, boundary)
        walked = math.fsum(exact._block_weights(table))
        (log_z,) = exact._telescoped_weights(table, True)
        assert math.exp(log_z) == pytest.approx(walked, rel=1e-12, abs=0.0)
        assert partition_function(field, window, boundary) == math.exp(log_z)


def grid_window(rows: int, columns: int) -> tuple:
    return tuple(sorted(box((0, 0), (rows - 1, columns - 1))))


def model_table(name: str, window: tuple):
    field = load_model(str(MODELS / f"{name}.model")).field
    return field, window, rho_exact(field, window)


def random_field_table(seed: int, spins, radius: int, window: tuple):
    field = random_pair_field(random.Random(seed), 1, spins, radius, 0.3)
    return field, window, rho_exact(field, window)


def corrupted_table():
    field, window, table = model_table("chain_gated", chain_window(6))
    values = dict(table.values)
    values[config(((1,), 1), ((2,), 1))] *= 1.0 + 1e-6
    return field, window, CorrelationTable(table.window, values, table.partition_value)


def sparse_table():
    """A 3-site table window inside a 6-site oracle window.  The entries
    come from a 4-site table, so every entry on site 3 lies outside the
    table's own window, as do two added entries; every pair on site 2 is
    missing.  `CorrelationTable.value` reads all of these as 0."""
    field = random_pair_field(random.Random(5), 1, SPINS3_MID, 1, 0.3)
    full = rho_exact(field, chain_window(4))
    values = {
        x: v for x, v in full.values.items() if len(x) != 2 or (2,) not in x.support
    }
    values[config(((4,), 0))] = 0.25
    values[config(((1,), 2), ((5,), 0))] = 0.125
    table = CorrelationTable(frozenset(chain_window(3)), values, full.partition_value)
    return field, chain_window(6), table


ORACLE_CASES = {
    "chain_gated-12": lambda: model_table("chain_gated", chain_window(12)),
    "q3-mid-vacuum": lambda: random_field_table(23, SPINS3_MID, 1, chain_window(5)),
    "range-2": lambda: random_field_table(31, SPINS2, 2, chain_window(6)),
    "grid_gated-3x3": lambda: model_table("grid_gated", grid_window(3, 3)),
    "grid_gated-2x3": lambda: model_table("grid_gated", grid_window(2, 3)),
    "corrupted": corrupted_table,
    "sparse": sparse_table,
}
# (instances, repr(max_residual), witness, digest of every rhs repr) of each
# report, as the oracle gave them when it looked each value up through a
# fresh Configuration; reading the table by code must not move a bit.  The
# tables of chain_gated-12, q3-mid-vacuum, corrupted and sparse were
# re-recorded when rho_exact took its weights from the telescoped pass
# alone, which moved some of their entries by at most 1.2e-16
ORACLE_GOLDEN = {
    "chain_gated-12": (
        4095,
        "5.551115123125783e-17",
        "x={(0,):1} lhs=0.49450035068235754 rhs=0.4945003506823575",
        "79fede8ea861745e",
    ),
    "q3-mid-vacuum": (
        242,
        "1.1102230246251565e-16",
        "x={(0,):2} lhs=0.3568783499227921 rhs=0.356878349922792",
        "34e10b5ba4bc9708",
    ),
    "range-2": (
        63,
        "1.1102230246251565e-16",
        "x={(3,):1} lhs=0.653687741218659 rhs=0.6536877412186591",
        "9ee673df50494780",
    ),
    "grid_gated-3x3": (
        511,
        "5.551115123125783e-17",
        "x={(0, 0):1} lhs=0.49801196251059765 rhs=0.4980119625105976",
        "eff66d7a835b4e2d",
    ),
    "grid_gated-2x3": (
        63,
        "2.7755575615628914e-17",
        "x={(0, 0):1, (0, 2):1} lhs=0.24801493861782115 rhs=0.24801493861782117",
        "5982b32904587470",
    ),
    "corrupted": (
        63,
        "2.3628347745052736e-07",
        "x={(1,):1, (2,):1} lhs=0.23628371375991145 rhs=0.236283477476434",
        "091760c0ec0352a4",
    ),
    "sparse": (
        70,
        "0.125",
        "x={(1,):2, (5,):0} lhs=0.125 rhs=0.0",
        "1b0ab81697390283",
    ),
}


class TestOracleGolden:
    """The oracle's reports and every right-hand side it computes, bit for
    bit, on 1-d and 2-d tables, q = 3 with a mid-alphabet vacuum, range 2,
    a corrupted table and a sparse table that reads entries outside its
    window and missing entries as 0."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_report_and_every_rhs(self, monkeypatch, name):
        field, window, table = ORACLE_CASES[name]()
        seen = []
        rhs = exact.correlation_rhs

        def record(*args):
            seen.append(rhs(*args))
            return seen[-1]

        monkeypatch.setattr(exact, "correlation_rhs", record)
        report = verify_correlation_equation(field, window, table)
        digest = hashlib.sha256(" ".join(map(repr, seen)).encode()).hexdigest()
        got = (report.instances, repr(report.max_residual), report.witness)
        assert (*got, digest[:16]) == ORACLE_GOLDEN[name]
        assert report.passed == (name not in ("corrupted", "sparse"))

    def test_per_entry_work_builds_no_configuration(self, monkeypatch):
        # the oracle reads the table by code: no entry check builds a
        # Configuration or looks a value up through CorrelationTable.value
        field, window, table = model_table("grid_gated", grid_window(2, 3))
        checking = []
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += bool(checking)
                return fn(*args, **kwargs)

            return wrapper

        def entry(*args, rhs=exact.correlation_rhs):
            checking.append(True)
            try:
                return rhs(*args)
            finally:
                checking.pop()

        make = classmethod(counted("_make", Configuration._make.__func__))
        monkeypatch.setattr(Configuration, "_make", make)
        init = counted("__init__", Configuration.__init__)
        monkeypatch.setattr(Configuration, "__init__", init)
        value = counted("value", CorrelationTable.value)
        monkeypatch.setattr(CorrelationTable, "value", value)
        monkeypatch.setattr(exact, "correlation_rhs", entry)
        report = verify_correlation_equation(field, window, table)
        assert report.passed and report.instances == 63
        assert sum(calls.values()) == 0, calls


def narrow_star_table():
    """`chain_q3_mid` over 0:3, only the entries whose spins are all `a`:
    the table's star is (0,), the field's is (0, 2)."""
    field, window, full = model_table("chain_q3_mid", chain_window(4))
    a = field.spins.index_of("a")
    values = {x: v for x, v in full.values.items() if all(b == a for _, b in x.items)}
    return field, window, CorrelationTable(full.window, values, full.partition_value)


def wide_window_table():
    """`chain_q3_mid` over 0:3, checked over the wider window -1:5."""
    field, _, table = model_table("chain_q3_mid", chain_window(4))
    return field, tuple((i,) for i in range(-1, 6)), table


# recorded before the reader coded tables the way the table does, as in
# ORACLE_GOLDEN, and re-recorded as it was when the tables moved to the
# telescoped pass
READER_GOLDEN = {
    "narrow-star": (
        narrow_star_table,
        15,
        "0.0029679170331795013",
        "x={(1,):0} lhs=0.3325979140973479 rhs=0.3296299970641684",
        "ee91be1f78a2ea50",
    ),
    "wide-window": (
        wide_window_table,
        80,
        "5.551115123125783e-17",
        "x={(0,):0} lhs=0.3337084113841083 rhs=0.33370841138410823",
        "3ffd2cc9aca4e3de",
    ),
}


class TestOracleReaderPaths:
    @pytest.mark.parametrize("name", READER_GOLDEN)
    def test_report_and_every_rhs(self, monkeypatch, name):
        make, *golden = READER_GOLDEN[name]
        field, window, table = make()
        seen = []
        rhs = exact.correlation_rhs

        def record(*args):
            seen.append(rhs(*args))
            return seen[-1]

        monkeypatch.setattr(exact, "correlation_rhs", record)
        report = verify_correlation_equation(field, window, table)
        digest = hashlib.sha256(" ".join(map(repr, seen)).encode()).hexdigest()
        got = (report.instances, repr(report.max_residual), report.witness)
        assert [*got, digest[:16]] == golden

    def test_value_outside_the_window_or_star_is_zero(self):
        _, _, table = narrow_star_table()
        assert table.value(config(((1,), 0))) == 0.3325979140973479
        assert table.value(config(((1,), 2))) == 0.0  # spin b is not in star
        assert table.value(config(((4,), 0))) == 0.0  # site 4 is not a table site
        _, _, sparse = sparse_table()
        beyond = config(((3,), 0))  # an entry, but outside the table's window
        assert sparse.values[beyond] != 0.0
        assert sparse.value(beyond) == 0.0


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

    def test_round_trip_drops_entries_beyond_the_window(self, tmp_path):
        # value() reads an entry beyond the window as 0; read_table refuses a
        # row outside the window header, so the writer leaves such entries out
        field, window, table = sparse_table()
        path = tmp_path / "sparse.csv"
        write_table(str(path), table, field.spins)
        back = read_table(str(path), field.spins)
        assert back.window == table.window
        for x in enumerate_configs(window, field.spins):
            assert back.value(x) == table.value(x), x

    @pytest.mark.parametrize(
        "text, match",
        [("# window = 0\nnot-the-header\n", "header row")]
        + [(text, f"line {line}") for text, line in MALFORMED_TABLES.values()],
        ids=["header-row", *MALFORMED_TABLES],
    )
    def test_rejects_malformed_body(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError, match=match):
            read_table(str(path), SPINS2)

    def test_probe_lines_read_as_table_rows(self, tmp_path):
        # a probe line is a table row without its value: one parser reads both
        rng = random.Random(5)
        field = random_pair_field(rng, 1, SPINS3, 1, max_coupling=0.2)
        path = tmp_path / "table.csv"
        write_table(str(path), rho_exact(field, chain_window(3)), SPINS3)
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = lines[lines.index("support,spins,value") + 1 :]
        probes = tmp_path / "probes.txt"
        probes.write_text("".join(r.rpartition(",")[0] + "\n" for r in rows))
        got = read_probes(str(probes), SPINS3)
        assert got == list(read_table(str(path), SPINS3).values)
        assert len(got) == 27 and got[0] == EMPTY_CONFIG
