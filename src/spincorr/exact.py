"""Exact finite-volume quantities by full enumeration.

Everything here is exact on purpose: partition functions, Gibbs tables,
and correlation functions sum every configuration of the window, and
serve as ground truth for the solver.  Each sum builds one transition
table of single-site energies, and one pass reads it, `_telescoped_weights`:
it places the sites in reverse window order and extends every partial sum
of the placed sites by each site's energy in telescoping order.  Full
weight tables (`rho_exact`, `gibbs_distribution`) keep every site, and
`rho_exact` folds them into numerators with `_fold_numerators`, site by
site in slices per block of the site's axis or strided slices per offset,
whichever are fewer.  Partition functions sum each site out, in the log
domain, once no unplaced site's ball holds it, so their state grows with
the window's frontier, not its volume; `rho_probe` pins no site: a
probe's numerator is a partition function with the probe moved into the
boundary.  The walk `_block_weights`, `rho_exact`'s default self-check,
streams a Z from another placing path: reflected Gray-code order, each
step one single-site transition, in blocks of q**b positions aligned to
multiples of q**b (the largest power within DEFAULT_BLOCK), each from the
telescoped energy of its first configuration.  Both engines assume a
volume-consistent field, whose energy does not depend on the order its
sites are placed in; only that check refuses one that is not, when the
walk's Z parts from the pass's.

A `CorrelationTable` holds its values by integer code.  The
correlation-equation checker re-implements the equation it tests from
its own loops (no code shared with the solver module).  It reads the
table by code through `_OracleReader`, built once per call: the table's
code dict in the table's own coding, and each (site, spin)'s kernel
terms listed once, so that checking an entry builds no `Configuration`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Callable, Iterable, Mapping, Sequence

from . import checks
from .errors import BudgetExceededError, DomainError, SpincorrError
from .fields import OnePointField, delta_volume
from .lattice import (
    DEFAULT_ENUM_BUDGET,
    Configuration,
    EMPTY_CONFIG,
    SpinSpace,
    concat,
    enumerate_configs,
    validate_site,
)

MAX_SAFE_ENERGY = 700.0
TRANSITION_TABLE_CAP = 1 << 16
DEFAULT_BLOCK = 2048
SELF_CHECK_TOL = 1e-12
_STATE_BUDGET = 1 << 20


def map_blocks(fn: Callable, ranges: Sequence[tuple], threads: int = 1) -> list:
    """``fn(start, stop)`` for each block in order.  ``threads`` is ignored;
    the benchmark's counter calls this with three arguments."""
    return [fn(start, stop) for start, stop in ranges]


def _check_budget(required: int, what: str, unit: str, budget: int = DEFAULT_ENUM_BUDGET) -> None:
    if required > budget:
        raise BudgetExceededError(f"{what} needs {required} {unit}, budget is {budget}")


def _full_table(
    field: OnePointField, window: frozenset, boundary: Configuration, what: str, route: str = ""
) -> _TransitionTable:
    """The transition table of a full weight table, within the caps every
    such table shares: q**n configurations and (q + n_x)**n steps."""
    q, n = field.spins.size, len(window)
    _check_budget(q**n, what, "configurations")
    _check_budget((q + field.spins.n_x) ** n, route + what, "enumeration steps")
    return _TransitionTable(field, window, boundary)


def _oracle_exp(exponent: float, what: str) -> float:
    """`_exp_all` of one exponent, in the oracle's loops: no list is built."""
    return math.exp(exponent) if exponent <= MAX_SAFE_ENERGY else _exp_all([exponent], what)[0]


def _exp_all(deltas: list, what: str = "volume energy") -> list:
    """exp of every exponent, one that underflows giving 0; refuses them
    all, naming the largest, if any lies above the safe exponent range."""
    if max(deltas) > MAX_SAFE_ENERGY:
        raise DomainError(
            f"{what} {max(deltas)!r} exceeds the safe exponent range "
            f"(+/-{MAX_SAFE_ENERGY}); rescale the couplings"
        )
    return list(map(math.exp, deltas))


def _weight_sum(weights: Iterable[float]) -> float:
    """fsum of Boltzmann weights; a sum beyond the float range is refused."""
    try:
        return math.fsum(weights)
    except OverflowError:
        raise DomainError(
            "the window's weight sum overflows the float range; rescale the couplings"
        ) from None


class _TransitionTable:
    """The one-point transition energies of a window, evaluated once each,
    and the walk set-up that every walk of the window shares.

    A swap energy at a window site depends only on the old and new spins
    and the spins on the site's ball (`balls`, in `field.ball_offsets()`
    order), whose code is the sum of spin * q**k; a site outside the
    window and the boundary counts as vacuum.  Keys pack (ball code, old,
    new) as (code * q + old) * q + new; a homogeneous field shares one dict
    between all sites.  A miss evaluates the field on the ball's non-vacuum
    spins, exact under the `ball_offsets()` contract, and is stored while
    the table holds fewer than TRANSITION_TABLE_CAP entries.

    Walkers and the pass address window sites by their position k in `order`:
    `neighbours[k]` lists (j, q**i) for each window site j whose ball holds
    site k at ball index i, `boundary_codes[k]` is the ball code of site k
    with the whole window vacuum, and `memo_list[k]` is its memo.
    """

    def __init__(
        self, field: OnePointField, window: frozenset, boundary: Configuration
    ):
        for s, _ in boundary.items:
            if s in window:
                raise DomainError(f"boundary overlaps the window at {s!r}")
        self.field = field
        self.boundary = boundary
        self.order = sorted(window)
        index = {t: k for k, t in enumerate(self.order)}
        q = self.base = field.spins.size
        self.vacuum = field.spins.vacuum_index
        offsets = field.ball_offsets()
        self.balls = {
            t: tuple(tuple(a + o for a, o in zip(t, off)) for off in offsets)
            for t in self.order
        }
        shared: dict = {}
        self.memo_list = [shared if field.homogeneous else {} for _ in self.order]
        self.size = 0
        self.neighbours: list = [[] for _ in self.order]
        for j, t in enumerate(self.order):
            for i, s in enumerate(self.balls[t]):
                k = index.get(s)
                if k is not None:
                    self.neighbours[k].append((j, q**i))
        env = dict(boundary.items)
        self.boundary_codes = [self.code(t, env) for t in self.order]
        # the largest aligned block of q**b walk positions within DEFAULT_BLOCK
        self.block_digits = 0
        while q ** (self.block_digits + 1) <= DEFAULT_BLOCK:
            self.block_digits += 1
        self._moves: dict = {}
        self._shared_moves: dict = {}

    def code(self, t: tuple, env: Mapping) -> int:
        """Ball code of `t` under `env` (site -> spin, missing is vacuum)."""
        vac = self.vacuum
        code = 0
        for s in reversed(self.balls[t]):
            code = code * self.base + env.get(s, vac)
        return code

    def energy(self, k: int, code: int, old: int, new: int) -> float:
        """field.eval(t, ball, new, old) for the window site t = order[k]:
        the volume energy gained when its spin moves from `old` to `new`
        inside the ball `code`."""
        memo = self.memo_list[k]
        key = (code * self.base + old) * self.base + new
        value = memo.get(key)
        if value is None:
            t = self.order[k]
            vac = self.vacuum
            ball_spins = {}
            for s in self.balls[t]:
                code, spin = divmod(code, self.base)
                if spin != vac:
                    ball_spins[s] = spin
            value = self.field.eval(t, ball_spins, new, old)
            if self.size < TRANSITION_TABLE_CAP:
                memo[key] = value
                self.size += 1
        return value

    def moves(self, b: int, forward: bool) -> list:
        """The steps of the reflected Gray code on b digits from all 0 to
        its last word (`forward`) or back, as (d, old * q + new, step) with
        d counting digits from the lowest; built once per table, and equal
        steps share one tuple."""
        key = (b, forward)
        moves = self._moves.get(key)
        if moves is None:
            q = self.base
            if forward:
                digits, steps = [0] * b, [1] * b
                moves = []
                pos = _gray_step(digits, steps, q)
                while pos >= 0:
                    step = steps[pos]
                    new = digits[pos]
                    moves.append((b - 1 - pos, (new - step) * q + new, step))
                    pos = _gray_step(digits, steps, q)
            else:
                moves = [
                    (d, (old_new % q) * q + old_new // q, -step)
                    for d, old_new, step in reversed(self.moves(b, True))
                ]
            shared = self._shared_moves
            moves = [shared.setdefault(move, move) for move in moves]
            self._moves[key] = moves
        return moves

    def blocks(self) -> list:
        """The aligned walk blocks over the q**n positions of the window, in
        order: their boundaries depend only on the window, so per-block sums
        combined in block order see the same operands every run."""
        n = len(self.order)
        block = self.base ** min(n, self.block_digits)
        return [(i, i + block) for i in range(0, self.base**n, block)]


def _gray_step(digits: list, steps: list, q: int) -> int:
    """Move the lowest digit that can still move its way by one; the
    digits below it turn round.  Returns the moved position, or -1 after
    the last word."""
    pos = len(digits) - 1
    while pos >= 0:
        new = digits[pos] + steps[pos]
        if 0 <= new < q:
            digits[pos] = new
            return pos
        steps[pos] = -steps[pos]
        pos -= 1
    return -1


class _VolumeWalker:
    """Reflected Gray-code walk over every configuration of a table's window.

    Walk position i holds the i-th word of the reflected q-ary Gray code,
    whose digit k is the spin of window site k (first site most
    significant), so consecutive configurations differ at exactly one site
    by one spin index.  Tracks the full-volume energy Delta_window(current,
    vacuum) with the table's boundary.  `seek` recomputes the energy from
    scratch (telescoping); `advance` adds one table entry and updates the
    ball codes (`codes`, by window position) of the sites whose balls hold
    the moved one.  `walk` gives the energies of a whole aligned block of
    q**b positions: inside it only the lowest b digits move, through the
    table's cached b-digit move list, in a local loop that makes no method
    call per step.  Production reads only `walk`, to stream Z; `seek` and
    `advance` are its step-by-step reference.
    """

    def __init__(self, table: _TransitionTable):
        self.table = table
        self.base = table.base
        self.vacuum = table.vacuum
        self.digits = [0] * len(table.order)
        self.steps = [1] * len(table.order)
        self.delta = 0.0
        self.codes: list = []  # set by seek

    def seek(self, index: int) -> None:
        """Jump to walk position `index`: each Gray digit is the plain
        base-q digit, reflected when the Gray digits above it sum to an odd
        number; a reflected digit walks downwards.

        The energy is recomputed from the vacuum window by placing the
        non-vacuum spins one by one in reverse window order.  These are the
        telescoping terms of delta_volume (window order, earlier sites
        vacuum) less its vacuum-to-vacuum zeros, so the fsum is the same."""
        top = self.base - 1
        digits = self.digits
        for pos in range(len(digits) - 1, -1, -1):
            index, digits[pos] = divmod(index, self.base)
        reflected = False
        for pos, plain in enumerate(digits):
            digit = top - plain if reflected else plain
            digits[pos] = digit
            self.steps[pos] = -1 if reflected else 1
            if digit % 2:
                reflected = not reflected
        table = self.table
        vac = self.vacuum
        codes = list(table.boundary_codes)
        terms = []
        for k in range(len(digits) - 1, -1, -1):
            new = digits[k]
            if new != vac:
                terms.append(table.energy(k, codes[k], vac, new))
                for j, place in table.neighbours[k]:
                    codes[j] += (new - vac) * place
        self.codes = codes
        self.delta = math.fsum(terms)

    # walk() does not call advance(); the benchmark hooks patch this name
    def advance(self) -> bool:
        """Step to the next configuration; False after the last one."""
        pos = _gray_step(self.digits, self.steps, self.base)
        if pos < 0:
            return False
        q = self.base
        step = self.steps[pos]
        new = self.digits[pos]
        table = self.table
        codes = self.codes
        code = codes[pos]
        energy = table.memo_list[pos].get((code * q + new - step) * q + new)
        if energy is None:
            energy = table.energy(pos, code, new - step, new)
        self.delta += energy
        for j, place in table.neighbours[pos]:
            codes[j] += step * place
        return True

    def walk(self, start: int, stop: int) -> list:
        """The energies at positions start .. stop - 1, which must be one
        aligned block of `table.blocks`.  The lowest b digits run the
        table's b-digit move list, forward when they start all 0 and
        backward otherwise.  The walker stays at position `start`."""
        table = self.table
        q = self.base
        n = len(self.digits)
        b = min(n, table.block_digits)
        if stop - start != q**b or start % q**b:
            raise ValueError(f"[{start}, {stop}) is not an aligned block of {q}**{b}")
        self.seek(start)
        moves = table.moves(b, not any(self.digits[n - b :]))
        low = list(range(n - 1, n - 1 - b, -1))
        memos = table.memo_list
        neighbours = table.neighbours
        ball_codes = self.codes[:]
        qq = q * q
        delta = self.delta
        deltas = [delta]
        append = deltas.append
        for d, old_new, step in moves:
            k = low[d]
            code = ball_codes[k]
            energy = memos[k].get(code * qq + old_new)
            if energy is None:
                energy = table.energy(k, code, *divmod(old_new, q))
            delta += energy
            append(delta)
            for j, place in neighbours[k]:
                ball_codes[j] += step * place
        return deltas


def _block_weights(transitions: _TransitionTable) -> list:
    """`rho_exact`'s self-check, the one enumeration walk: every window
    configuration, block by block through `map_blocks`.  Returns the fsum of
    each block's weights exp{Delta_window(x, vacuum)} in block order,
    holding one block's weights at a time."""

    def job(start: int, stop: int) -> float:
        return _weight_sum(_exp_all(_VolumeWalker(transitions).walk(start, stop)))

    return map_blocks(job, transitions.blocks())


def partition_function(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
) -> float:
    """Sum of exp{Delta_window(x, vacuum)} over all configurations x, from
    the pass that sums each site out; a Z beyond the float range is refused.
    Assumes a volume-consistent field (see the module docstring)."""
    transitions = _TransitionTable(field, frozenset(window), boundary)
    return _weight_sum(map(math.exp, _telescoped_weights(transitions, True)))


@dataclass(frozen=True)
class GibbsTable:
    """Full probability table on a window.  Keys are the non-vacuum parts
    of full configurations; probability() treats missing sites as vacuum."""

    window: frozenset
    probabilities: Mapping[Configuration, float]
    partition_value: float

    def probability(self, config: Configuration) -> float:
        if not config.support <= self.window:
            raise DomainError("configuration lies outside the table window")
        return self.probabilities[config]


def gibbs_distribution(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
) -> GibbsTable:
    """Normalized Boltzmann weights exp{Delta_window(x, vacuum)} from the
    telescoped pass; assumes a volume-consistent field (module docstring)."""
    window = frozenset(window)
    transitions = _full_table(field, window, boundary, "Gibbs table")
    weights = _telescoped_weights(transitions)
    z = _weight_sum(weights)
    configs = enumerate_configs(window, field.spins)
    probabilities = {x: w / z for x, w in zip(configs, weights)}
    return GibbsTable(window, probabilities, z)


class CorrelationTable:
    """Correlation values on a window, including the empty configuration
    (value 1).  Lookups outside the window return 0.

    The constructor takes a Configuration -> value mapping.  `codes` holds
    the values by the code of `OperatorContext`: over `sites`, the sorted
    window and any entry's site beyond it, the site of rank i has place
    (1 + len(star))**i and digit 0 for vacuum or 1 .. n_x for the spins
    `star` (by default, those the entries hold).  `entries` lists (code,
    items) in (size, items) order, the order of a written table; `values`
    decodes on demand."""

    def __init__(self, window, values, partition_value=None, headers=None, star=None):
        self.window = frozenset(window)
        self.partition_value = partition_value
        self.headers = {} if headers is None else headers
        self.star = tuple(sorted({b for x in values for _, b in x.items}) if star is None else star)
        self.sites = tuple(sorted(self.window.union(*(x.support for x in values))))
        self._place = {s: (len(self.star) + 1) ** i for i, s in enumerate(self.sites)}
        self._digit = {b: d for d, b in enumerate(self.star, 1)}
        rows = sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0].items))
        self.entries = [(self._encode(x.items), x.items) for x, _ in rows]
        self.codes = {code: v for (code, _), (_, v) in zip(self.entries, rows)}

    @classmethod
    def from_codes(cls, window, star, codes: dict, partition_value, k_max: int):
        """The table whose `codes` (kept) hold each entry of <= k_max sites."""
        table = cls(window, {}, partition_value, star=star)
        table.codes = codes
        table.entries = _ordered_entries(table.sites, table.star, k_max)
        return table

    def _encode(self, items: tuple) -> int:
        """The code of a configuration's items (DomainError outside `star`)."""
        try:
            return sum([self._digit[b] * self._place[s] for s, b in items])
        except KeyError:
            s, b = next((s, b) for s, b in items if b not in self._digit)
            msg = f"spin index {b!r} at site {s!r} is not one of the coded spins {self.star!r}"
            raise DomainError(msg) from None

    def value(self, config: Configuration) -> float:
        if config.support <= self.window and all(b in self._digit for _, b in config.items):
            return self.codes.get(self._encode(config.items), 0.0)
        return 0.0

    def readable_entries(self) -> list:
        """The `entries` that `value` reads: those inside the window (the
        list itself when no entry has a site beyond it)."""
        if len(self.sites) == len(self.window):
            return self.entries
        inside = self.window.issuperset
        return [(code, items) for code, items in self.entries if inside(s for s, _ in items)]

    @cached_property
    def values(self) -> dict:
        """Configuration -> value of every entry, in (size, items) order."""
        return {Configuration._make(items): self.codes[code] for code, items in self.entries}


def _ordered_entries(sites: Sequence[tuple], star: Sequence[int], k_max: int) -> list:
    """(code, items) of each configuration of at most k_max of the sites,
    in (size, items) order: from the last site back, the k-site ones from
    rank r up are those starting at r, by spin and rest, then those above r."""
    tails = [[(0, ())]] + [[] for _ in range(k_max)]
    for r in range(len(sites) - 1, -1, -1):
        pins = [(d * (len(star) + 1) ** r, ((sites[r], b),)) for d, b in enumerate(star, 1)]
        for k in range(min(k_max, len(sites) - r), 0, -1):
            head = [(c + code, pin + items) for c, pin in pins for code, items in tails[k - 1]]
            tails[k] = head + tails[k]
    return [entry for tail in tails for entry in tail]


def _fold_numerators(transitions: _TransitionTable, weights: list) -> list:
    """The numerators of the window's configurations, folded into `weights`
    in place and returned in its `code` layout: each site's vacuum slice
    becomes the sum over that site's axis (site left free), and the slices
    at the non-vacuum spins stay (site pinned).  So entry c is the sum of
    the weights of the configurations that extend the non-vacuum digits
    of c, and the all-vacuum entry is the sum of every weight.  Sites fold
    in window order, each in one slice per spin for each block of its axis
    or, when fewer, for each offset o < stride (the o-th entry of every
    block, one strided slice): the same fsum operands either way."""
    n = len(transitions.order)
    q, vac = transitions.base, transitions.vacuum
    size = len(weights)
    for pos in range(n):
        stride = q ** (n - 1 - pos)
        blocks = size // (q * stride)
        if blocks <= stride:
            starts, step, extent = range(0, size, q * stride), 1, stride
        else:
            starts, step, extent = range(stride), q * stride, size
        for lo in starts:
            axis = [weights[a : a + extent : step] for a in range(lo, lo + q * stride, stride)]
            at = lo + vac * stride
            weights[at : at + extent : step] = map(math.fsum, zip(*axis))
    return weights


def _telescoped_weights(transitions: _TransitionTable, summed: bool = False) -> list:
    """exp{Delta_window(x, vacuum)} of every window configuration x, by
    `code` (first window site most significant), from one pass per site
    in reverse window order: each term is the table's energy of one site
    leaving the vacuum with the later sites placed and the earlier ones
    vacuum, as `seek` telescopes.  Site k's pass takes each distinct ball
    code's energy once per spin and lays the q extended partial-sum lists
    end to end (the vacuum's is the previous list).  No walker runs, so no
    weight depends on a walk's path.  `summed` log-sum-exps each placed
    site out once no unplaced site's ball holds it and returns [log Z]; the
    held sites' state count depends only on the window, and one above
    _STATE_BUDGET is refused before the first list is built."""
    n = len(transitions.order)
    q, vac = transitions.base, transitions.vacuum
    neighbours = transitions.neighbours
    # site j is held from its own step down to step leave[j] (to the last
    # step unless summed), so #(leave <= k) - k sites are held at step k
    leave = [min([j] + [i for i, _ in neighbours[j]]) if summed else -1 for j in range(n)]
    if summed:
        held = sorted(leave)
        peak = max([bisect_right(held, k) - k for k in range(n)], default=0)
        _check_budget(q**peak, "partition function", "states", _STATE_BUDGET)
    state: list = []  # the sites the partial sums run over, most significant first
    deltas = [0.0]
    for k in range(n - 1, -1, -1):
        balls = [transitions.boundary_codes[k]]
        for j in state:
            place = dict(neighbours[j]).get(k, 0)
            balls = [c + (b - vac) * place for c in balls for b in range(q)]
        extended = []
        for b in range(q):
            if b == vac:
                extended += deltas
                continue
            energy = {c: transitions.energy(k, c, vac, b) for c in set(balls)}
            extended += [d + energy[c] for d, c in zip(deltas, balls)]
        deltas = extended
        state.insert(0, k)
        for j in [j for j in state if leave[j] == k]:
            stride = q ** (len(state) - 1 - state.index(j))
            state.remove(j)
            starts = (i for i in range(len(deltas)) if i // stride % q == 0)
            axes = (deltas[i : i + q * stride : stride] for i in starts)
            deltas = [
                t + math.log(math.fsum(math.exp(d - t) for d in a)) for a in axes for t in [max(a)]
            ]
    if summed and not math.isfinite(deltas[0]):
        raise DomainError(f"the window's log weight sum is {deltas[0]!r}; rescale the couplings")
    return deltas if summed else _exp_all(deltas)


def rho_exact(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
    method: str = "both",
) -> CorrelationTable:
    """Full correlation table over the window: the telescoped pass's
    weights folded into numerators (`_fold_numerators`) over their Z.
    Method "both" (the default) first streams Z through the walk, which
    shares only the transition table with the pass, and insists the two
    agree within SELF_CHECK_TOL; "extension" skips the walk."""
    window = frozenset(window)
    spins = field.spins
    if method not in ("extension", "both"):
        raise DomainError(f"unknown method {method!r}")
    route = "two-route " if method == "both" else ""
    transitions = _full_table(field, window, boundary, "correlation table", route)
    # the walk runs first, so that its blocks are gone before the pass's list
    walked = _weight_sum(_block_weights(transitions)) if method == "both" else None
    weights = _telescoped_weights(transitions)
    z = _weight_sum(weights)
    gap = 0.0 if walked is None else abs(walked / z - 1.0)
    if gap > SELF_CHECK_TOL:
        why = f"walked vs telescoped Z differ by {gap!r} relative (tolerance {SELF_CHECK_TOL!r})"
        raise DomainError(f"correlation routes disagree: {why}")
    numerators = _fold_numerators(transitions, weights)
    # the table code at each pass code, whose digit k is the spin index of
    # window site k, first site most significant
    digit = {b: d for d, b in enumerate(spins.star_indices, 1)}
    codes = [0]
    for k in range(len(window)):
        pins = [digit.get(b, 0) * spins.size**k for b in spins.indices]
        codes = [c + pin for c in codes for pin in pins]
    values = dict(zip(codes, [num / z for num in numerators]))
    values[0] = 1.0
    return CorrelationTable.from_codes(window, spins.star_indices, values, z, len(window))


def rho_probe(
    field: OnePointField,
    window: Iterable[tuple],
    probes: Sequence[Configuration],
    boundary: Configuration = EMPTY_CONFIG,
) -> dict:
    """Correlation values for selected configurations only, without
    materializing a table.

    For x equal to the probe p on its support, the split identity of
    checks.check_field_consistency gives Delta_W(x | B) = Delta_p(p | B) +
    Delta_{W - supp p}(x - p | B + p), so each value is exp Delta_p(p | B)
    times Z(W - supp p, B + p) over Z(W, B).  It is read from log Z values
    of the summed pass, so no exponent range limits a probe on a
    volume-consistent field, which the value assumes (module docstring)."""
    window = frozenset(window)
    (log_z,) = _telescoped_weights(_TransitionTable(field, window, boundary), True)
    out: dict = {}
    for probe in probes:
        support = probe.support
        if not support <= window:
            raise DomainError(f"probe {probe!r} is not supported inside the window")
        if not probe:
            out[probe] = 1.0
            continue
        delta = delta_volume(field, support, boundary, probe, EMPTY_CONFIG)
        rest = _TransitionTable(field, window - support, concat(boundary, probe))
        (log_rest,) = _telescoped_weights(rest, True)
        out[probe] = _exp_all([delta + log_rest - log_z], "probe exponent")[0]
    return out


class _OracleReader:
    """The table and the kernel terms of one oracle call, read by integer
    code, so that no per-entry step builds a `Configuration`.

    The reader codes a configuration as the table does: the table's
    `sites`, then the window's sites the table lacks in sorted order; the
    site of rank i has place q**i and mask bit 1 << i, and digits 1 .. n_x
    for the field's non-vacuum spins.  `item_code` maps each (site, spin)
    to its code term and bit.  `values` is the table's `codes` limited to
    its `readable_entries` (an absent code reads 0, as in
    `CorrelationTable.value`); a table whose `star` is not the field's is
    re-coded once."""

    def __init__(
        self, field: OnePointField, window: frozenset, table: CorrelationTable
    ):
        q = field.spins.size
        self.field = field
        self.window = window
        self.star = field.spins.star_indices
        if table.star != self.star:
            table = CorrelationTable(table.window, table.values, star=self.star)
        sites = table.sites + tuple(sorted(window.difference(table.sites)))
        self.item_code: dict = {}
        self.at: dict = {}  # site -> the codes of its non-vacuum spins, star order
        for i, s in enumerate(sites):
            self.at[s] = tuple(d * q**i for d in range(1, q))
            for b, c in zip(self.star, self.at[s]):
                self.item_code[s, b] = (c, 1 << i)
        entries = table.readable_entries()
        self.values = table.codes
        if entries is not table.entries:
            self.values = {code: table.codes[code] for code, _ in entries}
        self._terms: dict = {}

    def encode(self, items: Iterable[tuple]) -> tuple[int, int]:
        """(code, site mask) of a configuration's items."""
        code = mask = 0
        for item in items:
            c, m = self.item_code[item]
            code += c
            mask |= m
        return code, mask

    def kernel_terms(self, t: tuple, x_t: int) -> list:
        """(site mask, code offset, kernel) of every nonzero term of the
        J-sum for x_t at t, built on first use.  J runs over the nonempty
        subsets of the sites of t's ball inside the window, t left out, in
        `combinations` order, each with its non-vacuum spins in `product`
        order; the kernel is the product, in J's site order, of the
        factors exp(eval(s, {t: x_t}, b) - eval(s, {}, b)) - 1, each
        evaluated once.  Every factor of the ball is evaluated here, so
        on a table that lacks the singletons at t, a factor beyond the
        safe exponent range is refused even when each entry's rest covers
        its site."""
        terms = self._terms.get((t, x_t))
        if terms is not None:
            return terms
        field, star = self.field, self.star
        vac = field.spins.vacuum_index
        in_ball = (tuple(a + o for a, o in zip(t, off)) for off in field.ball_offsets())
        sites = [s for s in in_ball if s in self.window]
        factor = {}
        for s in sites:
            for b in star:
                shifted = field.eval(s, {t: x_t}, b, vac)
                free = field.eval(s, {}, b, vac)
                factor[s, b] = _oracle_exp(shifted - free, "kernel exponent") - 1.0
        terms = []
        for k in range(1, len(sites) + 1):
            for subset in combinations(sites, k):
                for assignment in product(star, repeat=k):
                    kernel = 1.0
                    for item in zip(subset, assignment):
                        kernel *= factor[item]
                    if kernel != 0.0:
                        offset, mask = self.encode(zip(subset, assignment))
                        terms.append((mask, offset, kernel))
        self._terms[t, x_t] = terms
        return terms


def correlation_rhs(
    field: OnePointField,
    window: frozenset,
    table: CorrelationTable,
    x: Configuration,
    reader: _OracleReader | None = None,
) -> float:
    """Right-hand side of the correlation equation at the nonempty
    configuration x, reading correlation values from the table by code.
    `reader` is the call's `_OracleReader` for (field, window, table);
    without one, this call builds its own."""
    if not x:
        raise DomainError("cannot split the empty configuration")
    if reader is None:
        reader = _OracleReader(field, frozenset(window), table)
    vac = field.spins.vacuum_index
    star = reader.star
    (t, x_t), rest = x.items[0], x.items[1:]
    rest_code, rest_mask = reader.encode(rest)
    boundary_map = dict(rest)
    weights = {
        alpha: _oracle_exp(field.eval(t, boundary_map, alpha, vac), "weight exponent")
        for alpha in star
    }
    denom = 1.0 + math.fsum(weights[alpha] for alpha in star)
    gamma = weights[x_t] / denom

    # g(alpha), over nonempty J inside the window and disjoint from rest and
    # non-vacuum spins y on J: the kernel times rho(rest + y) minus the sum
    # over non-vacuum beta of rho(rest + y + beta at t).  Kernel factors
    # vanish off the field's ball_offsets(), so J ranges over them exactly.
    # The terms whose J meets rest are skipped and the others keep their
    # order, so each fsum is that of the J-sum over the ball outside rest.
    get = reader.values.get
    at_t = reader.at[t]
    g = {}
    for alpha in star:
        terms = []
        for mask, offset, kernel in reader.kernel_terms(t, alpha):
            if mask & rest_mask:
                continue
            base = rest_code + offset
            inner = get(base, 0.0)
            for beta in at_t:
                inner -= get(base + beta, 0.0)
            terms.append(kernel * inner)
        g[alpha] = math.fsum(terms)
    # alpha = vacuum contributes weight 1 and a vanishing kernel sum.
    g_x = g[x_t]
    correction = [g_x]
    for alpha in star:
        correction.append(weights[alpha] * (g_x - g[alpha]))
    return gamma * (get(rest_code, 0.0) + math.fsum(correction))


def verify_correlation_equation(
    field: OnePointField,
    window: Iterable[tuple],
    table: CorrelationTable,
    tolerance: float = 1e-9,
) -> checks.CheckReport:
    """Check every nonempty configuration of the table against the
    correlation equation, after confirming the field satisfies the
    boundary-replacement identity the equation depends on.

    The external boundary is vacuum, matching the table convention.  One
    `_OracleReader` serves every entry of the call.
    """
    window = frozenset(window)
    checks.require_environment_condition(field, min(tolerance, 1e-10))

    reader = _OracleReader(field, window, table)
    worst = 0.0
    witness = ""
    count = 0

    for code, items in table.entries:  # (size, items) order, undecoded
        if not items:
            continue
        x, lhs = Configuration._make(items), table.codes[code]
        rhs = correlation_rhs(field, window, table, x, reader)
        residual = abs(lhs - rhs)
        if math.isnan(residual):  # must not read as a pass
            residual = math.inf
        count += 1
        if residual > worst:
            worst = residual
            witness = f"x={x!r} lhs={lhs!r} rhs={rhs!r}"
    return checks.CheckReport(
        "correlation-equation", count, worst, witness, tolerance, worst
    )


def _site_text(site: tuple) -> str:
    return " ".join(str(c) for c in site)


def _parse_site(text: str) -> tuple:
    return tuple(int(c) for c in text.split())


def write_table(
    path: str,
    table: CorrelationTable,
    spins: SpinSpace,
    headers: Mapping[str, str] | None = None,
) -> None:
    """Emit a correlation table as delimiter-separated text.

    Row format: support sites (';'-separated, coordinates space-separated),
    spin labels (';'-separated), value.  The empty configuration is the
    row with empty support and spins fields.  Entries beyond the window,
    which `value` reads as 0, are left out.
    """
    lines = []
    texts = {s: _site_text(s) for s in table.sites}
    merged = dict(headers or {})
    merged["window"] = ";".join(texts[s] for s in sorted(table.window))
    merged["spins"] = " ".join(spins.symbols)
    merged["vacuum"] = spins.symbols[spins.vacuum_index]
    if table.partition_value is not None:
        merged["partition_value"] = repr(table.partition_value)
    for key, value in merged.items():
        lines.append(f"# {key} = {value}")
    lines.append("support,spins,value")
    symbols, codes = spins.symbols, table.codes
    for code, items in table.readable_entries():
        sites = ";".join([texts[s] for s, _ in items])
        labels = ";".join([symbols[i] for _, i in items])
        lines.append(f"{sites},{labels},{codes[code]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"value {value!r} is not finite")
    return value


def _parse_row(sites_text: str, labels_text: str, spins: SpinSpace) -> Configuration:
    """The configuration of a row's `sites,labels` fields, the one parser of
    table rows and probe lines.  Both fields empty is the empty configuration."""
    if not sites_text:
        if labels_text:
            raise ValueError("spin labels without sites")
        return EMPTY_CONFIG
    sites = map(_parse_site, sites_text.split(";"))
    labels = [spins.index_of(b) for b in labels_text.split(";")]
    if spins.vacuum_index in labels:
        raise ValueError("a spin label names the vacuum")
    return Configuration(zip(sites, labels, strict=True))


def _unreadable(path: str, number: int, line: str, exc: Exception) -> DomainError:
    return DomainError(f"{path} line {number}: cannot read {line!r} ({exc})")


def read_table(path: str, spins: SpinSpace) -> CorrelationTable:
    """Read a table in the `write_table` format.  A row (`_parse_row`) or a
    `window` or `partition_value` header that does not parse, a non-finite
    value, an empty configuration not valued 1, a repeated configuration
    or header key, or a row with a site outside a `window` header is a
    DomainError naming its line."""
    headers: dict = {}
    values: dict = {}
    lines: dict = {}  # configuration -> (line number, line)
    window = partition_value = None
    body_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            try:
                if line.startswith("#"):
                    key, sep, value = line[1:].strip().partition("=")
                    key, value = key.strip(), value.strip()
                    if not sep:
                        continue
                    if key in headers:
                        raise ValueError(f"an earlier line has the {key!r} header")
                    headers[key] = value
                    if key == "window":
                        sites = (validate_site(_parse_site(t)) for t in value.split(";"))
                        window = value and frozenset(sites)
                    elif key == "partition_value":
                        partition_value = _finite(value)
                elif line and body_seen:
                    sites_text, labels_text, value_text = line.split(",")
                    config = _parse_row(sites_text, labels_text, spins)
                    if config in values:
                        raise ValueError("an earlier row has the same configuration")
                    values[config] = _finite(value_text)
                    lines[config] = number, line
                    if not config and values[config] != 1.0:
                        raise ValueError("the empty configuration's value must be 1")
                elif line:
                    if line != "support,spins,value":
                        raise DomainError(f"unexpected table header row: {line!r}")
                    body_seen = True
            except (ValueError, SpincorrError) as exc:
                raise _unreadable(path, number, line, exc) from None
    for config, (number, line) in lines.items():
        if window and not config.support <= window:
            exc = ValueError("a site lies outside the window header")
            raise _unreadable(path, number, line, exc)
    if not window:
        window = frozenset().union(*(c.support for c in values))
    return CorrelationTable(window, values, partition_value, headers, spins.star_indices)


def read_probes(path: str, spins: SpinSpace) -> list:
    """Read a probe file: each stripped line that is not blank or a `#`
    comment is a table row without its value (`_parse_row`).  A line that
    does not parse is a DomainError naming its line."""
    probes = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    sites_text, labels_text = line.split(",")
                    probes.append(_parse_row(sites_text, labels_text, spins))
                except (ValueError, SpincorrError) as exc:
                    raise _unreadable(path, number, line, exc) from None
    return probes
