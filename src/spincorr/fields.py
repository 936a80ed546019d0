"""Transition energy fields built from interaction data.

A one-point field evaluates the energy gain of swapping the spin at a single
site between two values, given a fixed finite-support boundary.  The volume
field is assembled from one-point values by telescoping over any enumeration
of the volume; consistency of that assembly is what the check suites in
:mod:`spincorr.checks` certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ModelDefinitionError
from .lattice import (
    Configuration,
    SpinSpace,
    Site,
    ball,
    validate_site,
)

NORM_SCAN_BUDGET = 2**18


@dataclass(frozen=True)
class PairPotential:
    """Translation-invariant pair couplings keyed by site offset.

    ``couplings`` maps ``(offset, a, b)`` to the energy of spin ``a`` at a
    site ``t`` together with spin ``b`` at ``t + offset``; the mirrored key
    ``(-offset, b, a)`` always carries the same value.  With ``vacuum`` set,
    any pair involving the vacuum spin has zero energy.
    """

    dimension: int
    radius: int
    couplings: Mapping[tuple[Site, int, int], float]
    vacuum: bool = True

    @staticmethod
    def create(
        dimension: int,
        radius: int,
        entries: Mapping[tuple[Site, int, int], float],
        spins: SpinSpace,
        vacuum: bool = True,
    ) -> "PairPotential":
        if dimension < 1:
            raise ModelDefinitionError("dimension must be >= 1")
        if radius < 0:
            raise ModelDefinitionError("interaction radius must be >= 0")
        table: dict[tuple[Site, int, int], float] = {}
        for (offset, a, b), value in entries.items():
            validate_site(offset, dimension)
            if all(c == 0 for c in offset):
                raise ModelDefinitionError("pair coupling needs a nonzero offset")
            if max(abs(c) for c in offset) > radius:
                raise ModelDefinitionError(
                    f"offset {offset!r} exceeds the declared radius {radius}"
                )
            for spin in (a, b):
                if not 0 <= spin < spins.size:
                    raise ModelDefinitionError(f"spin index {spin} out of range")
            if vacuum and spins.vacuum_index in (a, b) and value != 0.0:
                raise ModelDefinitionError(
                    "vacuum potential cannot couple the vacuum spin"
                )
            if not math.isfinite(value):
                raise ModelDefinitionError("couplings must be finite")
            mirror = (tuple(-c for c in offset), b, a)
            for key, val in (((offset, a, b), value), (mirror, value)):
                old = table.get(key)
                if old is not None and old != val:
                    raise ModelDefinitionError(
                        f"inconsistent symmetric values for {key!r}: {old} vs {val}"
                    )
                table[key] = val
        return PairPotential(dimension, radius, table, vacuum)

    def phi(self, offset: Site, a: int, b: int) -> float:
        return self.couplings.get((offset, a, b), 0.0)


def pair_potential_norm(potential: PairPotential, spins: SpinSpace) -> float:
    """Vacuum-potential norm: worst single-site total interaction strength."""
    if not potential.vacuum:
        raise ModelDefinitionError("the vacuum-potential norm needs a vacuum potential")
    offsets = sorted({off for (off, _, _) in potential.couplings})
    best = 0.0
    for x in spins.star_indices:
        total = math.fsum(
            max(abs(potential.phi(off, x, y)) for y in spins.star_indices)
            for off in offsets
        )
        best = max(best, total)
    return best


class OnePointField:
    """Evaluator contract for one-point transition energies.

    Subclasses provide :meth:`eval`; boundary sites outside
    :meth:`ball_offsets`, which the declared ``radius`` bounds, must not
    affect the result.  The contraction constants and the solver's rows are
    evaluated at the origin, so they refuse a field that is not translation
    invariant (``homogeneous``), such as :class:`PerturbedField`.
    """

    spins: SpinSpace
    dimension: int
    radius: int
    homogeneous: bool = True

    def eval(self, t: Site, boundary: Mapping[Site, int], x: int, u: int) -> float:
        """Energy gain of the swap x -> u at site t against the boundary."""
        raise NotImplementedError

    def origin(self) -> Site:
        return (0,) * self.dimension

    def ball_offsets(self) -> tuple[Site, ...]:
        """Sorted nonzero offsets of the sites whose spin can change eval:
        the ``radius`` ball unless ``__init__`` set ``_ball_offsets``."""
        cached = getattr(self, "_ball_offsets", None)
        if cached is None:
            o = self.origin()
            cached = tuple(sorted(s for s in ball(o, self.radius) if s != o))
            self._ball_offsets = cached
        return cached


class PairField(OnePointField):
    """One-point field induced by a pair potential plus per-spin site terms.

    The swap energy is the potential total of the new spin minus that of the
    old one, summed over the interaction neighborhood, so Gibbs weights built
    from it penalize high-energy configurations.
    """

    def __init__(
        self,
        potential: PairPotential,
        spins: SpinSpace,
        one_body: Sequence[float] | None = None,
    ):
        self.spins = spins
        self.dimension = potential.dimension
        self.radius = potential.radius
        self.homogeneous = True
        self.potential = potential
        if one_body is None:
            one_body = [0.0] * spins.size
        one_body = list(one_body)
        if len(one_body) != spins.size:
            raise ModelDefinitionError("one-body terms need one value per spin")
        if one_body[spins.vacuum_index] != 0.0:
            raise ModelDefinitionError("the vacuum spin must have zero one-body energy")
        if not all(math.isfinite(v) for v in one_body):
            raise ModelDefinitionError("one-body terms must be finite")
        self.one_body = tuple(one_body)
        # Per-offset dense matrices for fast evaluation.
        q = spins.size
        by_offset: dict[Site, list[list[float]]] = {}
        for (off, a, b), value in potential.couplings.items():
            if value == 0.0:
                continue
            mat = by_offset.setdefault(off, [[0.0] * q for _ in range(q)])
            mat[a][b] = value
        self._terms = tuple(sorted(by_offset.items()))
        # only a coupled site changes eval: the neighbourhood is its offsets
        self._ball_offsets = tuple(off for off, _ in self._terms)
        self._vac = spins.vacuum_index

    def eval(self, t: Site, boundary: Mapping[Site, int], x: int, u: int) -> float:
        if x == u:
            return 0.0
        total = self.one_body[u] - self.one_body[x]
        vac = self._vac
        get = boundary.get
        if len(t) == 1:
            t0 = t[0]
            for off, mat in self._terms:
                b = get((t0 + off[0],), vac)
                total += mat[u][b] - mat[x][b]
        else:
            for off, mat in self._terms:
                s = tuple(a + o for a, o in zip(t, off))
                b = get(s, vac)
                total += mat[u][b] - mat[x][b]
        return total

    def norm_bound_exact(self) -> float:
        """Exact one-point norm via the per-offset decomposition.

        For pair interactions the boundary sites contribute independently,
        so the supremum over boundaries is a sum of per-offset extremes.
        """
        spins = self.spins
        best = 0.0
        for x in spins.indices:
            for u in spins.indices:
                if x == u:
                    continue
                base = self.one_body[u] - self.one_body[x]
                hi = base
                lo = base
                for _, mat in self._terms:
                    diffs = [mat[u][b] - mat[x][b] for b in spins.indices]
                    hi += max(diffs)
                    lo += min(diffs)
                best = max(best, abs(hi), abs(lo))
        return best


class ZeroField(PairField):
    """Free field: every swap has zero energy."""

    def __init__(self, spins: SpinSpace, dimension: int = 1):
        potential = PairPotential.create(dimension, 0, {}, spins)
        super().__init__(potential, spins)


class PerturbedField(OnePointField):
    """Wraps a field and bumps one specific swap; breaks antisymmetry.

    Diagnostic evaluator used to confirm that the consistency checks detect
    corruption; the bump applies at one site, one ordered spin pair.
    """

    def __init__(self, base: OnePointField, site: Site, x: int, u: int, amount: float):
        self.base = base
        self.spins = base.spins
        self.dimension = base.dimension
        self.radius = base.radius
        self._ball_offsets = base.ball_offsets()  # the bump reads no boundary
        self.homogeneous = False
        self.site = validate_site(site, base.dimension)
        if not math.isfinite(amount):
            raise ModelDefinitionError("the perturbation amount must be finite")
        self.bump = (x, u, amount)

    def eval(self, t, boundary, x, u):
        value = self.base.eval(t, boundary, x, u)
        bx, bu, amount = self.bump
        if t == self.site and x == bx and u == bu:
            value += amount
        return value


class TripleInteractionField(OnePointField):
    """Pair field plus a genuine three-body term.

    The extra term couples the swapped site to every occupied *pair* in its
    neighborhood, which violates the boundary-replacement identity while
    keeping the one-point cocycle intact.
    """

    def __init__(self, base: PairField, strength: float, mark: int | None = None):
        self.base = base
        self.spins = base.spins
        self.dimension = base.dimension
        self.radius = base.radius
        self.homogeneous = True
        self.strength = strength
        self.mark = base.spins.star_indices[0] if mark is None else mark

    def eval(self, t, boundary, x, u):
        value = self.base.eval(t, boundary, x, u)
        du = 1.0 if u == self.mark else 0.0
        dx = 1.0 if x == self.mark else 0.0
        if du == dx:
            return value
        occupied = 0
        for off in self.ball_offsets():
            s = tuple(a + o for a, o in zip(t, off))
            if boundary.get(s) == self.mark:
                occupied += 1
        pairs = occupied * (occupied - 1) // 2
        return value + self.strength * (du - dx) * pairs


def require_homogeneous(field: OnePointField) -> None:
    """Refuse a field whose values at the origin do not stand for every site."""
    if not field.homogeneous:
        raise ModelDefinitionError(
            "the contraction constants and operator rows need a "
            "translation-invariant field"
        )


def delta_volume(
    field: OnePointField,
    window: Iterable[Site],
    boundary: Configuration,
    x: Configuration,
    u: Configuration,
    enumeration: Sequence[Site] | None = None,
) -> float:
    """Volume swap energy assembled by telescoping over the volume.

    ``x`` and ``u`` are full configurations on the window written sparsely
    (missing sites are vacuum).  Each step swaps one site, with earlier
    sites already in their ``u`` state and later sites still in ``x``.
    The result is independent of the enumeration for consistent fields.
    """
    return math.fsum(volume_steps(field, window, boundary, x, u, enumeration))


def volume_steps(
    field: OnePointField,
    window: Iterable[Site],
    boundary: Configuration,
    x: Configuration,
    u: Configuration,
    enumeration: Sequence[Site] | None = None,
) -> list[float]:
    """The one-point swap energies that :func:`delta_volume` adds up."""
    sites = sorted(window)
    site_set = set(sites)
    if enumeration is None:
        order = sites
    else:
        order = list(enumeration)
        if sorted(order) != sites:
            raise DomainError("enumeration is not a permutation of the window")
    for cfg, name in ((x, "x"), (u, "u")):
        for s, _ in cfg.items:
            if s not in site_set:
                raise DomainError(f"{name} has support outside the window at {s!r}")
    for s, _ in boundary.items:
        if s in site_set:
            raise DomainError(f"boundary overlaps the window at {s!r}")

    vac = field.spins.vacuum_index
    xmap = dict(x.items)
    umap = dict(u.items)
    env = dict(boundary.items)
    for s in order[1:]:
        spin = xmap.get(s)
        if spin is not None:
            env[s] = spin

    steps = []
    last = len(order) - 1
    for i, t in enumerate(order):
        steps.append(field.eval(t, env, xmap.get(t, vac), umap.get(t, vac)))
        uspin = umap.get(t)
        if uspin is not None:
            env[t] = uspin
        elif t in env:
            del env[t]
        if i < last:
            env.pop(order[i + 1], None)
    return steps


# ---------------------------------------------------------------------------
# Norms and contraction constants
# ---------------------------------------------------------------------------


def norm_delta1(field: OnePointField) -> float:
    """Supremum of the one-point swap energy over spins and boundaries.

    A pair field gives it exactly by its per-offset decomposition; any other
    field scans every boundary pattern on the dependence neighborhood, which
    is an error beyond NORM_SCAN_BUDGET patterns.
    """
    require_homogeneous(field)
    if isinstance(field, PairField):
        return field.norm_bound_exact()
    offsets = field.ball_offsets()
    count = field.spins.size ** len(offsets)
    if count > NORM_SCAN_BUDGET:
        raise ModelDefinitionError(
            f"norm scan needs {count} boundary patterns (budget {NORM_SCAN_BUDGET}) "
            "and the field provides no exact bound"
        )
    spins = field.spins
    vac = spins.vacuum_index
    t = field.origin()
    best = 0.0
    for pattern in itertools.product(spins.indices, repeat=len(offsets)):
        boundary = {s: p for s, p in zip(offsets, pattern) if p != vac}
        for xs in spins.indices:
            for us in spins.indices:
                if xs == us:
                    continue
                best = max(best, abs(field.eval(t, boundary, xs, us)))
    return best


@dataclass(frozen=True)
class DecaySums:
    """Per-offset coupling strengths of the swap-vs-free energy difference."""

    total: float  # the worst-case single-spin sum (the constant D)
    per_offset: Mapping[Site, float]

    def sigma_tail(self, r: int) -> float:
        """Strength beyond Chebyshev distance ``r`` from the reference."""
        return math.fsum(
            g
            for off, g in sorted(self.per_offset.items())
            if max(abs(c) for c in off) > r
        )


def decay_sums(field: OnePointField) -> DecaySums:
    """Site-resolved strength of one boundary spin acting on its neighbors.

    For each offset, measures how much planting a single spin at the origin
    can shift the swap energy there, maximized over spin choices.  The
    worst single-spin total is the decay constant entering the gate.
    """
    spins = field.spins
    vac = spins.vacuum_index
    t = field.origin()
    per_offset: dict[Site, float] = {}
    per_spin_totals = {a: [] for a in spins.star_indices}
    for off in field.ball_offsets():
        s = tuple(a + o for a, o in zip(t, off))
        worst = 0.0
        for a in spins.star_indices:
            boundary = {t: a}
            spin_worst = max(
                abs(field.eval(s, boundary, y, vac) - field.eval(s, {}, y, vac))
                for y in spins.indices
            )
            per_spin_totals[a].append(spin_worst)
            worst = max(worst, spin_worst)
        if worst != 0.0:
            per_offset[off] = worst
    total = max(
        (math.fsum(v) for v in per_spin_totals.values()),
        default=0.0,
    )
    return DecaySums(total, per_offset)


@dataclass(frozen=True)
class FieldBounds:
    """Contraction-gate constants derived from the field norms.

    ``c1`` follows the displayed closed form; ``c1_proof`` is the variant
    the proof chain actually supports.  The gate uses the larger of the two.
    """

    norm_delta1: float
    decay_total: float
    n_x: int
    c1: float
    c1_proof: float
    c2: float
    contraction_lhs: float

    @property
    def c1_conservative(self) -> float:
        return max(self.c1, self.c1_proof)

    @property
    def passes(self) -> bool:
        return self.contraction_lhs < 1.0


def _exp(x: float) -> float:
    """math.exp that saturates to inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _gate_growth(e: float, n_x: int, decay: float) -> float:
    """2 (1 + 2 e n_x) (exp(exp(decay) - 1) - 1); exactly 0 when the decay
    factor is 0, even for e = inf."""
    factor = _exp(_exp(decay) - 1.0) - 1.0
    return 2.0 * (1.0 + 2.0 * e * n_x) * factor if factor else 0.0


def bounds_from_norms(norm_d1: float, decay_total: float, n_x: int) -> FieldBounds:
    """Contraction constants from the one-point norm and decay sum.

    Huge norms saturate to inf (the gate then fails) instead of overflowing."""
    if norm_d1 < 0 or decay_total < 0 or n_x < 1:
        raise DomainError("norms must be nonnegative and n_x >= 1")
    e = _exp(norm_d1)
    c1 = e * n_x / (1.0 + e * n_x) if e < math.inf else 1.0
    c1_proof = e * n_x / (1.0 + math.exp(-norm_d1) * n_x)
    c2 = _gate_growth(e, n_x, decay_total)
    lhs = max(c1, c1_proof) * (1.0 + c2)
    return FieldBounds(norm_d1, decay_total, n_x, c1, c1_proof, c2, lhs)


def field_bounds(field: OnePointField) -> FieldBounds:
    """Compute the contraction-gate constants of a field."""
    return bounds_from_norms(
        norm_delta1(field), decay_sums(field).total, field.spins.n_x
    )


def remark1_sufficiency(phi_norm: float, n_x: int) -> tuple[float, bool]:
    """Closed-form gate for vacuum pair potentials from the potential norm.

    Huge norms saturate to inf (the check then fails) instead of overflowing."""
    if phi_norm < 0 or n_x < 1:
        raise DomainError("potential norm must be nonnegative and n_x >= 1")
    e2 = _exp(2.0 * phi_norm)
    first = e2 * n_x / (1.0 + math.exp(-2.0 * phi_norm) * n_x)
    lhs = first * (1.0 + _gate_growth(e2, n_x, phi_norm))
    return lhs, lhs < 1.0
