"""Identity checks for one-point and volume transition energies.

Each check consumes a sample plan (a list of scenario tuples), evaluates the
relevant identities, and reports the worst residual with a witness.  Plans
can be randomized at any size or exhaustive over small windows.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import OnePointField, volume_steps
from .lattice import (
    EMPTY_CONFIG,
    Configuration,
    Site,
    ball,
    concat,
)

DEFAULT_CHECK_TOL = 1e-10

# Each identity may miss by this many machine epsilons of the absolute sum
# of the one-point values it combines, on top of the tolerance: a value too
# large to carry the digits of the others must not read as a failed
# identity.
ROUNDING_EPSILONS = 4.0


@dataclass(frozen=True)
class CheckReport:
    """Worst residual over a plan.  The check passes when every residual is
    within the tolerance plus its rounding allowance; `beyond_rounding` is
    the largest part of a residual beyond its allowance, and the witness
    names that instance."""

    name: str
    instances: int
    max_residual: float
    witness: str
    tolerance: float
    beyond_rounding: float

    @property
    def passed(self) -> bool:
        return self.beyond_rounding <= self.tolerance

    def summary(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        rounding = ""
        if self.passed and self.max_residual > self.tolerance:
            rounding = f" beyond_rounding={self.beyond_rounding:.3e}"
        return (
            f"{self.name}: instances={self.instances} "
            f"max_residual={self.max_residual:.3e}{rounding} "
            f"tol={self.tolerance:.1e} [{tag}]"
        )


def _abs_sum(values: Sequence[float]) -> float:
    return sum(map(abs, values))


class _Worst:
    """Running maxima of the residuals of one check."""

    def __init__(self):
        self.residual = 0.0
        self.beyond = -math.inf
        self.witness = ""

    def add(self, residual: float, scale: float, witness) -> None:
        """Offer one identity: its residual and the absolute sum of the
        one-point values it combines.  `witness` is called for the text
        only when the instance is kept.  A residual or a scale that is not
        finite is unbounded."""
        allowance = ROUNDING_EPSILONS * sys.float_info.epsilon * scale
        if math.isnan(residual) or allowance == math.inf:
            residual = beyond = math.inf
        else:
            beyond = residual - allowance
        self.residual = max(self.residual, residual)
        if beyond > self.beyond:
            self.beyond = beyond
            self.witness = witness()

    def report(self, name: str, instances: int, tolerance: float) -> CheckReport:
        beyond = max(self.beyond, 0.0)
        return CheckReport(
            name, instances, self.residual, self.witness, tolerance, beyond
        )


def _random_site(rng: random.Random, dimension: int, span: int = 4) -> Site:
    return tuple(rng.randint(-span, span) for _ in range(dimension))


def _random_boundary(
    rng: random.Random,
    field: OnePointField,
    near: Sequence[Site],
    exclude: set,
    max_sites: int = 4,
) -> Configuration:
    """Random finite-support boundary scattered around the given sites."""
    candidates = set()
    for t in near:
        candidates.update(ball(t, field.radius + 1))
    candidates -= exclude
    candidates = sorted(candidates)
    if not candidates:
        return EMPTY_CONFIG
    count = rng.randint(0, min(max_sites, len(candidates)))
    sites = rng.sample(candidates, count)
    star = field.spins.star_indices
    return Configuration((s, rng.choice(star)) for s in sites)


# ---------------------------------------------------------------------------
# One-point identities: cocycle, antisymmetry, two-site exchange
# ---------------------------------------------------------------------------


def one_point_plan_random(
    field: OnePointField, rng: random.Random, instances: int
) -> list[tuple]:
    """Scenarios (t, s, boundary, x, u, y_mid, ys, vs) for the one-point checks."""
    plan = []
    spins = field.spins
    d = field.dimension
    for _ in range(instances):
        t = _random_site(rng, d)
        while True:
            # Mostly nearby pairs, occasionally far apart.
            if rng.random() < 0.85:
                s = tuple(c + rng.randint(-field.radius - 1, field.radius + 1) for c in t)
            else:
                s = _random_site(rng, d)
            if s != t:
                break
        boundary = _random_boundary(rng, field, [t, s], {t, s})
        x, u, y_mid = (rng.choice(spins.indices) for _ in range(3))
        ys, vs = (rng.choice(spins.indices) for _ in range(2))
        plan.append((t, s, boundary, x, u, y_mid, ys, vs))
    return plan


def one_point_plan_exhaustive(
    field: OnePointField, window: Iterable[Site], max_boundary_sites: int = 2
) -> list[tuple]:
    """All site pairs, small boundaries, and spin tuples inside a window."""
    sites = sorted(window)
    spins = field.spins
    star = spins.star_indices
    plan = []
    for t, s in itertools.permutations(sites, 2):
        rest = [r for r in sites if r not in (t, s)]
        boundary_choices = [EMPTY_CONFIG]
        for k in range(1, min(max_boundary_sites, len(rest)) + 1):
            for combo in itertools.combinations(rest, k):
                for vals in itertools.product(star, repeat=k):
                    boundary_choices.append(Configuration(zip(combo, vals)))
        for boundary in boundary_choices:
            for x, u, y_mid, ys, vs in itertools.product(spins.indices, repeat=5):
                plan.append((t, s, boundary, x, u, y_mid, ys, vs))
    return plan


def check_one_point_consistency(
    field: OnePointField,
    plan: Sequence[tuple],
    tolerance: float = DEFAULT_CHECK_TOL,
) -> CheckReport:
    """Cocycle, antisymmetry, and two-site exchange residuals over a plan."""
    worst = _Worst()
    for t, s, boundary, x, u, y_mid, ys, vs in plan:
        bmap = boundary.mapping
        # Cocycle through an intermediate spin, and antisymmetry.
        direct = field.eval(t, bmap, x, u)
        first = field.eval(t, bmap, x, y_mid)
        second = field.eval(t, bmap, y_mid, u)
        back = field.eval(t, bmap, u, x)
        # Two-site exchange: swapping t then s must match s then t.
        vac = field.spins.vacuum_index
        with_spin = lambda cfg, site, spin: (
            concat(cfg, Configuration(((site, spin),))) if spin != vac else cfg
        )
        exchange = (
            field.eval(t, with_spin(boundary, s, ys).mapping, x, u),
            field.eval(s, with_spin(boundary, t, u).mapping, ys, vs),
            field.eval(s, with_spin(boundary, t, x).mapping, ys, vs),
            field.eval(t, with_spin(boundary, s, vs).mapping, x, u),
        )
        lhs = exchange[0] + exchange[1]
        rhs = exchange[2] + exchange[3]
        for name, r, terms in (
            ("cocycle", abs(direct - first - second), (direct, first, second)),
            ("antisymmetry", abs(direct + back), (direct, back)),
            ("exchange", abs(lhs - rhs), exchange),
        ):
            worst.add(
                r,
                _abs_sum(terms),
                lambda: (
                    f"{name} at t={t} s={s} boundary={boundary!r} "
                    f"x={x} u={u} y={y_mid} ys={ys} vs={vs}"
                ),
            )
    return worst.report("one_point_consistency", len(plan), tolerance)


# ---------------------------------------------------------------------------
# Volume identities: cocycle on the volume and the split identity
# ---------------------------------------------------------------------------


def field_plan_random(
    field: OnePointField, rng: random.Random, instances: int
) -> list[tuple]:
    """Scenarios (lam, vol, boundary, x, u, mid, y, v) for the volume checks."""
    spins = field.spins
    d = field.dimension
    plan = []
    for _ in range(instances):
        anchor = _random_site(rng, d)
        cloud = sorted(ball(anchor, field.radius + 1))
        size_a = rng.randint(1, 2)
        size_b = rng.randint(1, 2)
        picked = rng.sample(cloud, min(size_a + size_b, len(cloud)))
        lam = sorted(picked[:size_a])
        vol = sorted(picked[size_a:])
        if not vol:
            vol = [tuple(c + 2 * (field.radius + 1) for c in anchor)]
        exclude = set(lam) | set(vol)
        boundary = _random_boundary(rng, field, lam + vol, exclude)

        def rand_full(sites):
            vac = spins.vacuum_index
            return Configuration(
                (s, sp)
                for s in sites
                if (sp := rng.choice(spins.indices)) != vac
            )

        plan.append(
            (lam, vol, boundary, rand_full(lam), rand_full(lam), rand_full(lam),
             rand_full(vol), rand_full(vol))
        )
    return plan


def check_field_consistency(
    field: OnePointField,
    plan: Sequence[tuple],
    tolerance: float = DEFAULT_CHECK_TOL,
) -> CheckReport:
    """Volume cocycle, antisymmetry, and the disjoint-volume split identity."""
    worst = _Worst()

    def volume(*args) -> tuple:
        """Delta_volume and the absolute sum of its one-point steps."""
        steps = volume_steps(field, *args)
        return math.fsum(steps), _abs_sum(steps)

    for lam, vol, boundary, x, u, mid, y, v in plan:
        (d_xu, s_xu), (d_xm, s_xm), (d_mu, s_mu), (d_ux, s_ux) = (
            volume(lam, boundary, x, u),
            volume(lam, boundary, x, mid),
            volume(lam, boundary, mid, u),
            volume(lam, boundary, u, x),
        )
        both = sorted(set(lam) | set(vol))
        (d_all, s_all), (d_lam, s_lam), (d_vol, s_vol) = (
            volume(both, boundary, concat(x, y), concat(u, v)),
            volume(lam, concat(boundary, y), x, u),
            volume(vol, concat(boundary, u), y, v),
        )
        for name, r, scale in (
            ("volume_cocycle", abs(d_xu - d_xm - d_mu), s_xu + s_xm + s_mu),
            ("volume_antisymmetry", abs(d_xu + d_ux), s_xu + s_ux),
            ("split", abs(d_all - (d_lam + d_vol)), s_all + s_lam + s_vol),
        ):
            worst.add(
                r,
                scale,
                lambda: f"{name} at lam={lam} vol={vol} boundary={boundary!r}",
            )
    return worst.report("field_consistency", len(plan), tolerance)


# ---------------------------------------------------------------------------
# Boundary-replacement identity (the precondition of the solver)
# ---------------------------------------------------------------------------


def environment_plan_random(
    field: OnePointField, rng: random.Random, instances: int
) -> list[tuple]:
    """Scenarios (t, s, z, x, ys, vs) for the boundary-replacement check."""
    spins = field.spins
    d = field.dimension
    plan = []
    for _ in range(instances):
        t = _random_site(rng, d)
        while True:
            s = tuple(c + rng.randint(-field.radius - 1, field.radius + 1) for c in t)
            if s != t:
                break
        z = _random_boundary(rng, field, [t, s], {t, s})
        x = rng.choice(spins.indices)
        ys = rng.choice(spins.indices)
        vs = rng.choice(spins.indices)
        plan.append((t, s, z, x, ys, vs))
    return plan


def check_environment_condition(
    field: OnePointField,
    plan: Sequence[tuple],
    tolerance: float = DEFAULT_CHECK_TOL,
) -> CheckReport:
    """Replacing a far boundary spin must shift swap energies independently
    of the rest of the boundary."""
    vac = field.spins.vacuum_index
    worst = _Worst()
    for t, s, z, x, ys, vs in plan:
        def bnd(base: Configuration, spin: int) -> dict:
            if spin == vac:
                return dict(base.mapping)
            m = dict(base.mapping)
            m[s] = spin
            return m

        terms = (
            field.eval(t, bnd(z, ys), x, vac),
            field.eval(t, bnd(z, vs), x, vac),
            field.eval(t, bnd(EMPTY_CONFIG, ys), x, vac),
            field.eval(t, bnd(EMPTY_CONFIG, vs), x, vac),
        )
        with_z = terms[0] - terms[1]
        without_z = terms[2] - terms[3]
        worst.add(
            abs(with_z - without_z),
            _abs_sum(terms),
            lambda: f"t={t} s={s} z={z!r} x={x} ys={ys} vs={vs}",
        )
    return worst.report("environment_condition", len(plan), tolerance)
