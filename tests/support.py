"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random

from spincorr import (
    Configuration,
    PairField,
    PairPotential,
    SpinSpace,
)

SPINS2 = SpinSpace(("0", "1"))
SPINS3 = SpinSpace(("0", "a", "b"))


def chain_field(j: float, spins: SpinSpace = SPINS2, radius: int = 1):
    """1-d chain coupling every non-vacuum pair at every offset <= radius."""
    entries = {}
    for off in range(1, radius + 1):
        for a in spins.star_indices:
            for b in spins.star_indices:
                entries[((off,), a, b)] = j
    pot = PairPotential.create(1, radius, entries, spins)
    return PairField(pot, spins)


def grid_field(j: float, spins: SpinSpace = SPINS2):
    """2-d nearest-neighbor coupling of all non-vacuum pairs."""
    entries = {}
    for off in ((1, 0), (0, 1)):
        for a in spins.star_indices:
            for b in spins.star_indices:
                entries[(off, a, b)] = j
    pot = PairPotential.create(2, 1, entries, spins)
    return PairField(pot, spins)


def random_pair_field(
    rng: random.Random,
    dimension: int,
    spins: SpinSpace,
    radius: int,
    max_coupling: float = 0.5,
):
    """Random couplings in [-max_coupling, max_coupling] on all offsets."""
    offsets = set()
    span = range(-radius, radius + 1)
    for off in __import__("itertools").product(span, repeat=dimension):
        if any(c != 0 for c in off) and off not in offsets:
            mirrored = tuple(-c for c in off)
            if mirrored not in offsets:
                offsets.add(off)
    entries = {}
    for off in sorted(offsets):
        for a in spins.star_indices:
            for b in spins.star_indices:
                key = (off, a, b)
                mirror = (tuple(-c for c in off), b, a)
                if mirror in entries:
                    continue
                entries[key] = rng.uniform(-max_coupling, max_coupling)
    pot = PairPotential.create(dimension, radius, entries, spins)
    return PairField(pot, spins)


# The 2-d lattice gas at Ising coexistence: h = -2J, Ising K = 0.75 above
# K_c ~ 0.4407, so its infinite-volume Gibbs measure is not unique.  Kept out
# of models/ so that the rosters over that folder stay comparable.
COEXISTENCE_MODEL = """\
dimension = 2
spins = 0 1
vacuum = 0
range = 1
coupling (1,0) 1 1 = -3.0
coupling (0,1) 1 1 = -3.0
onebody 1 = 6.0
"""


def singleton(site: tuple, spin: int = 1) -> Configuration:
    return Configuration(((site, spin),))


def config(*pairs: tuple) -> Configuration:
    return Configuration(tuple(pairs))


def brute_force_partition(field, window, boundary, delta_volume, vacuum=None):
    """Independent partition sum: full-telescoping energies per configuration,
    no incremental walking."""
    import itertools

    from spincorr import EMPTY_CONFIG

    spins = field.spins
    sites = sorted(window)
    vac = spins.vacuum_index
    weights = []
    for assignment in itertools.product(spins.indices, repeat=len(sites)):
        x = Configuration(
            (s, sp) for s, sp in zip(sites, assignment) if sp != vac
        )
        weights.append(
            math.exp(delta_volume(field, sites, boundary, x, EMPTY_CONFIG))
        )
    return math.fsum(weights)


_TABLE = "# window = 0;1\n# partition_value = 3.5\nsupport,spins,value\n,,1.0\n"
# table files that must be refused, and the line that each one names
MALFORMED_TABLES = {
    "two-fields": (_TABLE + "0,1\n", 5),
    "non-numeric-value": (_TABLE + "0,1,abc\n", 5),
    "non-integer-site": (_TABLE + "x,1,0.5\n", 5),
    "unpaired-labels": (_TABLE + "0;1,1,0.5\n", 5),
    "non-finite-value": (_TABLE + "0,1,nan\n", 5),
    "window-header": (_TABLE.replace("0;1", "0;x"), 1),
    "window-header-empty-site": (_TABLE.replace("0;1", "0;;1"), 1),
    "window-header-huge-coordinate": (_TABLE.replace("0;1", "0;99999999999"), 1),
    "partition-header": (_TABLE.replace("3.5", "abc"), 2),
    "non-finite-header": (_TABLE.replace("3.5", "nan"), 2),
    "duplicate-row": (_TABLE + "0,1,0.4\n0,1,0.9\n", 6),
    "repeated-partition-header": (
        _TABLE.replace("support", "# partition_value = 7\nsupport"),
        3,
    ),
    "repeated-window-header": (_TABLE.replace("support", "# window = 0\nsupport"), 3),
    "vacuum-label-only": (_TABLE + "0,0,0.9\n", 5),
    "unknown-label": (_TABLE + "0,x,0.5\n", 5),
    "repeated-site": (_TABLE + "0;0,1;1,0.5\n", 5),
    "empty-site": (_TABLE + ";1,1;1,0.5\n", 5),
    "labels-without-sites": (_TABLE.replace(",,1.0", ",1,0.5"), 4),
    "empty-value-not-one": (_TABLE.replace(",,1.0", ",,0.7"), 4),
    "row-outside-window": (_TABLE + "0,1,0.4\n3,1,0.5\n", 6),
    "row-before-window-header": (
        _TABLE.replace("# window = 0;1\n", "") + "0;2,1;1,0.5\n# window = 0;1\n",
        4,
    ),
}
# probe lines (spins 0 1, vacuum 0) that must be refused; each file puts
# the line at line 3, after a comment and a valid probe
MALFORMED_PROBES = {
    name: f"# probes\n0,1\n{line}\n"
    for name, line in {
        "empty-site": "0;;1,1;1",
        "empty-label": "0;1,1;;1",
        "spaced-label": "0, 1",
        "value-field": "0,1,0.5",
        "unknown-label": "0,x",
        "vacuum-label": "0,0",
        "repeated-site": "0;0,1;1",
        "non-integer-site": "x,1",
        "unpaired-labels": "0;1,1",
    }.items()
}
