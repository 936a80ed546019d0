"""Lattice geometry, finite spin alphabets, and finite-support configurations.

Sites are plain integer tuples ordered lexicographically; windows are finite
site sets.  A configuration stores only its non-vacuum values, so the empty
configuration doubles as the all-vacuum state of every volume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetExceededError, DomainError, ModelDefinitionError

Site = tuple  # d-tuple of ints

# Desk-scale coordinate guard: anything outside this range is a mistake.
MAX_COORD = 2**31

DEFAULT_ENUM_BUDGET = 2**24
MAX_UNKNOWNS = 2**20  # a solve domain holds at least one unknown per window site


def validate_site(site, dimension: int | None = None) -> Site:
    if not isinstance(site, tuple) or not site:
        raise DomainError(f"site must be a nonempty tuple of ints, got {site!r}")
    for c in site:
        if not isinstance(c, int) or abs(c) > MAX_COORD:
            raise ModelDefinitionError(f"site coordinate out of range: {site!r}")
    if dimension is not None and len(site) != dimension:
        raise DomainError(f"site {site!r} has dimension {len(site)}, expected {dimension}")
    return site


@dataclass(frozen=True)
class SpinSpace:
    """Finite spin alphabet with one distinguished vacuum value.

    Spins are handled as integer indices into ``symbols`` everywhere in the
    numeric core; labels only appear at I/O boundaries.
    """

    symbols: tuple[str, ...]
    vacuum_index: int = 0

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ModelDefinitionError("spin space needs at least two values")
        if len(set(self.symbols)) != len(self.symbols):
            raise ModelDefinitionError(f"duplicate spin labels: {self.symbols!r}")
        if not 0 <= self.vacuum_index < len(self.symbols):
            raise ModelDefinitionError(f"vacuum index {self.vacuum_index} out of range")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def n_x(self) -> int:
        """Number of non-vacuum spin values."""
        return len(self.symbols) - 1

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.symbols)))

    @property
    def star_indices(self) -> tuple[int, ...]:
        """Indices of the non-vacuum spins, in symbol order."""
        return tuple(i for i in range(len(self.symbols)) if i != self.vacuum_index)

    def index_of(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise DomainError(f"unknown spin label {label!r}") from None


class Configuration:
    """Immutable finite-support map from sites to non-vacuum spin indices.

    ``items`` is kept sorted by site (lexicographic), which is also the
    canonical enumeration order used by the volume telescoping.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, pairs: Iterable[tuple[Site, int]] = ()):
        items = tuple(sorted(pairs))
        for i in range(1, len(items)):
            if items[i][0] == items[i - 1][0]:
                raise DomainError(f"duplicate site in configuration: {items[i][0]!r}")
        if items:
            d = len(items[0][0])
            for site, spin in items:
                validate_site(site, d)
                if not isinstance(spin, int) or spin < 0:
                    raise DomainError(f"bad spin index {spin!r} at {site!r}")
        self.items = items
        self._hash = hash(items)

    @classmethod
    def _make(cls, items: tuple[tuple[Site, int], ...]) -> "Configuration":
        # Fast path for internal callers that guarantee sorted, distinct sites.
        obj = object.__new__(cls)
        obj.items = items
        obj._hash = hash(items)
        return obj

    @property
    def support(self) -> frozenset:
        return frozenset(site for site, _ in self.items)

    @property
    def mapping(self) -> dict:
        """A new site -> spin index dict of the items."""
        return dict(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{site}:{spin}" for site, spin in self.items)
        return "{" + body + "}"


EMPTY_CONFIG = Configuration()


def concat(x: Configuration, y: Configuration) -> Configuration:
    """Concatenation of configurations with disjoint supports."""
    return Configuration(x.items + y.items)


def box(lo: Site, hi: Site) -> frozenset:
    """All sites of the axis-aligned box with inclusive corners lo, hi."""
    if len(lo) != len(hi):
        raise DomainError(f"corner dimension mismatch: {lo!r} vs {hi!r}")
    for a, b in zip(lo, hi):
        if a > b:
            raise DomainError(f"empty box: {lo!r}..{hi!r}")
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return frozenset(itertools.product(*ranges))

def ball(center: Site, radius: int) -> frozenset:
    """Chebyshev ball of the given radius around a site."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    lo = tuple(c - radius for c in center)
    hi = tuple(c + radius for c in center)
    return box(lo, hi)


def distance_to_complement(site: Site, window: frozenset) -> int:
    """Chebyshev distance from a window site to the infinite complement."""
    if site not in window:
        return 0
    r = 1
    while True:
        if any(s not in window for s in ball(site, r)):
            return r
        r += 1


def interior(window: Iterable[Site], r: int) -> frozenset:
    """Sites of the window whose distance to the complement exceeds ``r``."""
    if r < 0:
        raise DomainError("interior depth must be nonnegative")
    win = frozenset(window)
    return frozenset(s for s in win if distance_to_complement(s, win) > r)


def enumerate_configs(window: Iterable[Site], spins: SpinSpace) -> list:
    """Every configuration over a window, in code order: the spin indices
    of the sorted sites spell a base-q number, first site most significant.

    With the vacuum left implicit, the full spin assignments on the window
    and the sub-configurations on all supports of the window coincide.
    """
    sites = sorted(window)
    count = spins.size ** len(sites)
    if count > DEFAULT_ENUM_BUDGET:
        message = f"enumeration needs {count} states, budget is {DEFAULT_ENUM_BUDGET}"
        raise BudgetExceededError(message)
    keys = [()]
    for site in sites:
        pins = [() if b == spins.vacuum_index else ((site, b),) for b in spins.indices]
        keys = [key + pin for key in keys for pin in pins]
    return [Configuration._make(key) for key in keys]
