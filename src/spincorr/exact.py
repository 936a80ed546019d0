"""Exact finite-volume quantities by full enumeration.

Everything here is brute force on purpose: partition functions, Gibbs
tables, and correlation functions are computed by walking every
configuration of the window, and serve as ground truth for the solver.
The enumeration walks configurations in reflected Gray-code order, so
each step changes one site and updates the volume energy by one
single-site transition; it restarts from a full telescoping sum at every
block boundary so rounding drift cannot accumulate across more than one
block.

The correlation-equation checker re-implements the equation it tests
from its own loops (no code shared with the solver module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from . import checks
from .errors import (
    BudgetExceededError,
    DomainError,
    EnvironmentConditionError,
)
from .fields import OnePointField, delta_volume
from .lattice import (
    DEFAULT_ENUM_BUDGET,
    Configuration,
    EMPTY_CONFIG,
    SpinSpace,
    ball,
    merge_items,
    split_min,
)
from .parallel import block_ranges, map_blocks

MAX_SAFE_ENERGY = 700.0


def _check_budget(spins: SpinSpace, n_sites: int, budget: int, what: str) -> None:
    required = spins.size ** n_sites
    if required > budget:
        raise BudgetExceededError(
            f"{what} needs {required} configurations, budget is {budget}",
            required=required,
            budget=budget,
        )


def _guarded_exp(delta: float) -> float:
    if abs(delta) > MAX_SAFE_ENERGY:
        raise DomainError(
            f"volume energy {delta!r} exceeds the safe exponent range "
            f"(+/-{MAX_SAFE_ENERGY}); rescale the couplings"
        )
    return math.exp(delta)


def _exp_all(deltas: list) -> list:
    """exp of every volume energy; refuses the block if any lies outside
    the safe exponent range."""
    if max(map(abs, deltas)) > MAX_SAFE_ENERGY:
        _guarded_exp(max(deltas, key=abs))
    return list(map(math.exp, deltas))


class _VolumeWalker:
    """Reflected Gray-code walk over the spins of `free_sites` inside `window`.

    Walk position i holds the i-th word of the reflected q-ary Gray code,
    first free site most significant, so consecutive configurations differ
    at exactly one site by one spin index.  Tracks the full-volume energy
    Delta_window(current, vacuum) with the external `boundary` and the
    frozen `fixed` part of the configuration, and `code`, the base-q
    number the spin indices spell in site order.  `seek` recomputes the
    energy from scratch (telescoping); `advance` applies one single-site
    transition energy.
    """

    def __init__(
        self,
        field: OnePointField,
        window: frozenset,
        boundary: Configuration,
        fixed: Configuration,
        free_sites: Sequence[tuple],
    ):
        self.field = field
        self.window = window
        self.boundary = boundary
        self.fixed = fixed
        self.free_sites = tuple(free_sites)
        self.base = field.spins.size
        self.vacuum = field.spins.vacuum_index
        n = len(self.free_sites)
        self.digits = [0] * n
        self.steps = [1] * n
        self.places = [self.base ** (n - 1 - pos) for pos in range(n)]
        self.code = 0
        self.env: dict = {}
        self.delta = 0.0

    def seek(self, index: int) -> None:
        """Jump to walk position `index`: each Gray digit is the plain
        base-q digit, reflected when the Gray digits above it sum to an odd
        number; a reflected digit walks downwards."""
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
        self.code = sum(d * p for d, p in zip(digits, self.places))
        vac = self.vacuum
        items = list(self.fixed.items)
        items.extend(
            (site, d) for site, d in zip(self.free_sites, digits) if d != vac
        )
        config = Configuration(sorted(items))
        self.delta = delta_volume(
            self.field, self.window, self.boundary, config, EMPTY_CONFIG
        )
        env = dict(self.boundary.items)
        env.update(config.items)
        self.env = env

    def advance(self) -> bool:
        """Step to the next configuration by moving the lowest digit that
        can still move its way; the digits below it turn round.  False
        after the last configuration."""
        digits = self.digits
        steps = self.steps
        top = self.base - 1
        pos = len(digits) - 1
        while True:
            if pos < 0:
                return False
            step = steps[pos]
            new = digits[pos] + step
            if 0 <= new <= top:
                break
            steps[pos] = -step
            pos -= 1
        old = digits[pos]
        digits[pos] = new
        self.code += step * self.places[pos]
        site = self.free_sites[pos]
        env = self.env
        vac = self.vacuum
        if old != vac:
            del env[site]
        self.delta += self.field.eval(site, env, new, old)
        if new != vac:
            env[site] = new
        return True

    def support_items(self) -> tuple:
        vac = self.vacuum
        free = tuple(
            (site, d) for site, d in zip(self.free_sites, self.digits) if d != vac
        )
        if not self.fixed:
            return free
        return merge_items(self.fixed.items, free)


def _sum_weights(
    field: OnePointField,
    window: frozenset,
    boundary: Configuration,
    fixed: Configuration,
    free_sites: Sequence[tuple],
) -> float:
    total = field.spins.size ** len(free_sites)

    def job(start: int, stop: int) -> float:
        walker = _VolumeWalker(field, window, boundary, fixed, free_sites)
        walker.seek(start)
        advance = walker.advance
        deltas = []
        for _ in range(stop - start):
            deltas.append(walker.delta)
            advance()
        return math.fsum(_exp_all(deltas))

    partials = map_blocks(job, block_ranges(total))
    return math.fsum(partials)


def partition_function(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> float:
    """Sum of exp{Delta_window(x, vacuum)} over all configurations x."""
    window = frozenset(window)
    _check_budget(field.spins, len(window), budget, "partition function")
    return _sum_weights(field, window, boundary, EMPTY_CONFIG, sorted(window))


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

    def total(self) -> float:
        return math.fsum(self.probabilities.values())


def gibbs_distribution(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
    reference: Configuration | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> GibbsTable:
    """Normalized Boltzmann weights exp{Delta_window(x, reference)}.

    The default reference is the vacuum configuration.  Any other full
    configuration must give the same table (cocycle); we honor an explicit
    reference by evaluating Delta against it directly, which makes the
    reference-independence test meaningful.
    """
    window = frozenset(window)
    _check_budget(field.spins, len(window), budget, "Gibbs table")
    sites = sorted(window)
    spins = field.spins

    if reference is None:
        weight_of = None
    else:
        if not reference.support <= window:
            raise DomainError("reference configuration must live on the window")

        def weight_of(config: Configuration) -> float:
            d = delta_volume(field, window, boundary, config, reference)
            return _guarded_exp(d)

    total = spins.size ** len(sites)

    def job(start: int, stop: int) -> tuple:
        walker = _VolumeWalker(field, window, boundary, EMPTY_CONFIG, sites)
        walker.seek(start)
        entries = []
        for _ in range(stop - start):
            key = walker.support_items()
            if weight_of is None:
                entries.append((key, _guarded_exp(walker.delta)))
            else:
                entries.append((key, weight_of(Configuration._make(key))))
            walker.advance()
        return entries

    table: dict = {}
    weights = []
    for entries in map_blocks(job, block_ranges(total)):
        for key, w in entries:
            table[Configuration._make(key)] = w
            weights.append(w)
    z = math.fsum(weights)
    probabilities = {k: w / z for k, w in table.items()}
    return GibbsTable(window, probabilities, z)


@dataclass(frozen=True)
class CorrelationTable:
    """Correlation values on a window, including the empty configuration
    (value 1).  Lookups outside the window return 0."""

    window: frozenset
    values: Mapping[Configuration, float]
    partition_value: float | None = None
    headers: Mapping[str, str] = dataclass_field(default_factory=dict)

    def value(self, config: Configuration) -> float:
        if not config.support <= self.window:
            return 0.0
        return self.values.get(config, 0.0)

    def sorted_items(self) -> list:
        return sorted(self.values.items(), key=lambda kv: (len(kv[0]), kv[0].items))


def _marginal_numerators(
    field: OnePointField,
    window: frozenset,
    boundary: Configuration,
) -> tuple:
    """One pass over all configurations z fills their weights by `code`;
    then each site axis of length q becomes an axis of length 1 + n_x: the
    sum over the axis (site left free), then the slices at the non-vacuum
    spins (site pinned).  Each entry of the result is the numerator of the
    configuration it pins."""
    sites = sorted(window)
    spins = field.spins
    q = spins.size
    weights = [0.0] * q ** len(sites)

    def job(start: int, stop: int) -> float:
        walker = _VolumeWalker(field, window, boundary, EMPTY_CONFIG, sites)
        walker.seek(start)
        advance = walker.advance
        codes = []
        deltas = []
        for _ in range(stop - start):
            codes.append(walker.code)
            deltas.append(walker.delta)
            advance()
        block = _exp_all(deltas)
        for code, w in zip(codes, block):
            weights[code] = w
        return math.fsum(block)

    z = math.fsum(map_blocks(job, block_ranges(len(weights))))

    star = spins.star_indices
    table = weights
    keys = [()]
    for pos, site in enumerate(sites):
        stride = q ** (len(sites) - 1 - pos)
        mapped = []
        for lo in range(0, len(table), q * stride):
            axis = [table[lo + b * stride : lo + (b + 1) * stride] for b in range(q)]
            mapped.extend(map(math.fsum, zip(*axis)))
            for b in star:
                mapped.extend(axis[b])
        table = mapped
        pins = [()] + [((site, b),) for b in star]
        keys = [key + pin for key in keys for pin in pins]
    numerators = dict(zip(keys[1:], table[1:]))
    return z, numerators


def _extension_numerators(
    field: OnePointField,
    window: frozenset,
    boundary: Configuration,
) -> tuple:
    """Independent route: one enumeration of extensions per target
    configuration, following the defining sum for the correlation value."""
    sites = sorted(window)
    spins = field.spins
    z = _sum_weights(field, window, boundary, EMPTY_CONFIG, sites)
    numerators: dict = {}
    star = spins.star_indices
    for k in range(1, len(sites) + 1):
        for support in combinations(sites, k):
            support_set = frozenset(support)
            free = [s for s in sites if s not in support_set]
            for assignment in product(star, repeat=k):
                fixed = Configuration._make(tuple(zip(support, assignment)))
                numerators[fixed.items] = _sum_weights(
                    field, window, boundary, fixed, free
                )
    return z, numerators


def rho_exact(
    field: OnePointField,
    window: Iterable[tuple],
    boundary: Configuration = EMPTY_CONFIG,
    budget: int = DEFAULT_ENUM_BUDGET,
    method: str = "both",
    self_check_tol: float = 1e-12,
) -> CorrelationTable:
    """Full correlation table over the window.

    method "marginal" distributes each Boltzmann weight to all
    restrictions of its configuration; "extension" enumerates extensions
    per target configuration; "both" (default) computes the table both
    ways and insists they agree within self_check_tol.
    """
    window = frozenset(window)
    spins = field.spins
    _check_budget(spins, len(window), budget, "correlation table")
    if method not in ("marginal", "extension", "both"):
        raise DomainError(f"unknown method {method!r}")
    if method == "both":
        cost = (spins.size + spins.n_x) ** len(window)
        if cost > budget:
            raise BudgetExceededError(
                f"two-route correlation table needs {cost} enumeration steps, "
                f"budget is {budget}",
                required=cost,
                budget=budget,
            )

    if method == "extension":
        z, numerators = _extension_numerators(field, window, boundary)
    else:
        z, numerators = _marginal_numerators(field, window, boundary)
        if method == "both":
            z2, numerators2 = _extension_numerators(field, window, boundary)
            worst = abs(z2 / z - 1.0)
            for key, num in numerators.items():
                worst = max(worst, abs(num / z - numerators2[key] / z2))
            if worst > self_check_tol:
                raise DomainError(
                    "correlation routes disagree: marginal vs extension "
                    f"differ by {worst!r} (tolerance {self_check_tol!r})"
                )

    values = {Configuration._make(key): num / z for key, num in numerators.items()}
    values[EMPTY_CONFIG] = 1.0
    return CorrelationTable(window, values, z)


def rho_probe(
    field: OnePointField,
    window: Iterable[tuple],
    probes: Sequence[Configuration],
    boundary: Configuration = EMPTY_CONFIG,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict:
    """Correlation values for selected configurations only.

    Streams the denominator and one numerator per probe without ever
    materializing a table, so it scales to windows where rho_exact would
    exhaust memory (the enumeration budget still applies)."""
    window = frozenset(window)
    _check_budget(field.spins, len(window), budget, "correlation probe")
    sites = sorted(window)
    z = _sum_weights(field, window, boundary, EMPTY_CONFIG, sites)
    out: dict = {}
    for probe in probes:
        if not probe.support <= window:
            raise DomainError(
                f"probe {probe!r} is not supported inside the window"
            )
        if not probe:
            out[probe] = 1.0
            continue
        free = [s for s in sites if s not in probe.support]
        num = _sum_weights(field, window, boundary, probe, free)
        out[probe] = num / z
    return out


def _environment_precheck(field: OnePointField, instances: int, tolerance: float) -> None:
    import random

    rng = random.Random(20260816)
    plan = checks.environment_plan_random(field, rng, instances)
    report = checks.check_environment_condition(field, plan, tolerance)
    if not report.passed:
        raise EnvironmentConditionError(
            "boundary-replacement identity fails; the correlation equation "
            "is not asserted for this field",
            witness=report.witness,
            residual=report.max_residual,
        )


def theorem_g_value(
    field: OnePointField,
    window: frozenset,
    table: CorrelationTable,
    t: tuple,
    x_t: int,
    rest: Configuration,
    kernel_cache: dict | None = None,
) -> float:
    """The inner sum of the correlation equation for the configuration
    (x_t at t) + rest: over nonempty J inside the window and disjoint
    from the support, and non-vacuum spins on J.

    Kernel factors vanish beyond the field radius, so J ranges over the
    interaction ball; that restriction is exact, not a truncation.
    """
    spins = field.spins
    vac = spins.vacuum_index
    if kernel_cache is None:
        kernel_cache = {}
    exclude = rest.support | {t}
    sites = sorted(s for s in ball(t, field.radius) & window if s not in exclude)

    def factor(s: tuple, b: int) -> float:
        key = (s, t, x_t, b)
        got = kernel_cache.get(key)
        if got is None:
            shifted = field.eval(s, {t: x_t}, b, vac)
            free = field.eval(s, {}, b, vac)
            got = math.exp(shifted - free) - 1.0
            kernel_cache[key] = got
        return got

    star = spins.star_indices
    terms = []
    for k in range(1, len(sites) + 1):
        for subset in combinations(sites, k):
            for assignment in product(star, repeat=k):
                kernel = 1.0
                for s, b in zip(subset, assignment):
                    kernel *= factor(s, b)
                if kernel == 0.0:
                    continue
                y_items = tuple(zip(subset, assignment))
                base = Configuration._make(merge_items(rest.items, y_items))
                inner = table.value(base)
                for beta in star:
                    with_beta = Configuration._make(
                        merge_items(base.items, ((t, beta),))
                    )
                    inner -= table.value(with_beta)
                terms.append(kernel * inner)
    return math.fsum(terms)


def correlation_rhs(
    field: OnePointField,
    window: frozenset,
    table: CorrelationTable,
    x: Configuration,
    kernel_cache: dict | None = None,
) -> float:
    """Right-hand side of the correlation equation at the nonempty
    configuration x, reading correlation values from the table."""
    spins = field.spins
    vac = spins.vacuum_index
    star = spins.star_indices
    t, x_t, rest = split_min(x)
    boundary_map = dict(rest.items)
    weights = {alpha: math.exp(field.eval(t, boundary_map, alpha, vac)) for alpha in star}
    denom = 1.0 + math.fsum(weights[alpha] for alpha in star)
    gamma = weights[x_t] / denom

    g_x = theorem_g_value(field, window, table, t, x_t, rest, kernel_cache)
    # alpha = vacuum contributes weight 1 and a vanishing kernel sum.
    correction = [g_x]
    for alpha in star:
        g_alpha = theorem_g_value(field, window, table, t, alpha, rest, kernel_cache)
        correction.append(weights[alpha] * (g_x - g_alpha))
    return gamma * (table.value(rest) + math.fsum(correction))


def verify_correlation_equation(
    field: OnePointField,
    window: Iterable[tuple],
    table: CorrelationTable,
    tolerance: float = 1e-9,
    env_instances: int = 300,
) -> checks.CheckReport:
    """Check every nonempty configuration of the table against the
    correlation equation, after confirming the field satisfies the
    boundary-replacement identity the equation depends on.

    The external boundary is vacuum, matching the table convention.
    """
    window = frozenset(window)
    _environment_precheck(field, env_instances, min(tolerance, 1e-10))

    kernel_cache: dict = {}
    worst = 0.0
    witness = ""
    count = 0

    for x, lhs in table.sorted_items():
        if not x:
            continue
        rhs = correlation_rhs(field, window, table, x, kernel_cache)
        residual = abs(lhs - rhs)
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
    row with empty support and spins fields.
    """
    lines = []
    merged = dict(headers or {})
    merged["window"] = ";".join(_site_text(s) for s in sorted(table.window))
    merged["spins"] = " ".join(spins.symbols)
    merged["vacuum"] = spins.symbols[spins.vacuum_index]
    if table.partition_value is not None:
        merged["partition_value"] = repr(table.partition_value)
    for key, value in merged.items():
        lines.append(f"# {key} = {value}")
    lines.append("support,spins,value")
    for config, value in table.sorted_items():
        sites = ";".join(_site_text(s) for s, _ in config.items)
        labels = ";".join(spins.label(i) for _, i in config.items)
        lines.append(f"{sites},{labels},{value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str, spins: SpinSpace) -> CorrelationTable:
    headers: dict = {}
    values: dict = {}
    window: frozenset = frozenset()
    partition_value = None
    with open(path, "r", encoding="utf-8") as fh:
        body_seen = False
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                text = line[1:].strip()
                if "=" in text:
                    key, _, value = text.partition("=")
                    headers[key.strip()] = value.strip()
                continue
            if not body_seen:
                if line != "support,spins,value":
                    raise DomainError(f"unexpected table header row: {line!r}")
                body_seen = True
                continue
            sites_text, labels_text, value_text = line.split(",")
            if sites_text:
                sites = [_parse_site(s) for s in sites_text.split(";")]
                labels = labels_text.split(";")
                items = tuple(
                    (site, spins.index_of(label))
                    for site, label in zip(sites, labels)
                )
                config = Configuration(items)
            else:
                config = EMPTY_CONFIG
            values[config] = float(value_text)
    if "window" in headers and headers["window"]:
        window = frozenset(_parse_site(s) for s in headers["window"].split(";"))
    else:
        window = frozenset().union(*(c.support for c in values)) if values else frozenset()
    if "partition_value" in headers:
        partition_value = float(headers["partition_value"])
    return CorrelationTable(window, values, partition_value, headers)
