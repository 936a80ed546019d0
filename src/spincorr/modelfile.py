"""Model definition files.

A model file is a line-oriented key-value format:

    # energy scale in units of kT
    dimension = 1
    spins = 0 1
    vacuum = 0
    range = 1
    vacuum_potential = true
    homogeneous = true
    coupling (1) 1 1 = 0.2
    onebody 1 = 0.0
    perturb (0) 1 0 = 0.1   # optional diagnostic bump, see verify

Coupling keys give the offset between the two sites and the two spin labels;
the mirrored entry is filled in automatically.  Offsets make the coupling
table translation invariant, so only homogeneous models can be expressed.
``range`` bounds the offsets; the nonzero couplings fix the neighbourhood.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ModelFileError
from .fields import OnePointField, PairField, PairPotential, PerturbedField
from .lattice import SpinSpace, Site

# The couplings fix a site's neighbourhood, but the identity plans (verify's
# and the environment gate's) draw from the ball of range + 1, so their cost
# grows with the declared range.  The guard caps the ball of range itself,
# (2 * range + 1) ** dimension sites: 729 admits range 4 in three
# dimensions, range 13 in two and range 2 in four.
MAX_BALL_SITES = 729


@dataclass(frozen=True)
class Model:
    """A parsed model: spin space, interaction data, and the built field."""

    dimension: int
    spins: SpinSpace
    potential: PairPotential
    one_body: tuple[float, ...]
    field: OnePointField
    digest: str
    source: str


def _parse_bool(text: str, line_no: int) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ModelFileError(f"expected a boolean, got {text!r}", line_no)


def _parse_offset(text: str, dimension: int, line_no: int) -> Site:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ModelFileError(f"offset must look like (1) or (0,1), got {text!r}", line_no)
    parts = [p.strip() for p in text[1:-1].split(",")]
    try:
        offset = tuple(int(p) for p in parts)
    except ValueError:
        raise ModelFileError(f"offset coordinates must be integers: {text!r}", line_no)
    if len(offset) != dimension:
        raise ModelFileError(
            f"offset {text} has dimension {len(offset)}, model has {dimension}", line_no
        )
    return offset


def _parse_float(text: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ModelFileError(f"expected a number, got {text.strip()!r}", line_no)


def parse_model(text: str) -> Model:
    """Parse a model definition from text.  Raises ModelFileError with the
    offending line on malformed input."""
    scalars: dict[str, tuple[str, int]] = {}
    couplings: list[tuple[int, str, str, str, float]] = []
    onebody: list[tuple[int, str, float]] = []
    perturbs: list[tuple[int, str, str, str, float]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelFileError("expected 'key = value'", line_no, len(raw) - len(raw.lstrip()) + 1)
        key_part, value = line.split("=", 1)
        key_part = key_part.strip()
        value = value.strip()
        if not value:
            raise ModelFileError("missing value", line_no)
        fields = key_part.split()
        if not fields:
            raise ModelFileError("missing key", line_no)
        keyword = fields[0]
        if keyword in ("coupling", "perturb"):
            if len(fields) != 4:
                raise ModelFileError(
                    f"{keyword} needs 'OFFSET SPIN SPIN = VALUE'", line_no
                )
            target = couplings if keyword == "coupling" else perturbs
            target.append((line_no, fields[1], fields[2], fields[3], _parse_float(value, line_no)))
        elif keyword == "onebody":
            if len(fields) != 2:
                raise ModelFileError("onebody needs 'onebody SPIN = VALUE'", line_no)
            onebody.append((line_no, fields[1], _parse_float(value, line_no)))
        else:
            if len(fields) != 1:
                raise ModelFileError(f"unexpected tokens after {keyword!r}", line_no)
            if keyword in scalars:
                raise ModelFileError(f"duplicate key {keyword!r}", line_no)
            scalars[keyword] = (value, line_no)

    def need(key: str) -> tuple[str, int]:
        if key not in scalars:
            raise ModelFileError(f"missing required key {key!r}", max(len(text.splitlines()), 1))
        return scalars[key]

    known = {"dimension", "spins", "vacuum", "range", "vacuum_potential", "homogeneous"}
    for key, (_, line_no) in scalars.items():
        if key not in known:
            raise ModelFileError(f"unknown key {key!r}", line_no)

    value, line_no = need("dimension")
    try:
        dimension = int(value)
    except ValueError:
        raise ModelFileError(f"dimension must be an integer, got {value!r}", line_no)
    if not 1 <= dimension <= 4:
        raise ModelFileError(f"dimension must be in 1..4, got {dimension}", line_no)

    value, line_no = need("spins")
    labels = tuple(value.split())
    for label in labels:
        # labels end up in delimiter-separated table rows
        if "," in label or ";" in label:
            raise ModelFileError(
                f"spin label {label!r} may not contain ',' or ';'", line_no
            )
    value, vac_line = need("vacuum")
    if value not in labels:
        raise ModelFileError(f"vacuum label {value!r} not among spins", vac_line)
    try:
        spins = SpinSpace(labels, labels.index(value))
    except Exception as exc:
        raise ModelFileError(str(exc), line_no)

    value, line_no = need("range")
    try:
        radius = int(value)
    except ValueError:
        raise ModelFileError(f"range must be an integer, got {value!r}", line_no)
    if radius < 0:
        raise ModelFileError(f"range must be >= 0, got {radius}", line_no)
    if (2 * radius + 1) ** dimension > MAX_BALL_SITES:
        raise ModelFileError(
            f"range {radius} gives interaction balls of "
            f"{(2 * radius + 1) ** dimension} sites in dimension {dimension}; "
            f"the limit is {MAX_BALL_SITES}",
            line_no,
        )

    vacuum_flag = True
    if "vacuum_potential" in scalars:
        value, line_no = scalars["vacuum_potential"]
        vacuum_flag = _parse_bool(value, line_no)
    if "homogeneous" in scalars:
        value, line_no = scalars["homogeneous"]
        if not _parse_bool(value, line_no):
            raise ModelFileError(
                "offset-keyed couplings are translation invariant; "
                "inhomogeneous models are not expressible in this format",
                line_no,
            )

    def spin_index(label: str, line_no: int) -> int:
        if label not in labels:
            raise ModelFileError(f"unknown spin label {label!r}", line_no)
        return labels.index(label)

    # each coupling and onebody line is built alone first (a coupling beside
    # the earlier one it mirrors), and each perturb line wraps the field, so
    # the potential's and the fields' own checks name the line that fails them
    def check_line(line_no: int, make, *args):
        try:
            return make(*args)
        except Exception as exc:
            raise ModelFileError(str(exc), line_no)

    entries: dict = {}
    for line_no, off_text, a_text, b_text, val in couplings:
        offset = _parse_offset(off_text, dimension, line_no)
        a, b = spin_index(a_text, line_no), spin_index(b_text, line_no)
        key, mirror = (offset, a, b), (tuple(-c for c in offset), b, a)
        if key in entries and entries[key] != val:
            raise ModelFileError(f"conflicting duplicate coupling {off_text}", line_no)
        pair = {mirror: entries[mirror]} if mirror in entries else {}
        pair[key] = val
        check_line(line_no, PairPotential.create, dimension, radius, pair, spins, vacuum_flag)
        entries[key] = val
    potential = PairPotential.create(dimension, radius, entries, spins, vacuum_flag)

    one_body = [0.0] * spins.size
    seen = set()
    for line_no, label, val in onebody:
        spin = spin_index(label, line_no)
        if spin in seen and one_body[spin] != val:
            raise ModelFileError(f"conflicting duplicate onebody {label}", line_no)
        alone = [0.0] * spins.size
        alone[spin] = one_body[spin] = val
        check_line(line_no, PairField, potential, spins, alone)
        seen.add(spin)
    field: OnePointField = PairField(potential, spins, one_body)

    for line_no, site_text, x_text, u_text, amount in perturbs:
        site = _parse_offset(site_text, dimension, line_no)
        x, u = spin_index(x_text, line_no), spin_index(u_text, line_no)
        field = check_line(line_no, PerturbedField, field, site, x, u, amount)

    digest = model_digest(text)
    return Model(dimension, spins, potential, tuple(one_body), field, digest, text)


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def model_digest(text: str) -> str:
    """Digest of the semantic content: comments and blank lines ignored."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(" ".join(line.split()))
    canon = "\n".join(sorted(lines))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
