"""Independent reference for the chain workloads, and a table reader.

Nothing here imports ``spincorr``.  The model is the two-spin chain
(spins 0 = vacuum and 1) on sites 0..n-1 with nearest-neighbour coupling
J and one-body term h, vacuum outside the window.  A configuration s has
Gibbs weight exp(-J sum_i s_i s_{i+1} - h sum_i s_i), and the correlation
value of a site set S is the probability that every site of S holds spin
1.  The sign convention is pinned by ``test_reference.py`` against the
hand values of ``models/chain_ln2.model`` and against enumeration.
"""

from __future__ import annotations

import math

import numpy


def chain_weights(n: int, coupling: float, onebody: float) -> numpy.ndarray:
    """Summed Gibbs weight of the configurations with spin 1 on every site
    of the mask, for every mask over the n sites (bit i is site i); entry
    0 is the partition value.

    Transfer matrices left to right: row m of the running array holds, per
    spin of the last site, the weight of all prefixes whose sites in the
    mask m carry spin 1.  Each site doubles the rows: free, then pinned.
    """
    step = numpy.array(
        [[math.exp(-onebody * b - coupling * a * b) for b in (0, 1)] for a in (0, 1)]
    )
    pin = numpy.array([0.0, 1.0])
    rows = numpy.array([[1.0, math.exp(-onebody)]])
    rows = numpy.concatenate([rows, rows * pin])
    for _ in range(1, n):
        nxt = rows @ step
        rows = numpy.concatenate([nxt, nxt * pin])
    return rows.sum(axis=1)


def chain_correlations(n: int, coupling: float, onebody: float) -> numpy.ndarray:
    """rho[mask]: the probability that every site of the mask holds spin 1."""
    weights = chain_weights(n, coupling, onebody)
    return weights / weights[0]


def read_table(path: str) -> tuple:
    """(headers, rows) of a ``spincorr`` correlation table.

    rows maps (sites, labels) to the value; sites is a tuple of integer
    tuples and labels a tuple of strings, both in file order."""
    headers: dict = {}
    rows: dict = {}
    body = False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                headers[key.strip()] = value.strip()
            elif not body:
                if line != "support,spins,value":
                    raise ValueError(f"unexpected table header row {line!r}")
                body = True
            elif line:
                sites_text, labels_text, value_text = line.split(",")
                sites = tuple(
                    tuple(int(c) for c in s.split()) for s in sites_text.split(";") if s
                )
                labels = tuple(l for l in labels_text.split(";") if l)
                if len(sites) != len(labels) or (sites, labels) in rows:
                    raise ValueError(f"malformed or repeated table row {line!r}")
                rows[(sites, labels)] = float(value_text)
    return headers, rows


def chain_deviation(rows: dict, expected: numpy.ndarray) -> float:
    """Largest |table - reference| over a 1-d table that must list every
    subset of the chain exactly once, all with spin label '1'."""
    if len(rows) != len(expected):
        raise ValueError(f"table has {len(rows)} rows, expected {len(expected)}")
    worst = 0.0
    seen = set()
    for (sites, labels), value in rows.items():
        if any(l != "1" for l in labels):
            raise ValueError(f"unexpected spin labels {labels!r}")
        mask = sum(1 << s for (s,) in sites)
        if mask >= len(expected) or mask in seen:
            raise ValueError(f"unexpected support {sites!r}")
        seen.add(mask)
        worst = max(worst, abs(value - float(expected[mask])))
    return worst
