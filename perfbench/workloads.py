"""The benchmark workloads and their seeded model generator.

Each workload is one ``spincorr`` command line, run repeatedly in a closed
loop (one caller; the next job starts when the previous one returns).
The reason for each workload is its ``why`` in ``BENCHMARK.json``.
Both are nearest-neighbour two-spin chains.  Model parameters are drawn
from the workload seed inside a box where the contraction gate certifies
every draw, so no job is refused: J in [0.03, 0.04] and ``onebody 1`` in
[-0.05, 0.05]; the gate bound max(C1, C1')(1 + C2) is at most 0.952,
reached at a corner.

This module does not import ``spincorr``: the program receives only the
generated model files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHAIN_J = (0.03, 0.04)
CHAIN_H = (-0.05, 0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # command line after the model and before --out
    sites: int  # window sites
    values: int  # nonempty correlation values in the --out table


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_chain",
            ("exact", "--window=0:11", "--threads", "2"),
            12,
            2**12 - 1,
        ),
        Workload(
            "direct_chain",
            ("solve", "--window=0:11", "--method", "both"),
            12,
            2**12 - 1,
        ),
    )
}


@dataclass(frozen=True)
class ChainParams:
    coupling: float
    onebody: float


def draw_params(workload: Workload, seed: int) -> ChainParams:
    """Model parameters for one workload and seed (same seed, same model)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return ChainParams(rng.uniform(*CHAIN_J), rng.uniform(*CHAIN_H))


def model_text(params: ChainParams) -> str:
    return (
        "dimension = 1\nspins = 0 1\nvacuum = 0\nrange = 1\n"
        f"coupling (1) 1 1 = {params.coupling!r}\n"
        f"onebody 1 = {params.onebody!r}\n"
    )


def job_argv(workload: Workload, model_path: str, out_path: str) -> list:
    sub, *rest = workload.args
    return [sub, "--model", model_path, *rest, "--out", out_path]
