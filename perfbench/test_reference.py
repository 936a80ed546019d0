"""Pins the transfer-matrix reference to the program's conventions.

    PYTHONPATH=src python -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spincorr.exact import rho_exact  # noqa: E402
from spincorr.lattice import box  # noqa: E402
from spincorr.modelfile import load_model, parse_model  # noqa: E402

from reference import chain_correlations, chain_deviation, chain_weights  # noqa: E402
from workloads import CHAIN_H, CHAIN_J, ChainParams, model_text  # noqa: E402


def test_hand_values_of_chain_ln2():
    model = load_model(str(ROOT / "models" / "chain_ln2.model"))
    coupling = model.potential.couplings[((1,), 1, 1)]
    weights = chain_weights(2, coupling, 0.0)
    assert weights[0] == pytest.approx(3.5, abs=1e-14)
    rho = chain_correlations(2, coupling, 0.0)
    assert rho[0b01] == pytest.approx(3 / 7, abs=1e-15)
    assert rho[0b10] == pytest.approx(3 / 7, abs=1e-15)
    assert rho[0b11] == pytest.approx(1 / 7, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize(
    "params",
    [ChainParams(CHAIN_J[0], CHAIN_H[0]), ChainParams(CHAIN_J[1], CHAIN_H[1]),
     ChainParams(0.7, -0.3)],
)
def test_matches_enumeration(n, params):
    model = parse_model(model_text(params))
    table = rho_exact(model.field, box((0,), (n - 1,)))
    expected = chain_correlations(n, params.coupling, params.onebody)
    assert table.partition_value == pytest.approx(
        chain_weights(n, params.coupling, params.onebody)[0], rel=1e-13
    )
    rows = {
        (tuple(s for s, _ in config.items), ("1",) * len(config)): value
        for config, value in table.values.items()
    }
    assert chain_deviation(rows, expected) <= 1e-13


def test_deviation_sees_one_corrupted_entry():
    expected = chain_correlations(4, 0.035, 0.01)
    rows = {}
    for mask, value in enumerate(expected):
        sites = tuple((i,) for i in range(4) if mask >> i & 1)
        rows[(sites, ("1",) * len(sites))] = float(value)
    assert chain_deviation(rows, expected) == 0.0
    key = next(iter(rows))
    rows[key] += 1e-9
    assert math.isclose(chain_deviation(rows, expected), 1e-9, rel_tol=1e-6)
    del rows[key]
    with pytest.raises(ValueError):
        chain_deviation(rows, expected)
