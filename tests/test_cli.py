import hashlib
import math
import pathlib
import re
import subprocess
import sys

import pytest

from spincorr import SpinSpace, cli, read_table

from support import MALFORMED_PROBES, MALFORMED_TABLES

ROOT = pathlib.Path(__file__).parent.parent
MODELS = ROOT / "models"


def run_cli(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "spincorr", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def model(name: str) -> str:
    return str(MODELS / f"{name}.model")


def write_model(tmp_path, text: str) -> str:
    path = tmp_path / "huge.model"
    path.write_text(text, encoding="utf-8")
    return str(path)


def huge_chain(coupling: str) -> str:
    return (
        "dimension = 1\n"
        "spins = 0 1\n"
        "vacuum = 0\n"
        "range = 1\n"
        f"coupling (1) 1 1 = {coupling}\n"
    )


# adding 1e300 loses the 0.7, so the identity checks see a residual of 0.7,
# inside the rounding allowance of terms near 1e300
HUGE_BESIDE_ORDINARY = (
    "dimension = 2\n"
    "spins = 0 a\n"
    "vacuum = 0\n"
    "range = 1\n"
    "coupling (-1,1) a a = 0.7\n"
    "coupling (1,1) a a = 1e+300\n"
)

# kernel factors exp(+-1e300) - 1 are inf and -1: the iteration meets nan
HUGE_OF_BOTH_SIGNS = HUGE_BESIDE_ORDINARY + "coupling (1,0) a a = -1e+300\n"

# weights and kernel products of both signs overflow, so the kappa sum of
# a row meets inf - inf
THREE_SPIN_OVERFLOW = (
    "dimension = 1\n"
    "spins = 0 a b\n"
    "vacuum = 0\n"
    "range = 1\n"
    "coupling (1) a a = 800\n"
    "coupling (1) a b = -800\n"
    "coupling (1) b a = -800\n"
    "coupling (1) b b = -800\n"
)


class TestVerifyCommand:
    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_rejects_instances_below_one(self, instances):
        proc = run_cli(
            "verify", "--model", model("perturbed"), "--instances", instances
        )
        assert proc.returncode == 2
        assert "[pass]" not in proc.stdout
        assert "--instances" in proc.stderr

    def test_passes_on_pair_model(self):
        proc = run_cli(
            "verify", "--model", model("chain_gated"), "--instances", "300"
        )
        assert proc.returncode == 0, proc.stderr
        assert "[pass]" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_fails_on_perturbed_model(self):
        proc = run_cli(
            "verify", "--model", model("perturbed"), "--instances", "300"
        )
        assert proc.returncode == 1
        assert "one_point_consistency: instances=300 max_residual=2.000e-01" in proc.stdout
        assert "[FAIL]" in proc.stdout
        assert "beyond_rounding" not in proc.stdout
        assert "witness[one_point_consistency]" in proc.stdout

    def test_huge_coupling_rounding_passes(self, tmp_path):
        proc = run_cli(
            "verify", "--model", write_model(tmp_path, HUGE_BESIDE_ORDINARY)
        )
        assert proc.returncode == 0, proc.stdout
        assert "max_residual=7.000e-01 beyond_rounding=0.000e+00" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_exhaustive_window(self):
        proc = run_cli(
            "verify",
            "--model",
            model("chain_gated"),
            "--window=0:2",
            "--exhaustive",
            "--instances",
            "200",
        )
        assert proc.returncode == 0, proc.stderr

    def test_exhaustive_window_too_large(self):
        proc = run_cli(
            "verify",
            "--model",
            model("chain_gated"),
            "--window=0:4",
            "--exhaustive",
        )
        assert proc.returncode == 2

    def test_detects_broken_identities(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(
            "dimension = 1\n"
            "spins = 0 1\n"
            "vacuum = 0\n"
            "range = 1\n"
            "coupling (1) 1 1 = 0.05\n"
            "perturb (0) 1 0 = 0.2\n",
            encoding="utf-8",
        )
        proc = run_cli("verify", "--model", str(bad), "--instances", "500")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestExactCommand:
    def test_table_and_headers(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli(
            "exact",
            "--model",
            model("chain_ln2"),
            "--window=0:1",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "partition_value = 3.5" in proc.stdout
        text = out.read_text(encoding="utf-8")
        for key in ("tool_version", "model_digest", "seed", "tolerance"):
            assert f"# {key} = " in text
        assert "support,spins,value" in text

    def test_perturbed_model_still_defines_consistent_measure(self, tmp_path):
        # The diagnostic bump is boundary-independent, so the measure it
        # defines still satisfies the correlation equation; only the
        # one-point identity suites (the verify command) flag it.
        bad = tmp_path / "bad.model"
        bad.write_text(
            "dimension = 1\n"
            "spins = 0 1\n"
            "vacuum = 0\n"
            "range = 1\n"
            "coupling (1) 1 1 = 0.05\n"
            "perturb (0) 1 0 = 0.2\n",
            encoding="utf-8",
        )
        proc = run_cli("exact", "--model", str(bad), "--window=0:2")
        assert proc.returncode == 0
        assert "[pass]" in proc.stdout


class TestSolveCommand:
    def test_finite_volume_report(self):
        proc = run_cli("solve", "--model", model("chain_gated"), "--window=0:5")
        assert proc.returncode == 0, proc.stderr
        assert "certified = true" in proc.stdout
        assert "overridden = false" in proc.stdout
        assert "method = iterative" in proc.stdout

    def test_deviation_against_exact_table(self, tmp_path):
        table = tmp_path / "exact.csv"
        proc = run_cli(
            "exact",
            "--model",
            model("chain_gated"),
            "--window=0:5",
            "--out",
            str(table),
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "solve",
            "--model",
            model("chain_gated"),
            "--window=0:5",
            "--exact",
            str(table),
        )
        assert proc.returncode == 0, proc.stderr
        line = next(
            l for l in proc.stdout.splitlines() if l.startswith("max_deviation_vs_exact")
        )
        assert float(line.split(" = ")[1]) <= 1e-8

    def test_window_iteration_prints_tail_bounds(self):
        proc = run_cli(
            "solve",
            "--model",
            model("chain_gated"),
            "--window=0:8",
            "--kmax",
            "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "tail_bound[d=1] = " in proc.stdout

    def test_gate_failure_is_exit_four(self):
        proc = run_cli("solve", "--model", model("chain_ln2"), "--window=0:3")
        assert proc.returncode == 4
        assert "contraction gate fails" in proc.stderr

    def test_override_gate(self):
        proc = run_cli(
            "solve",
            "--model",
            model("chain_ln2"),
            "--window=0:3",
            "--override-gate",
        )
        assert proc.returncode == 0, proc.stderr
        assert "overridden = true" in proc.stdout

    def test_divergence_is_exit_five(self):
        proc = run_cli(
            "solve",
            "--model",
            model("strong"),
            "--window=0:5",
            "--override-gate",
        )
        assert proc.returncode == 5
        assert "rate" in proc.stderr

    @pytest.mark.parametrize(
        "text,window",
        [
            pytest.param(huge_chain("800"), "0:3", id="800"),
            pytest.param(huge_chain("1e300"), "0:3", id="1e300"),
            pytest.param(HUGE_BESIDE_ORDINARY, "0,0:1,1", id="2d-1e300-beside-0.7"),
        ],
    )
    def test_huge_coupling_is_exit_four(self, tmp_path, text, window):
        proc = run_cli(
            "solve", "--model", write_model(tmp_path, text), f"--window={window}"
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr

    def test_huge_coupling_override_runs(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli(
            "solve",
            "--model",
            write_model(tmp_path, HUGE_BESIDE_ORDINARY),
            "--override-gate",
            "--window=0,0:1,1",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "certified = false" in proc.stdout
        values = read_table(str(out), SpinSpace(("0", "a"))).values
        assert len(values) == 2**4
        assert all(math.isfinite(v) for v in values.values())

    @pytest.mark.parametrize("method", ["iterative", "direct"])
    @pytest.mark.parametrize(
        "text,window",
        [
            pytest.param(huge_chain("-800"), "0:3", id="-800"),
            pytest.param(HUGE_OF_BOTH_SIGNS, "0,0:1,1", id="2d-1e300-both-signs"),
            pytest.param(THREE_SPIN_OVERFLOW, "0:2", id="3-spin-inf-minus-inf"),
        ],
    )
    def test_overflowing_operator_under_override_is_exit_five(
        self, tmp_path, text, window, method
    ):
        # the exp of a huge kernel energy saturates to inf; the rows then
        # hold non-finite entries and both routes report a divergence
        proc = run_cli(
            "solve",
            "--model",
            write_model(tmp_path, text),
            f"--window={window}",
            "--override-gate",
            "--method",
            method,
        )
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        # the iteration stops at the first non-finite update norm rather
        # than running out its iteration limit
        iterations = re.search(r"after (\d+) iterations\)$", proc.stderr.strip())
        assert int(iterations.group(1)) <= 1

    def test_budget_is_exit_three(self):
        proc = run_cli("solve", "--model", model("chain_gated"), "--window=0:24")
        assert proc.returncode == 3

    def test_missing_window_is_exit_two(self):
        proc = run_cli("solve", "--model", model("chain_gated"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    def test_malformed_exact_table_is_exit_two(self, tmp_path, capsys, name):
        text, line = MALFORMED_TABLES[name]
        table = tmp_path / "bad.csv"
        table.write_text(text, encoding="utf-8")
        argv = ["solve", "--model", model("chain_gated"), "--window=0:1"]
        assert cli.main([*argv, "--exact", str(table)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ") and f"line {line}:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_non_finite_value_is_exit_two_in_either_order(
        self, tmp_path, capsys, value, first
    ):
        # a NaN entry used to print max_deviation_vs_exact = nan when it
        # came first and a finite deviation when it came last, both exit 0
        rows = [f"0,1,{value}", "1,1,0.5"]
        if not first:
            rows.reverse()
        table = tmp_path / "table.csv"
        table.write_text("support,spins,value\n" + "\n".join(rows) + "\n")
        argv = ["solve", "--model", model("chain_gated"), "--window=0:1"]
        assert cli.main([*argv, "--exact", str(table)]) == 2
        _, err = capsys.readouterr()
        line = 2 if first else 3
        assert f"line {line}:" in err and "not finite" in err

    # tables the comparison cannot use: before, each printed
    # max_deviation_vs_exact = 0.0 and exited 0
    UNMATCHED_TABLES = {
        "two-dimensional": ("0 0,1,0.9\n0 1,1,0.9\n", "not 1-dimensional"),
        "mixed-dimension": ("0,1,0.3\n0 1,1,0.9\n", "not 1-dimensional"),
        "empty-entry-only": (",,1.0\n", "no nonempty entry"),
        "outside-the-window": ("5,1,0.2\n", "no nonempty entry"),
    }

    @pytest.mark.parametrize("name", sorted(UNMATCHED_TABLES))
    def test_unmatched_exact_table_is_exit_two(self, tmp_path, capsys, name):
        rows, message = self.UNMATCHED_TABLES[name]
        table = tmp_path / "table.csv"
        table.write_text("support,spins,value\n" + rows, encoding="utf-8")
        argv = ["solve", "--model", model("chain_gated"), "--window=0:1"]
        assert cli.main([*argv, "--exact", str(table)]) == 2
        out, err = capsys.readouterr()
        assert "max_deviation_vs_exact" not in out
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_one_matching_entry_is_compared(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("support,spins,value\n5,1,0.9\n1,1,0.5\n", encoding="utf-8")
        argv = ["solve", "--model", model("chain_gated"), "--window=0:1"]
        assert cli.main([*argv, "--exact", str(table)]) == 0
        out, _ = capsys.readouterr()
        line = next(l for l in out.splitlines() if l.startswith("max_deviation"))
        assert 0.0 < float(line.split(" = ")[1]) < 0.5


class TestConvergeCommand:
    def test_series_with_probe_file(self, tmp_path):
        out = tmp_path / "series.csv"
        proc = run_cli(
            "converge",
            "--model",
            model("chain_gated"),
            "--window=-1:1;-2:2;-3:3",
            "--probes",
            str(MODELS / "probes_center.txt"),
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8").splitlines()
        assert "# epsilon_source = certified" in text
        header = "window_size,d,max_abs_deviation,epsilon_bound,iterations,residual"
        rows = text[text.index(header) + 1 :]
        assert len(rows) == 2

    def test_non_integer_probe_coordinate_is_exit_two(self, tmp_path, capsys):
        probes = tmp_path / "probes.txt"
        probes.write_text("x,1\n", encoding="utf-8")
        argv = ["converge", "--model", model("chain_gated"), "--window=-1:1;-2:2"]
        assert cli.main([*argv, "--probes", str(probes)]) == 2
        _, err = capsys.readouterr()
        assert err.strip().splitlines() == [
            f"error: {probes} line 1: cannot read 'x,1' "
            "(invalid literal for int() with base 10: 'x')"
        ]

    @pytest.mark.parametrize("name", sorted(MALFORMED_PROBES))
    def test_malformed_probe_is_exit_two(self, tmp_path, capsys, name):
        # each line used to run with exit 0 or fail without naming its line
        probes = tmp_path / "probes.txt"
        probes.write_text(MALFORMED_PROBES[name], encoding="utf-8")
        argv = ["converge", "--model", model("chain_gated"), "--window=-1:1;-2:2"]
        assert cli.main([*argv, "--probes", str(probes)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {probes} line 3: ")
        assert len(err.splitlines()) == 1

    def test_needs_two_windows(self):
        proc = run_cli(
            "converge", "--model", model("chain_gated"), "--window=-1:1"
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: need at least two windows (the last is the reference)\n"

    def test_over_budget_window_is_refused_before_the_reference(self, monkeypatch, capsys):
        # the 21x21 reference's pass would hold a row and a site, 2**22
        # states: it is refused before its first energy, and so before any
        # window is solved (no smaller window holds more states)
        def work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr("spincorr.solver.solve_finite_volume", work)
        monkeypatch.setattr("spincorr.exact._TransitionTable.energy", work)
        argv = ["converge", "--model", model("grid_gated"), "--window=-1,-1:1,1;-10,-10:10,10"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "budget exceeded: partition function needs 4194304 states, budget is 1048576\n"
        )

    def test_two_dimensional_reference_is_enumerated(self, capsys):
        # 2**49 configurations, but the pass holds at most 2**8 states
        argv = ["converge", "--model", model("grid_gated"), "--window=-2,-2:2,2;-3,-3:3,3"]
        assert cli.main(argv) == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[:2] == ["reference_size = 49", "reference_method = enumeration"]

    def test_epsilon_unavailable_without_a_contraction_rate(self, capsys):
        # the gate fails and the 11-site window is enumerated, so no rate
        # below 1 is measured and no epsilon is printed (the deviation was
        # re-recorded, 2.2e-16 higher, when every probe Z came from the
        # summed pass)
        argv = ["converge", "--model", model("strong"), "--window=0:10;0:12"]
        assert cli.main([*argv, "--override-gate"]) == 0
        out, _ = capsys.readouterr()
        assert out.splitlines() == [
            "reference_size = 13",
            "reference_method = enumeration",
            "epsilon_source = unavailable",
            "window_size,d,max_abs_deviation,epsilon_bound,iterations,residual",
            "11,6,0.0005129384808068016,,0,0.0",
        ]


class TestBoundsCommand:
    def test_gated_model_passes(self):
        proc = run_cli("bounds", "--model", model("chain_gated"))
        assert proc.returncode == 0, proc.stderr
        assert "gate = pass" in proc.stdout
        assert "remark1" in proc.stdout

    def test_strong_model_fails_gate_but_exits_zero(self):
        proc = run_cli("bounds", "--model", model("chain_j02"))
        assert proc.returncode == 0, proc.stderr
        assert "gate = FAIL" in proc.stdout

    def test_undecodable_input_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.model"
        path.write_bytes(b"dimension = 1\n# \xff\n")
        assert cli.main(["bounds", "--model", str(path)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ") and "utf-8" in err

    def test_pair_norm_beyond_the_scan_budget(self, tmp_path, capsys, monkeypatch):
        # a 2-d range-2 ball holds 24 boundary sites: 3**24 patterns are
        # beyond NORM_SCAN_BUDGET, and a pair field's norm comes from the
        # pair bound without a scan
        from spincorr.fields import NORM_SCAN_BUDGET, PairField

        assert 3**24 > NORM_SCAN_BUDGET
        calls = []
        exact_norm = PairField.norm_bound_exact

        def counting(self):
            calls.append(self)
            return exact_norm(self)

        monkeypatch.setattr(PairField, "norm_bound_exact", counting)
        path = tmp_path / "range2.model"
        path.write_text(
            "dimension = 2\nspins = 0 1 2\nvacuum = 0\nrange = 2\n"
            "coupling (1,0) 1 1 = 0.01\ncoupling (0,2) 1 2 = -0.005\n"
            "coupling (2,1) 2 2 = 0.003\n"
        )
        assert cli.main(["bounds", "--model", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert calls and "norm_delta1 = 0.025" in out and "gate = pass" in out

    def test_non_vacuum_potential_prints_the_gate(self, tmp_path, capsys):
        # Remark 1 needs a vacuum potential; the gate constants do not
        path = write_model(
            tmp_path,
            huge_chain("0.04") + "coupling (1) 0 1 = 0.03\nvacuum_potential = false\n",
        )
        assert cli.main(["bounds", "--model", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "norm_delta1 = 0.05\n" in out and "gate = pass\n" in out
        for key in ("pair_norm", "remark1_lhs", "remark1"):
            assert f"\n{key} = unavailable\n" in out

    @pytest.mark.parametrize("coupling", ["800", "1e300"])
    def test_huge_coupling_saturates(self, tmp_path, coupling):
        path = write_model(tmp_path, huge_chain(coupling))
        proc = run_cli("bounds", "--model", path)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "contraction_lhs = inf" in proc.stdout
        assert "gate = FAIL" in proc.stdout
        assert "remark1 = FAIL" in proc.stdout


def range_model(offset: int, coupling: int, onebody: int) -> str:
    return (
        "dimension = 1\n"
        "spins = 0 1\n"
        "vacuum = 0\n"
        f"range = {offset}\n"
        f"coupling ({offset}) 1 1 = {coupling}\n"
        f"onebody 1 = {onebody}\n"
    )


class TestExponentRange:
    COMMANDS = {
        "exact": ["exact", "--window=0:1"],
        "converge": ["converge", "--window=0:2;0:3", "--override-gate"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("onebody", [300, -300])
    @pytest.mark.parametrize("coupling", [800, -800])
    @pytest.mark.parametrize("offset", [1, 2])
    def test_ends_in_a_documented_exit_code(
        self, tmp_path, capsys, offset, coupling, onebody, command
    ):
        path = write_model(tmp_path, range_model(offset, coupling, onebody))
        code = cli.main([*self.COMMANDS[command], "--model", path])
        assert isinstance(code, int) and 0 <= code <= 5

    def test_oracle_kernel_overflow_is_exit_two(self, tmp_path, capsys):
        # the table enumerates, but the oracle's kernel factor is exp(800)
        path = write_model(tmp_path, range_model(1, -800, 300))
        assert cli.main([*self.COMMANDS["exact"], "--model", path]) == 2
        _, err = capsys.readouterr()
        assert err.strip().splitlines() == [
            "error: kernel exponent 800.0 exceeds the safe exponent range "
            "(+/-700.0); rescale the couplings"
        ]

    def test_underflowing_weights_are_zero(self, tmp_path, capsys):
        # J = 120 weighs every adjacent occupied pair e**-120 or less, and
        # the fully occupied window's e**-840 underflows: Z is the hard-core
        # count of the 8-site chain, F(10), and the oracle passes
        text = "dimension = 1\nspins = 0 1\nvacuum = 0\nrange = 1\ncoupling (1) 1 1 = 120.0\n"
        path = write_model(tmp_path, text)
        assert cli.main(["exact", "--window=0:7", "--model", path]) == 0
        out, _ = capsys.readouterr()
        assert "partition_value = 55.0" in out.splitlines()
        assert out.strip().splitlines()[-1].endswith("[pass]")

    def test_infinite_volume_energy_is_exit_two(self, tmp_path, capsys):
        # swap energies of -2 * -1.7e308 = inf: the summed pass ends with a
        # log weight sum that is not finite, refused rather than printed as
        # a nan deviation
        text = "dimension = 1\nspins = 0 1\nvacuum = 0\nrange = 1\n"
        text += "coupling (1) 1 1 = -1.7e308\nonebody 1 = -1.7e308\n"
        path = write_model(tmp_path, text)
        argv = ["converge", "--window=0:10;0:12", "--override-gate", "--model", path]
        assert cli.main(argv) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: the window's log weight sum is ")

    def test_overflowing_weight_sum_is_exit_two(self, tmp_path, capsys):
        # every weight is e**700, inside the exponent range, but the sum of
        # the 8**5 of them is beyond the float range
        text = "dimension = 1\nspins = 0 a b c d e f g h\nvacuum = 0\nrange = 1\n"
        text += "".join(f"onebody {b} = -140\n" for b in "abcdefgh")
        path = write_model(tmp_path, text)
        assert cli.main(["exact", "--window=0:4", "--model", path]) == 2
        _, err = capsys.readouterr()
        assert err.strip().splitlines() == [
            "error: the window's weight sum overflows the float range; "
            "rescale the couplings"
        ]

    def test_tail_bound_overflow_falls_back_to_the_trivial_bound(
        self, tmp_path, capsys
    ):
        path = write_model(tmp_path, range_model(2, 800, -300))
        assert cli.main([*self.COMMANDS["converge"], "--model", path]) == 0
        out, _ = capsys.readouterr()
        size, depth, deviation, epsilon = out.strip().splitlines()[-1].split(",")[:4]
        assert (size, depth) == ("3", "2")
        assert float(epsilon) == 2.0  # 2 / (1 - k) with k ~ 0, times delta_norm 1
        assert float(deviation) <= float(epsilon)


class TestCommonFlags:
    COMMANDS = {
        "verify": ["verify", "--instances", "5"],
        "exact": ["exact", "--window=0:1"],
        "solve": ["solve", "--window=0:1"],
        "converge": ["converge", "--window=0:0;0:1"],
        "bounds": ["bounds"],
    }

    @pytest.mark.parametrize(
        "flag",
        ["--tol=0", "--tol=-1", "--tol=nan", "--tol=inf", "--threads=0", "--threads=-3"],
    )
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_of_domain_is_exit_two(self, capsys, command, flag):
        argv = [*self.COMMANDS[command], "--model", model("chain_gated"), flag]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag.partition("=")[0] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--window=0:5", "--tol", "1e-6"],
            ["solve", "--window=0:5", "--tol", "1e-8"],
            ["converge", "--window=0:2;-1:3", "--tol", "1e-6"],
        ],
        ids=["solve-1e-6", "solve-1e-8", "converge-1e-6"],
    )
    def test_a_loose_tol_bounds_the_residual(self, capsys, argv):
        # stopping at --tol leaves a residual near it, which used to fail
        # the fixed 1e-10 bound with exit 5
        assert cli.main([*argv, "--model", model("chain_gated")]) == 0


@pytest.mark.parametrize(
    "argv", [["solve", "--window=0:3"], ["converge", "--window=0:2;0:4"]],
    ids=["solve", "converge"],
)
def test_environment_failure_is_exit_one(monkeypatch, capsys, argv):
    # a three-body term passes the gate at strength 0.02 but breaks the
    # boundary-replacement identity that the solver needs
    from dataclasses import replace

    from spincorr.fields import TripleInteractionField
    from spincorr.modelfile import load_model

    base = load_model(model("chain_gated"))
    broken = replace(base, field=TripleInteractionField(base.field, 0.02))
    monkeypatch.setattr(cli, "load_model", lambda path: broken)
    assert cli.main([*argv, "--model", model("chain_gated")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("identity failure: ")
    assert lines[1].startswith("witness: ") and "(residual " in lines[1]


class TestInputErrors:
    def test_missing_model_file(self):
        proc = run_cli("exact", "--model", "no_such.model", "--window=0:1")
        assert proc.returncode == 2

    def test_malformed_window(self):
        proc = run_cli(
            "exact", "--model", model("chain_gated"), "--window", "abc"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv", [["bounds"], ["solve", "--window=0:3"]], ids=["bounds", "solve"]
    )
    def test_inhomogeneous_field_is_exit_two(self, capsys, argv):
        assert cli.main([*argv, "--model", model("perturbed")]) == 2
        _, err = capsys.readouterr()
        assert "need a translation-invariant field" in err

    @pytest.mark.parametrize("amount", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [["exact", "--window=0:2"], ["verify"]])
    def test_non_finite_perturbation_is_exit_two(self, tmp_path, capsys, argv, amount):
        text = huge_chain("0.1") + f"perturb (0) 1 0 = {amount}\n"
        path = write_model(tmp_path, text)
        assert cli.main([*argv, "--model", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 6, column 1: the perturbation amount must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--model", model("chain_gated"), "--window=0:99999999999"],
            ["solve", "--model", model("grid_gated"), "--window=0,0:99999,99999"],
            [
                "verify",
                "--model",
                model("chain_gated"),
                "--exhaustive",
                "--window=0:99999999999",
            ],
        ],
        ids=["exact", "solve-2d", "verify-exhaustive"],
    )
    def test_huge_window_is_exit_three_before_the_box(self, capsys, monkeypatch, argv):
        # the box used to be built first: a MemoryError traceback, exit 1
        def box(lo, hi):
            raise AssertionError("the box was built")

        monkeypatch.setattr(cli, "box", box)
        assert cli.main(argv) == 3
        _, err = capsys.readouterr()
        assert err.startswith("budget exceeded: window ") and "limit is 1048576" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["exact", "--window=0:24"],
                "correlation table needs 33554432 configurations, budget is 16777216",
            ),
            (
                ["exact", "--window=0:15"],
                "two-route correlation table needs 43046721 enumeration steps, "
                "budget is 16777216",
            ),
            (
                ["solve", "--window=0:25", "--override-gate"],
                "operator domain needs 67108863 unknowns, limit is 1048576",
            ),
        ],
        ids=["exact-table", "exact-two-route", "solve-domain"],
    )
    def test_budget_refusal_message(self, capsys, argv, message):
        assert cli.main([*argv, "--model", model("chain_gated")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"budget exceeded: {message}\n"

    def test_window_corner_beyond_the_coordinate_guard_is_exit_two(self, capsys):
        argv = ["exact", "--model", model("chain_gated")]
        assert cli.main([*argv, "--window=-3000000000:-2999999999"]) == 2
        _, err = capsys.readouterr()
        assert err == "error: site coordinate out of range: (-3000000000,)\n"

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"


def loaded_after(code: str, modules=("numpy", "scipy")) -> str:
    """Run code in a fresh interpreter; the last stdout line lists which of
    `modules` it left in sys.modules."""
    code += f"\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestImportCost:
    """numpy loads only when a solve runs, scipy only on the direct route,
    and the solver module only for the commands that run it."""

    def test_cli_import_loads_neither(self):
        assert loaded_after("import spincorr.cli") == "[]"

    @pytest.mark.parametrize(
        "method,loaded",
        [("iterative", "['numpy']"), ("direct", "['numpy', 'scipy']")],
    )
    def test_solve_loads_only_what_its_route_needs(self, method, loaded):
        argv = ["solve", "--model", model("chain_gated"), "--window=0:3"]
        code = (
            "from spincorr import cli\n"
            f"assert cli.main({argv + ['--method', method]!r}) == 0"
        )
        assert loaded_after(code) == loaded

    def test_solver_import_loads_neither(self):
        # the benchmark's workers import the solver before they read their
        # peak RSS; numpy alone would add about 10 MB to it
        assert loaded_after("import spincorr.solver") == "[]"

    @pytest.mark.parametrize(
        "argv", [["exact", "--window=0:11"], ["verify"], ["bounds"]], ids=["exact", "verify", "bounds"]
    )
    def test_enumeration_and_check_jobs_load_neither(self, argv):
        # the benchmark's exact job peaks at about 24 MB of RSS; numpy alone
        # would add about 10 MB to it
        argv = [*argv, "--model", model("chain_gated")]
        code = f"from spincorr import cli\nassert cli.main({argv!r}) == 0"
        assert loaded_after(code) == "[]"

    def test_partition_function_and_probes_load_neither(self):
        # the pass that sums sites out is plain Python, so a converge
        # reference costs no numpy
        code = (
            "from spincorr import Configuration, box, load_model, partition_function, rho_probe\n"
            f"field = load_model({model('grid_gated')!r}).field\n"
            "window = box((0, 0), (4, 4))\n"
            "assert partition_function(field, window) > 1.0\n"
            "probe = Configuration((((2, 2), 1),))\n"
            "assert 0.0 < rho_probe(field, window, [probe])[probe] < 1.0\n"
        )
        assert loaded_after(code) == "[]"

    def test_exact_does_not_load_the_solver(self):
        argv = ["exact", "--model", model("chain_gated"), "--window=0:3"]
        code = f"from spincorr import cli\nassert cli.main({argv!r}) == 0"
        assert loaded_after(code, ("spincorr.solver",)) == "[]"


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_solve_output_is_byte_identical(self, tmp_path, threads):
        out = tmp_path / f"t{threads}.csv"
        proc = run_cli(
            "solve",
            "--model",
            model("chain_gated"),
            "--window=0:4",
            "--threads",
            threads,
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        reference = tmp_path / "ref.csv"
        ref_proc = run_cli(
            "solve",
            "--model",
            model("chain_gated"),
            "--window=0:4",
            "--threads",
            "1",
            "--out",
            str(reference),
        )
        assert ref_proc.returncode == 0
        assert out.read_bytes() == reference.read_bytes()
        assert proc.stdout == ref_proc.stdout


# sha256 of (stdout, --out) recorded before the enumeration walker read its
# steps from per-call move lists; enumeration speed-ups must keep them.  The
# `exact` digests of chain_gated, chain_j02, chain_ln2, perturbed and
# chain_q3_mid were re-recorded when the table took its weights from the
# telescoped pass alone (entries moved by at most 1.7e-16, Z by at most
# 5.6e-16 relative)
TABLE_DIGESTS = {
    ("chain_gated", "exact"): (
        "226b09d8838c29143ab1d6786405905011a8488c00408ecaae4ea3bfe50f0e15",
        "dc6d931a6f5599e83df514894b1cf2e53b5a577d53d9d09a60d91ddc72a8d2e6",
    ),
    ("chain_j02", "exact"): (
        "3a5f694893018fd46925f043d34eb830cc796641428fc723cd10268de44ec721",
        "562f2b772c067de76495c4f6ee069f9c86fe74545e2e7e7716f66ea77cb98317",
    ),
    ("chain_ln2", "exact"): (
        "2d64cbeba8cb82cc05a73e223cbd334efb8eabce421d47fb8def57f0208925e3",
        "ad92e99169f579a1e9e1ea74f3ef34b20abbaca14dc3ffa127ace935f150e41e",
    ),
    ("grid_gated", "exact"): (
        "2c4559e16edecbca66a48f9c0ea3da7dcd764e8b4ce659b1ce79de33e5bda252",
        "cbeed1cd1c646b1f7269fbc243acc4a10cfe90d063f88352f0b4411b03e77a1e",
    ),
    ("perturbed", "exact"): (
        "5c3c70c535c9509d651213a00cac0e8c13bb6050952ebc96b4aa47ef5a72ac2b",
        "37b30e8acab6f3df65a01e8b6631b4430dd655d2978a01c6e0b051f6efc45a93",
    ),
    ("strong", "exact"): (
        "6fdce06ba5ccd8c45ea64803aa808a2288f50e0a15a2ef827cdf00b7055bf3bc",
        "c15c61d610c3651066c11d92a96a7b75eb1d5ca449fea0f4c9bee8b67fccf55d",
    ),
    ("zero_field", "exact"): (
        "0be1548f4908b71d3ca3454c5f8898ca8c0135e90ba3580ca8a7e7e7b9613050",
        "3fc2273ea909fce0a4f107a5d255b006e7e3a0b6aa389baf5e8ef391b02e91f3",
    ),
    # re-recorded when the reference's Z came from the summed pass: the
    # 5-site window's deviation moved by 2.2e-16, every other printed value
    # kept its bytes
    ("chain_gated", "converge"): (
        "954f79bdf5a617d395b850b81d9e9da9f17266cb6ce348f67aa83ee1c45ddfe7",
        "689e25722cbdc82ba7c727141dd7e58014f0e269df86d54e7917033b43d1e5d6",
    ),
    # q = 3 with a mid-alphabet vacuum: the table's (size, items) row order
    # differs from the enumeration's code order (recorded before the table
    # held its values by code)
    ("chain_q3_mid", "exact"): (
        "763fc135d4a86960adde29eaf13682d89b51f1019fd1d2bc1235b7c6cb67ad3b",
        "36f982a817fc5b936d7de65a3512cb26af74b657c40186702516d5e1c5df6f0d",
    ),
}
# windows other than the default of test_outputs_keep_their_bytes
TABLE_WINDOWS = {("chain_q3_mid", "exact"): "0:5"}


def output_digests(tmp_path, *argv) -> tuple:
    """sha256 of the stdout and of the --out file of a run that exits 0."""
    out = tmp_path / "out.csv"
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return (
        hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest(),
        hashlib.sha256(out.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("name, command", sorted(TABLE_DIGESTS))
def test_outputs_keep_their_bytes(tmp_path, name, command):
    path = MODELS / f"{name}.model"
    if (name, command) in TABLE_WINDOWS:
        window = TABLE_WINDOWS[name, command]
    elif command == "converge":
        window = "0:4;0:8"
    elif "dimension = 2" in path.read_text(encoding="utf-8"):
        window = "0,0:2,2"
    else:
        window = "0:7"
    argv = [command, "--model", str(path), f"--window={window}"]
    digests = output_digests(tmp_path, *argv)
    assert digests == TABLE_DIGESTS[name, command]


# grid_gated couples only its 4 axis neighbours, so declaring range = 2
# widens the bound alone: every output keeps its bytes but the model digest
RANGE_TWO_RUNS = {
    "exact": ["exact", "--window=0,0:2,2"],
    "solve-both": ["solve", "--window=0,0:1,2", "--method", "both"],
    "solve-kmax2": ["solve", "--window=-1,-1:2,2", "--kmax", "2"],
    "converge": ["converge", "--window=0,0:1,1;0,0:2,2"],
    "bounds": ["bounds"],
}


@pytest.mark.parametrize("name", sorted(RANGE_TWO_RUNS))
def test_declared_range_past_the_couplings_keeps_the_outputs(tmp_path, capsys, name):
    wide = tmp_path / "wide.model"
    text = (MODELS / "grid_gated.model").read_text(encoding="utf-8")
    wide.write_text(text.replace("range = 1", "range = 2"), encoding="utf-8")
    outputs = []
    for path in (model("grid_gated"), str(wide)):
        out = tmp_path / f"{len(outputs)}.csv"
        assert cli.main([*RANGE_TWO_RUNS[name], "--model", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        outputs.append(
            [l for l in (stdout + out.read_text()).splitlines() if "model_digest" not in l]
        )
    assert outputs[0] == outputs[1]


def test_two_block_table_keeps_its_bytes(tmp_path):
    # the benchmark's exact job: its Z check walks 2**12 positions in two
    # blocks of 2**11, the second restarting mid-sequence and walking
    # backward; re-recorded when the table took its weights from the
    # telescoped pass alone (entries moved by at most 5.6e-17, Z by 2.2e-16)
    argv = ["exact", "--model", model("chain_gated"), "--window=0:11"]
    digests = output_digests(tmp_path, *argv)
    assert digests == (
        "ce939917c312629df74ccdb91cfa79a60a8d8b7d961d2917d5386e1fe78c5e24",
        "a4933286e3275e1b9894c768d388e6164d8000ff8c888d32fea7dd3a99800bd1",
    )


# sha256 of (stdout, --out) of solve runs, recorded before materialize read
# its rows as offset keys: the benchmark's 4095-unknown direct job, a
# window iteration with dropped mass (truncation_tail 0.9945...) and a 2-d one
SOLVE_DIGESTS = {
    ("chain_gated", "--window=0:11", "--method", "both"): (
        "473cd49845066eabe5f3df6bf60f37c961bcef77d876ba1ff07da24baaddaa8c",
        "1af11ca35ccef3db1d7b61fd8604dd55f440166bf9e45450bdb70f4aaf1ba545",
    ),
    ("chain_gated", "--window=-6:6", "--kmax", "3"): (
        "982e866ba86cbb79a5c3f36b269f9191c7cb61b6c868a1bfd1fcccfe6f6d236c",
        "0be0cabc5e69e2214614aaab49a10b76ead21ed7acb5a387e8d611ead8c794c3",
    ),
    ("grid_gated", "--window=0,0:2,2", "--kmax", "2"): (
        "c975463c789090f4bb78a0825c2d99430b9cfb81584789850552e240aeff762a",
        "ac4afb1ad78c41832c4c67fc78e6654cacd2463653be4b22ed088932d9f49bcd",
    ),
    # q = 3 with a mid-alphabet vacuum, where the solver's support-grouped
    # unknowns and the table's (size, items) rows come in different orders:
    # a full direct and iterative solve, and a window iteration that drops
    # rows (truncation_tail 3.916...); recorded before the solve path kept
    # its unknowns as integer codes
    ("chain_q3_mid", "--window=0:5", "--method", "both"): (
        "a2acea9a783ae56aca8af17ee985d26b02af48c804d74fe21db80e2930aecc44",
        "f815f3d4daa938bd6a81273cdcd7f5191fa884fd7f440cc09db39ea1916bbfbe",
    ),
    ("chain_q3_mid", "--window=-3:3", "--kmax", "2"): (
        "0fb8fbd67c0ec9b2b31673e68262d0fe136fcfdee6aae134f8f032080decd8b2",
        "0f5e1739b478a8fae3bb58f79a271102905bfea3f14deaca2dc91497855e5a46",
    ),
}


@pytest.mark.parametrize("key", sorted(SOLVE_DIGESTS))
def test_solve_outputs_keep_their_bytes(tmp_path, key):
    name, *args = key
    digests = output_digests(tmp_path, "solve", "--model", model(name), *args)
    assert digests == SOLVE_DIGESTS[key]
