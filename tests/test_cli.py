import math
import pathlib
import subprocess
import sys

import pytest

from spincorr import SpinSpace, cli, read_table

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

    def test_budget_is_exit_three(self):
        proc = run_cli("solve", "--model", model("chain_gated"), "--window=0:24")
        assert proc.returncode == 3

    def test_missing_window_is_exit_two(self):
        proc = run_cli("solve", "--model", model("chain_gated"))
        assert proc.returncode == 2


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

    def test_needs_two_windows(self):
        proc = run_cli(
            "converge", "--model", model("chain_gated"), "--window=-1:1"
        )
        assert proc.returncode == 2


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

    @pytest.mark.parametrize("coupling", ["800", "1e300"])
    def test_huge_coupling_saturates(self, tmp_path, coupling):
        path = write_model(tmp_path, huge_chain(coupling))
        proc = run_cli("bounds", "--model", path)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "contraction_lhs = inf" in proc.stdout
        assert "gate = FAIL" in proc.stdout
        assert "remark1 = FAIL" in proc.stdout


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

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"


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
