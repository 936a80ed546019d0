import math

import pytest

from spincorr import ModelFileError, load_model, model_digest, parse_model
from spincorr.fields import PerturbedField

BASE = """
dimension = 1
spins = 0 1
vacuum = 0
range = 1
coupling (1) 1 1 = 0.2
"""


def ranged_model(dimension: int, radius: int) -> str:
    return f"dimension = {dimension}\nspins = 0 1\nvacuum = 0\nrange = {radius}\n"


class TestParse:
    def test_roundtrip(self):
        m = parse_model(BASE)
        assert m.dimension == 1
        assert m.spins.symbols == ("0", "1")
        assert m.spins.vacuum_index == 0
        assert m.potential.phi((1,), 1, 1) == 0.2
        assert m.potential.phi((-1,), 1, 1) == 0.2
        assert m.field.radius == 1

    def test_three_spins_and_onebody(self):
        m = parse_model(
            """
            dimension = 1
            spins = e u d
            vacuum = e
            range = 1
            coupling (1) u d = -0.1
            onebody u = 0.3
            """
        )
        assert m.spins.n_x == 2
        assert m.one_body[m.spins.index_of("u")] == 0.3
        assert m.potential.phi((1,), 1, 2) == -0.1

    def test_nonzero_vacuum_position(self):
        m = parse_model(
            """
            dimension = 1
            spins = a vac
            vacuum = vac
            range = 0
            """
        )
        assert m.spins.vacuum_index == 1
        assert m.spins.star_indices == (0,)

    def test_comments_and_blank_lines(self):
        m = parse_model("# header\n\n" + BASE + "\n# trailing\n")
        assert m.dimension == 1

    def test_perturb_wires_diagnostic_field(self):
        m = parse_model(BASE + "perturb (0) 1 0 = 0.1\n")
        assert isinstance(m.field, PerturbedField)

    def test_model_files_on_disk(self):
        import pathlib

        for name in (
            "zero_field",
            "chain_ln2",
            "chain_gated",
            "chain_j02",
            "grid_gated",
            "strong",
            "perturbed",
        ):
            path = pathlib.Path(__file__).parent.parent / "models" / f"{name}.model"
            m = load_model(str(path))
            assert m.digest

    def test_ln2_value(self):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "models" / "chain_ln2.model"
        m = load_model(str(path))
        assert m.potential.phi((1,), 1, 1) == pytest.approx(math.log(2.0), abs=1e-15)


class TestDigest:
    def test_stable_under_formatting(self):
        a = model_digest(BASE)
        b = model_digest("# comment\n" + BASE.replace(" = ", "   =  "))
        assert a == b

    def test_changes_with_content(self):
        assert model_digest(BASE) != model_digest(BASE.replace("0.2", "0.3"))

    def test_length(self):
        assert len(model_digest(BASE)) == 16


class TestErrors:
    def expect(self, text: str, fragment: str, line: int | None = None):
        with pytest.raises(ModelFileError) as err:
            parse_model(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_missing_required(self):
        self.expect("dimension = 1\nspins = 0 1\n", "vacuum")

    def test_duplicate_scalar(self):
        self.expect(BASE + "dimension = 1\n", "duplicate")

    def test_unknown_key(self):
        self.expect(BASE + "flavor = odd\n", "flavor")

    def test_dimension_range(self):
        self.expect(BASE.replace("dimension = 1", "dimension = 9"), "dimension")

    def test_bad_offset_dimension(self):
        self.expect(BASE + "coupling (1,1) 1 1 = 0.1\n", "dimension")

    def test_conflicting_couplings(self):
        self.expect(BASE + "coupling (-1) 1 1 = 0.7\n", "inconsistent")

    def test_vacuum_coupling(self):
        self.expect(BASE + "coupling (1) 0 1 = 0.1\n", "vacuum")

    def test_unknown_spin_label(self):
        self.expect(BASE + "coupling (1) 1 9 = 0.1\n", "9")

    def test_inhomogeneous_rejected(self):
        self.expect(
            BASE + "homogeneous = false\n", "translation invariant"
        )

    def test_label_with_delimiter_rejected(self):
        self.expect(BASE.replace("spins = 0 1", "spins = 0 a,b"), "','")
        self.expect(BASE.replace("spins = 0 1", "spins = 0 a;b"), "';'")

    def test_missing_key(self):
        self.expect("= 0\n" + BASE, "missing key", line=1)

    @pytest.mark.parametrize("dimension,radius", [(4, 3), (4, 30), (2, 14), (1, 365)])
    def test_range_beyond_ball_limit(self, dimension, radius):
        self.expect(ranged_model(dimension, radius), "the limit is 729", line=4)

    @pytest.mark.parametrize("dimension,radius", [(4, 2), (3, 4), (2, 13), (1, 364)])
    def test_range_at_ball_limit(self, dimension, radius):
        assert parse_model(ranged_model(dimension, radius)).field.radius == radius

    def test_line_numbers_reported(self):
        self.expect("dimension = 1\njunk\n", "key = value", line=2)

    def test_bad_number(self):
        self.expect(BASE + "coupling (1) 1 1 = abc\n", "number")

    def test_vacuum_not_among_spins(self):
        self.expect(BASE.replace("vacuum = 0", "vacuum = z"), "z")

    def test_later_coupling_reports_its_own_line(self):
        text = BASE.replace("0.2", "0.1") + "\ncoupling (2) 1 1 = 0.1\n"
        self.expect(text, "exceeds the declared radius", line=8)

    def test_mirrored_conflict_reports_the_later_line(self):
        self.expect(BASE + "\ncoupling (-1) 1 1 = 0.7\n", "inconsistent", line=8)

    def test_later_onebody_reports_its_own_line(self):
        text = BASE + "onebody 1 = 0.0\nonebody 0 = 5.0\n"
        self.expect(text, "zero one-body energy", line=8)

    def test_conflicting_onebody(self):
        self.expect(BASE + "onebody 1 = 0.0\nonebody 1 = 5.0\n", "onebody 1", line=8)

    def test_repeated_equal_onebody_is_accepted(self):
        model = parse_model(BASE + "onebody 1 = 0.5\nonebody 1 = 0.5\n")
        assert model.one_body == (0.0, 0.5)

    @pytest.mark.parametrize("amount", ["nan", "inf", "-inf"])
    def test_non_finite_perturb_reports_its_line(self, amount):
        text = BASE + f"perturb (0) 1 0 = 0.1\nperturb (0) 1 0 = {amount}\n"
        self.expect(text, "perturbation amount must be finite", line=8)

    def test_negative_range_reports_the_range_line(self):
        self.expect(BASE.replace("range = 1", "range = -1"), "range", line=5)
