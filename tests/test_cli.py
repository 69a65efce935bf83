import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sintdyn
from sintdyn import SCHEMA_VERSION, __version__
from sintdyn.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCountCommand:
    def test_spec_example_exact_bytes(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--p", "2", "--system", "full", "--n", "10")
        assert status == 0
        assert out == '{"n":10,"e":10,"count":"1024"}\n'

    def test_trivial(self, capsys):
        status, out, _ = run_cli(capsys, "count", "--p", "5", "--system", "trivial", "--n", "9")
        assert json.loads(out) == {"n": 9, "e": 0, "count": "1"}

    def test_explicit_place(self, capsys):
        status, out, _ = run_cli(
            capsys, "count", "--p", "2", "--system", "explicit", "--place", "t+1", "--n", "6"
        )
        assert status == 0
        assert json.loads(out) == {"n": 6, "e": 4, "count": "16"}

    def test_place_as_coefficients(self, capsys):
        status, out, _ = run_cli(
            capsys, "count", "--p", "2", "--system", "explicit", "--place", "1,1", "--n", "6"
        )
        assert json.loads(out)["count"] == "16"

    def test_big_count_is_decimal_string(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--p", "3", "--system", "full", "--n", "200")
        assert json.loads(out)["count"] == str(3**200)


def _parse_decimal(text: str) -> int:
    # int(text) meets the same digit limit as str(); parse in short pieces
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i : i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.fixture
def default_digit_limit():
    # pin CPython's default int->str limit and check it is left as it was
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(previous)
    assert limit == 4300


@pytest.mark.usefixtures("default_digit_limit")
class TestAboveDigitLimit:
    @pytest.mark.parametrize(
        "fmt, last_field",
        (
            ("json", lambda out: json.loads(out)["count"]),
            ("csv", lambda out: out.strip().rsplit(",", 1)[1]),
            ("text", lambda out: out.strip().rsplit(" = ", 1)[1]),
        ),
    )
    def test_count(self, capsys, fmt, last_field):
        status, out, err = run_cli(
            capsys, "count", "--p", "2", "--system", "full", "--n", "20000", "--format", fmt
        )
        assert status == 0, err
        digits = last_field(out)
        assert len(digits) == 6021
        assert _parse_decimal(digits) == 2**20000

    def test_zeta_coefficients_and_orbits(self, capsys):
        p = 2147483647
        status, out, err = run_cli(
            capsys, "zeta", "--p", str(p), "--system", "full", "--terms", "470", "--orbits"
        )
        assert status == 0, err
        doc = json.loads(out)
        # full shift: a_m = p**m, and 470 * O_470 = sum over d | 470 of mu(470/d) p**d
        assert len(doc["coefficients"][-1]) == 4387
        assert [_parse_decimal(a) for a in doc["coefficients"]] == [p**m for m in range(471)]
        orbits = 470 * _parse_decimal(doc["orbit_counts"][-1])
        assert len(doc["orbit_counts"][-1]) > 4300
        assert orbits == p**470 - p**235 - p**94 - p**10 + p**47 + p**5 + p**2 - p

    def test_zeta_text(self, capsys):
        p = 2147483647
        status, out, err = run_cli(
            capsys, "zeta", "--p", str(p), "--system", "full", "--terms", "470",
            "--format", "text",
        )
        assert status == 0, err
        last = out.strip().split("\n")[-1]
        assert last.startswith("a_470 = ")
        assert _parse_decimal(last.removeprefix("a_470 = ")) == p**470


class TestGrowthCommand:
    def test_spec_example_csv(self, capsys):
        status, out, _ = run_cli(
            capsys, "growth", "--p", "3", "--system", "example85",
            "--max-n", "6", "--format", "csv",
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,e,rate_num,rate_den"
        assert lines[-1] == "6,3,1,2"

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(
            capsys, "growth", "--p", "2", "--system", "full", "--max-n", "3"
        )
        doc = json.loads(out)
        assert doc["p"] == 2
        assert doc["label"] == "full"
        assert doc["points"] == [
            {"n": 1, "e": 1, "rate": {"num": 1, "den": 1}},
            {"n": 2, "e": 2, "rate": {"num": 1, "den": 1}},
            {"n": 3, "e": 3, "rate": {"num": 1, "den": 1}},
        ]


class TestZetaCommand:
    def test_full_shift_series(self, capsys):
        _, out, _ = run_cli(
            capsys, "zeta", "--p", "2", "--system", "full", "--terms", "6",
            "--max-order", "2",
        )
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "2", "4", "8", "16", "32", "64"]
        assert doc["recurrence"] == [{"num": 2, "den": 1}]

    def test_example85_no_recurrence(self, capsys):
        _, out, _ = run_cli(
            capsys, "zeta", "--p", "2", "--system", "example85", "--terms", "60",
            "--max-order", "5",
        )
        assert json.loads(out)["recurrence"] is None

    def test_orbits_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "zeta", "--p", "2", "--system", "full", "--terms", "4", "--orbits"
        )
        assert json.loads(out)["orbit_counts"] == ["2", "1", "2", "3"]


class TestOtherCommands:
    def test_places(self, capsys):
        _, out, _ = run_cli(capsys, "places", "--p", "2", "--max-degree", "2")
        doc = json.loads(out)
        assert doc["places"] == [
            {"index": -1, "kind": "infinite"},
            {"index": 0, "kind": "finite", "poly": [0, 1]},
            {"index": 1, "kind": "finite", "poly": [1, 1]},
            {"index": 2, "kind": "finite", "poly": [1, 1, 1]},
        ]

    def test_factor(self, capsys):
        _, out, _ = run_cli(capsys, "factor", "--p", "2", "--n", "6")
        doc = json.loads(out)
        assert doc["n"] == 6
        assert doc["parts"] == [
            {"d": 1, "multiplicity": 2, "factors": [[1, 1]]},
            {"d": 3, "multiplicity": 2, "factors": [[1, 1, 1]]},
        ]

    def test_artin(self, capsys):
        _, out, _ = run_cli(capsys, "artin", "--p", "2", "--bound", "30")
        assert json.loads(out)["primes"] == [3, 5, 11, 13, 19, 29]

    def test_example85(self, capsys):
        _, out, _ = run_cli(capsys, "example85", "--p", "3", "--q-bound", "4")
        assert json.loads(out)["rates"] == [
            {"num": 0, "den": 1},
            {"num": 1, "den": 2},
            {"num": 3, "den": 4},
            {"num": 1, "den": 1},
        ]

    def test_limits_labeled_empirical(self, capsys):
        _, out, _ = run_cli(
            capsys, "limits", "--p", "2", "--system", "full", "--max-n", "50",
            "--epsilon", "1/100", "--tail-fraction", "1/2",
        )
        doc = json.loads(out)
        assert doc["method"] == "empirical"
        assert doc["clusters"] == [{"rate": {"num": 1, "den": 1}, "count": 25}]

    def test_verify_all_checks_true(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--p", "2", "--q", "3", "--nj", "5", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(doc["checks"].values())
        assert doc["e_qnj"] == 11
        assert doc["b_exponent"] == 1


class TestExitCodes:
    def test_invalid_prime(self, capsys):
        status, out, err = run_cli(capsys, "count", "--p", "4", "--system", "full", "--n", "3")
        assert status == 2
        assert out == ""
        assert "--p" in err

    def test_bad_polynomial_flag(self, capsys):
        status, _, err = run_cli(
            capsys, "count", "--p", "2", "--system", "explicit", "--place", "x+1", "--n", "3"
        )
        assert status == 2
        assert "--place" in err

    def test_explicit_without_place(self, capsys):
        status, _, err = run_cli(capsys, "count", "--p", "2", "--system", "explicit", "--n", "3")
        assert status == 2

    def test_random_without_seed(self, capsys):
        status, _, err = run_cli(
            capsys, "count", "--p", "2", "--system", "random", "--rho", "1/2", "--n", "3"
        )
        assert status == 2
        assert "--seed" in err

    def test_verify_rejection_is_exit_2(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--p", "2", "--q", "3", "--nj", "7")
        assert status == 2
        assert "Artin" in err

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "2", "--system", "full", "--n", "10"),
            ("count", "--p", "3", "--system", "random", "--rho", "2/5", "--seed", "9", "--n", "30"),
            ("growth", "--p", "3", "--system", "example85", "--max-n", "40", "--format", "csv"),
            ("zeta", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "4",
             "--terms", "25", "--max-order", "3"),
            ("verify", "--p", "2", "--q", "5", "--nj", "13"),
            ("limits", "--p", "2", "--system", "example85", "--max-n", "200",
             "--epsilon", "1/50", "--tail-fraction", "2/3"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        status, out, _ = run_cli(
            capsys, "count", "--p", "2", "--system", "full", "--n", "12"
        )
        status2 = main(
            ["count", "--p", "2", "--system", "full", "--n", "12", "--output", str(path)]
        )
        capsys.readouterr()
        assert status == status2 == 0
        assert path.read_bytes().decode() == out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"sintdyn {__version__} (schema {SCHEMA_VERSION})"


class TestEndToEndProcess:
    def test_module_invocation_byte_identical(self):
        argv = [sys.executable, "-m", "sintdyn", "zeta", "--p", "2", "--system",
                "random", "--rho", "1/3", "--seed", "11", "--terms", "20"]
        # the child must import the package under test, wherever pytest found it
        paths = [str(Path(sintdyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        first = subprocess.run(argv, capture_output=True, env=env)
        second = subprocess.run(argv, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["N"] == 20
        assert all(isinstance(c, str) for c in doc["coefficients"])
