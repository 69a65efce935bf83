import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import sintdyn
from sintdyn import SCHEMA_VERSION, __version__, cli, limitset
from sintdyn.cli import COMMANDS, _read, build_parser, main
from sintdyn.ffpoly import PrimeField
from sintdyn.system import place_work


EMPTY = hashlib.sha256(b"").hexdigest()


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


class TestMaxOrderRefusedUpFront:
    """A bad --max-order exits 2 before the series is built."""

    @pytest.fixture(autouse=True)
    def no_series(self, monkeypatch):
        def fail(*args):
            raise AssertionError("zeta_for_system must not be called")

        monkeypatch.setattr("sintdyn.cli.zeta_for_system", fail)

    @pytest.mark.parametrize(
        "terms, max_order, message",
        [
            ("3000", "0", "--max-order must be positive: got 0"),
            ("3000", "2000", "--max-order: need at least 4002 series terms, got 3001"),
            ("4", "2", "--max-order: need at least 6 series terms, got 5"),
        ],
    )
    def test_refused(self, capsys, terms, max_order, message):
        status, out, err = run_cli(
            capsys, "zeta", "--p", "2", "--system", "full", "--terms", terms,
            "--max-order", max_order,
        )
        assert (status, out, err) == (2, "", f"error: {message}\n")


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

    @pytest.mark.parametrize(
        "argv",
        (
            ("growth", "--p", "2", "--system", "full", "--max-n", "4"),
            ("zeta", "--p", "2", "--system", "example85", "--terms", "4"),
            ("limits", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "7",
             "--max-n", "8"),
        ),
    )
    def test_label_flag(self, capsys, argv):
        default = json.loads(run_cli(capsys, *argv)[1])["label"]
        expected = "random(rho=1/2, seed=7)" if "random" in argv else argv[4]
        assert default == expected
        labeled = argv + ("--label", "X")
        assert json.loads(run_cli(capsys, *labeled)[1])["label"] == "X"
        if argv[0] == "zeta":
            header = run_cli(capsys, *labeled, "--format", "text")[1].split("\n")[0]
            assert header == "zeta series for X over F_2, N=4:"

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


class TestPinnedDocuments:
    """sha256 of stdout: places, artin, count, growth, zeta, limits, verify
    and factor documents stay byte-identical."""

    @pytest.mark.parametrize(
        "argv, fmt, digest",
        (
            (("places", "--p", "3", "--max-degree", "4"), "json",
             "33662a05b47acc18bbf436728ef12711b892834012f8fe9ff990d416d196010e"),
            (("places", "--p", "3", "--max-degree", "4"), "text",
             "3f37a1ff54ebcedce933cb6b562455ce94a38e33bfd69aef2ec1b97cee3a276f"),
            (("artin", "--p", "5", "--bound", "500"), "json",
             "9cf403b326d8f815bcbae2a22e998931978f6e5cc9a6146e87d266574f56ae94"),
            (("artin", "--p", "5", "--bound", "500"), "text",
             "b1eb166a4ec2d67f8c79fd39c0fce0bb0e9683f5100714a241641cece0e40625"),
            (("artin", "--p", "2", "--bound", "20000"), "json",
             "eaf76b383a6b4848231f0bfda86eb65b7291224bb0f2d848fee790f1a02c2e71"),
            (("artin", "--p", "2", "--bound", "20000"), "text",
             "36dd09663e6bb2368697cb5528dde37d39ed7f309b635133184a77a5937a847e"),
            (("growth", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "42",
              "--max-n", "200"), "json",
             "9f0f56f1ea9d53b7e7e290ce863f5a19cbbf655364d43ce4e7898378941500a9"),
            (("growth", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "42",
              "--max-n", "200"), "text",
             "b71f4c4a68d02cfd1a4e83dc3944bb796d82f9ea4a5ce84af5000d47bfb3dd85"),
            (("growth", "--p", "3", "--system", "random", "--rho", "1/3", "--seed", "7",
              "--max-n", "120"), "json",
             "09a7a1d0871b9315afb0933758a4e79150005ebf9893382a1a822862117484c0"),
            (("growth", "--p", "3", "--system", "random", "--rho", "1/3", "--seed", "7",
              "--max-n", "120"), "text",
             "d13405be53e3bfe8706a2df769118398a6b62a72927ef19df9945e26cbfc0ffc"),
            (("growth", "--p", "5", "--system", "random", "--rho", "2/5", "--seed", "9",
              "--max-n", "100"), "json",
             "58c3d98a78ed6aad83bb73248fe5377ac89a7bccc2c4329445b838bf25d12fe6"),
            (("growth", "--p", "5", "--system", "random", "--rho", "2/5", "--seed", "9",
              "--max-n", "100"), "text",
             "f841b10fa7d85e7247eb253d98be98c4d887e694bf2deed5f4256b519c31750e"),
            (("zeta", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "4",
              "--terms", "60", "--max-order", "20", "--orbits"), "json",
             "87f570ee9abf38cb91602e108285f102fe20445a8663aec29d65a374c5f2881a"),
            (("zeta", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "4",
              "--terms", "60", "--max-order", "20", "--orbits"), "text",
             "e2ffd1660f68099fe176557e2bebe46918d013a2d56a21202a9642e0108070d0"),
            (("limits", "--p", "2", "--system", "example85", "--max-n", "3000"), "json",
             "b3173bac7d4d762a443384c81ecd7491875b2c3603eec75fca6e9e5450e8db34"),
            (("limits", "--p", "2", "--system", "example85", "--max-n", "3000"), "text",
             "6106bd23b925c67b74e99feeee11eb0563f2d8475ce0201cd7ec4253431df05d"),
            (("places", "--p", "3", "--max-degree", "4"), "csv",
             "dee4826b6b314d9da57aac45062581700d940489cf42fc458e66d8191632faae"),
            (("artin", "--p", "5", "--bound", "500"), "csv",
             "0be8dc19d0c0290c1e4f22385f30da33e45bda67e16075322c13527ed2681b53"),
            (("artin", "--p", "2", "--bound", "20000"), "csv",
             "ef0cf9c088e9377d5be286e726855cabc768e6080ae9b338d538d55f1880421a"),
            (("zeta", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "4",
              "--terms", "60", "--max-order", "20", "--orbits"), "csv",
             "6e51e914636723e70371f6af9e347ac087ecaa7205937028df0b7aefb5b8324d"),
            (("limits", "--p", "2", "--system", "example85", "--max-n", "3000"), "csv",
             "3ca8a308c20a5981e0067b94d4d982f3fb3855ab2f96a2b9f58a6d40dd69a05f"),
            (("verify", "--p", "2", "--q", "3", "--nj", "101"), "csv",
             "1e9b1dc1cbf2c25e18e6569755252ecd219ea61742d6fd8f423fd4e6cabe1bfb"),
            (("verify", "--p", "3", "--q", "5", "--nj", "31", "--mark-t-minus-1"), "csv",
             "434ccb85ead04d4046f53d7c13d41fedc9e5f9fafbda81603baf072424954510"),
            # the largest places request admitted at p = 2, and odd p at
            # degrees where the cofactor lists are reused many times
            (("places", "--p", "2", "--max-degree", "18"), "json",
             "0ffdaaabf29388e7e7ef76a99783781ae3a8555a01c9a0c79c94bd8ecbd9047e"),
            (("places", "--p", "3", "--max-degree", "9"), "json",
             "990aae44223edb9f6b08e3b3312cd57337eede0c544f78dc498948b80dd10786"),
            (("places", "--p", "5", "--max-degree", "6"), "json",
             "04af493d29a2d59b9f78b99a5fff617947b50717203f6f955585a7cb762acf4d"),
            (("places", "--p", "7", "--max-degree", "5"), "json",
             "2d1ec01f27b1222f3f724b228eac2078af5ec4b6052c67f66114c6e66830c43a"),
            # count for a random system and for a labeled explicit place,
            # limits with its own epsilon and tail, and verify in every format
            (("count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "5",
              "--n", "360"), "json",
             "515bffd5b9a9ac84f17f393e9ac93779d06be099a5981e1d3f730d48de860d40"),
            (("count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "5",
              "--n", "360"), "csv",
             "3786abc80326a2584375d24b4692d35b9825f51f6ec5d16b4049e4902f57421e"),
            (("count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "5",
              "--n", "360"), "text",
             "09768559c85a607e95639d79c402ca04cd38aaffbae66ffa71aaa5be170a6226"),
            (("count", "--p", "3", "--system", "explicit", "--place", "t^2+1", "--label", "X",
              "--n", "24"), "json",
             "4650a629e8625a7ac854441b8db44f5bf1ac6a55ab2713ea1e1340109e2c3418"),
            (("count", "--p", "3", "--system", "explicit", "--place", "t^2+1", "--label", "X",
              "--n", "24"), "csv",
             "f2ac1552882a00ac6e977ed84ba7bac5ef4d1d4aa45802f4cd29f93c4e7b4595"),
            (("count", "--p", "3", "--system", "explicit", "--place", "t^2+1", "--label", "X",
              "--n", "24"), "text",
             "dbb7ea30d7d04d4698ecd795c3f2ca9ef1e5c6290e751a794a189273d87d6cd2"),
            (("limits", "--p", "2", "--system", "random", "--rho", "1/3", "--seed", "5",
              "--max-n", "400", "--epsilon", "1/50", "--tail-fraction", "1/3"), "json",
             "8bd28cea268291e9d6d4571f8dd920eb47210152186a4babaa51193502113edc"),
            (("limits", "--p", "2", "--system", "random", "--rho", "1/3", "--seed", "5",
              "--max-n", "400", "--epsilon", "1/50", "--tail-fraction", "1/3"), "csv",
             "180cd0c254b0db964c023f9b36040ecc518c9a7d74c4054d0e056ab6e9a9d154"),
            (("limits", "--p", "2", "--system", "random", "--rho", "1/3", "--seed", "5",
              "--max-n", "400", "--epsilon", "1/50", "--tail-fraction", "1/3"), "text",
             "c212976a2119635606ad16ab722bb8757cdd02f1bc1069d4f5dad4e10dd45159"),
            (("verify", "--p", "2", "--q", "3", "--nj", "101"), "json",
             "54be8bfa74a7f9dbe0fdf299c6ab0435c58bd7e3b0133980d71887e3d6422cf0"),
            (("verify", "--p", "2", "--q", "3", "--nj", "101"), "text",
             "5526a2997f0a349c62f061bf235a08e626e8f76f5938a4125bceac4de90afd9d"),
            # factor at odd p (lists through the kernel) and at p = 2 (packed ints)
            (("factor", "--p", "3", "--n", "80"), "json",
             "b84507d76aed290f1dd425f0a497ab37d1c633034f5354035b9015f1da224e30"),
            (("factor", "--p", "3", "--n", "80"), "csv",
             "1fd9a0db63e3cd3e3f907102c46d6cc32f493ce8cc7329550ae1205b6a72274a"),
            (("factor", "--p", "3", "--n", "80"), "text",
             "2237fa4c9b59f59a6845c21742e85ba171b2860d240140d3c78a436d3b82499d"),
            (("factor", "--p", "5", "--n", "48"), "json",
             "9eb3442692c087d2bf3f6d670a56c9e67c02564d8efa471f3029c66f1bcef3a9"),
            (("factor", "--p", "5", "--n", "48"), "csv",
             "d31f4c16ceb2656d7e072b8058e8ca12d1ce0f1f9f6469e26d0d0a07760eaf73"),
            (("factor", "--p", "5", "--n", "48"), "text",
             "00dd97971d2a0f6be2855a4bf059ba35987e0d657e8dce38a0bd9d8cfba37b35"),
            (("factor", "--p", "2", "--n", "1023"), "json",
             "328d141194bc3b36cbf202bfdca4d14f3cbd8b38332d1f31023635d0ddde47e4"),
            (("factor", "--p", "2", "--n", "1023"), "csv",
             "2df9ffe5ad2d5e0154e4b64a62f99afdf15874d638107a5e871e33435a98eec7"),
            (("factor", "--p", "2", "--n", "1023"), "text",
             "64daa64cc0fe6346f4241728c21950017e1e5d504d62afab12b58672c54a1f7d"),
            # a label that json.dumps escapes: a quote and a non-ASCII letter
            (("growth", "--p", "3", "--system", "example85", "--max-n", "12",
              "--label", 'q"é'), "json",
             "a9f9d6d644b45966b70f6d7857ddb5dc2c389ae187b842b92079a3289465d544"),
        ),
    )
    def test_stdout_digest(self, capsys, argv, fmt, digest):
        status, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExample85Documents:
    """The example85 rates ascend with 1 last in every format: byte for byte
    at --q-bound 7 and by sha256 at --q-bound 1000, for p = 2, 3 and 5."""

    @pytest.mark.parametrize(
        "p, fmt, doc",
        (
            (2, "json", '{"p":2,"q_bound":7,"rates":[{"num":0,"den":1},{"num":2,"den":3},'
             '{"num":4,"den":5},{"num":6,"den":7},{"num":1,"den":1}]}\n'),
            (2, "csv", "rate_num,rate_den\n0,1\n2,3\n4,5\n6,7\n1,1\n"),
            (2, "text", "reference rates (in units of log p): 0, 2/3, 4/5, 6/7, 1\n"),
            (3, "json", '{"p":3,"q_bound":7,"rates":[{"num":0,"den":1},{"num":1,"den":2},'
             '{"num":3,"den":4},{"num":4,"den":5},{"num":6,"den":7},{"num":1,"den":1}]}\n'),
            (3, "csv", "rate_num,rate_den\n0,1\n1,2\n3,4\n4,5\n6,7\n1,1\n"),
            (3, "text", "reference rates (in units of log p): 0, 1/2, 3/4, 4/5, 6/7, 1\n"),
            (5, "json", '{"p":5,"q_bound":7,"rates":[{"num":0,"den":1},{"num":1,"den":2},'
             '{"num":2,"den":3},{"num":3,"den":4},{"num":5,"den":6},{"num":6,"den":7},'
             '{"num":1,"den":1}]}\n'),
            (5, "csv", "rate_num,rate_den\n0,1\n1,2\n2,3\n3,4\n5,6\n6,7\n1,1\n"),
            (5, "text", "reference rates (in units of log p): 0, 1/2, 2/3, 3/4, 5/6, 6/7, 1\n"),
        ),
    )
    def test_small_bound(self, capsys, p, fmt, doc):
        status, out, err = run_cli(
            capsys, "example85", "--p", str(p), "--q-bound", "7", "--format", fmt
        )
        assert (status, out, err) == (0, doc, "")

    @pytest.mark.parametrize(
        "p, fmt, digest",
        (
            (2, "json", "9ff26e65d53dbb23427442a22e1f5898e81fc5f69d1071b59593faff63d523d2"),
            (2, "csv", "30602bd2e44d87a8e4365c3424a19d35b90a00e4a6dde3d617b397339a7b1854"),
            (2, "text", "7155f690ddc27006687dad588550ecbf6bbefa83eb91bbf31c1dee192497d6b2"),
            (3, "json", "9d0ea18fc990592ca64530f3304e4711d1ddf65be91a330f68f1f5e18f92051a"),
            (3, "csv", "c446a676969fa7be57a4e5780c6c4eefd049c22243e938681e4aedda5c123a9d"),
            (3, "text", "fff24d3d5195d1382d3009398eb40bdf83e1eea51fa6b0d89b4322770d965fb2"),
            (5, "json", "2cb02c6cffd741e20b49cdc776694b3d70f706fa2f043f01ccfcefac401d3c70"),
            (5, "csv", "37482673c1b8b8c93ccd2ebe469d3b9ae49be01ead78125eb53ae925b04bc63f"),
            (5, "text", "85d4d3618ddc2a1c1be3654f522a88e59283393d6169578c4c508b9c591cebe2"),
        ),
    )
    def test_digest_at_1000(self, capsys, p, fmt, digest):
        status, out, err = run_cli(
            capsys, "example85", "--p", str(p), "--q-bound", "1000", "--format", fmt
        )
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_unwritable_output_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        status, out, err = run_cli(
            capsys, "count", "--p", "2", "--system", "full", "--n", "5", "--output", str(path)
        )
        assert status == 2
        assert out == ""
        assert err.startswith("error: --output: ")
        assert str(path) in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("artin", "--p", "2", "--bound", "2"),
             "error: --bound must be at least 3: got 2\n"),
            (("count", "--p", "2", "--system", "full", "--place", "1,1", "--n", "5"),
             "error: --place is only valid with --system explicit, not 'full'\n"),
            (("growth", "--p", "3", "--system", "example85", "--place", "t+1", "--max-n", "5"),
             "error: --place is only valid with --system explicit, not 'example85'\n"),
            (("count", "--p", "4", "--system", "full", "--n", "3"),
             "error: --p: p must be prime: got 4\n"),
            (("count", "--p", "2", "--system", "explicit", "--place", "x+1", "--n", "3"),
             "error: --place: cannot parse polynomial 'x+1': "
             "invalid literal for int() with base 10: 'x+1'\n"),
            (("count", "--p", "2", "--system", "explicit", "--n", "3"),
             "error: --system explicit requires at least one --place\n"),
            (("count", "--p", "2", "--system", "random", "--rho", "1/2", "--n", "3"),
             "error: --system random requires both --rho and --seed\n"),
            (("count", "--p", "2", "--system", "random", "--rho", "3/0", "--seed", "1",
              "--n", "3"),
             "error: --rho: expected a rational like 1/2, got '3/0'\n"),
            (("count", "--p", "2", "--system", "random", "--rho", "2", "--seed", "1",
              "--n", "3"),
             "error: --rho/--seed: rho must be a rational in (0, 1): got 2\n"),
            (("count", "--p", "2", "--system", "full", "--n", "0"),
             "error: --n must be positive: got 0\n"),
            # int(4 * 1/100) = 0 points in the tail
            (("limits", "--p", "2", "--system", "full", "--max-n", "4",
              "--tail-fraction", "1/100"),
             "error: the requested tail is empty\n"),
        ),
    )
    def test_refused_flags(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", message)

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestFailedCheck:
    """A construction check that fails, here pi_irreducible with the Rabin
    test faulted, exits 1 and says so in the json and text documents."""

    def test_exit_1_and_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(limitset, "is_irreducible", lambda v: False)
        argv = ("verify", "--p", "2", "--q", "3", "--nj", "5")
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (1, "")
        assert '"pass":false' in out
        assert json.loads(out)["checks"]["pi_irreducible"] is False
        status, out, err = run_cli(capsys, *argv, "--format", "text")
        assert (status, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "construction check p=2 q=3 nj=5: FAIL"
        assert [line for line in lines if line.endswith(": FAIL")] == [
            lines[0], "  pi_irreducible: FAIL"
        ]


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


def run_python(*args, timeout=None):
    """`python args` in a child process that imports the package under test,
    wherever pytest found it."""
    paths = [str(Path(sintdyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout)


def run_child(*argv, timeout=None):
    """`python -m sintdyn argv` in a child process (run_python)."""
    return run_python("-m", "sintdyn", *argv, timeout=timeout)


class TestOneParserPerProcess:
    """main reuses one parser: a call sees nothing of the calls before it,
    so its output equals that of a fresh process."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps usage lines to the terminal width; pin it for both
        # this process and the child
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv",
        (
            ("count", "--p", "2", "--system", "example85", "--n", "12"),
            ("count", "--p", "2", "--system", "explicit", "--n", "12"),
        ),
    )
    def test_places_do_not_carry_over(self, capsys, argv):
        first = run_cli(
            capsys, "count", "--p", "2", "--system", "explicit", "--place", "t^3+t+1",
            "--place", "t^2+t+1", "--n", "12",
        )
        assert first == (0, '{"n":12,"e":4,"count":"16"}\n', "")
        fresh = run_child(*argv)
        assert run_cli(capsys, *argv) == (
            fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()
        )

    def test_strict_calls_share_no_place_list(self):
        argv = ["count", "--p", "2", "--system", "explicit", "--n", "12"]
        with_place = _read(argv + ["--place", "t^2+t+1"])
        without, again = _read(argv), _read(argv)
        assert (with_place.place, without.place, again.place) == (["t^2+t+1"], [], [])
        assert without.place is not again.place

    def test_invalid_call_after_valid_one(self, capsys):
        argv = ("places", "--p", "2", "--max-degree", "two")
        fresh = run_child(*argv)
        assert fresh.returncode == 2
        assert b"invalid int value: 'two'" in fresh.stderr
        assert run_cli(capsys, "places", "--p", "2", "--max-degree", "3")[0] == 0
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", fresh.stderr.decode())


# stdout and stderr sha256 of each call, by its arguments
PARSER_PINS = {
    "--help": (
        0,
        "b24154ac75b566f8480bdb4b63a9c985c9fe86ef942ed780e997d5256a2f8e01",
        EMPTY,
    ),
    "places --help": (
        0,
        "4dc06c55036cdb7db4f4d3aac916c6e491d58b25d17706917f17e154dd035a63",
        EMPTY,
    ),
    "factor --help": (
        0,
        "9d2e84698f23ee9ad234dbfd50a9142eaae2bffec43a5e920b5f79dc7ff8d48e",
        EMPTY,
    ),
    "count --help": (
        0,
        "58165c6e367c687d474f05006d23f7edb7e67379438b88a94a84b2484bff1cd0",
        EMPTY,
    ),
    "growth --help": (
        0,
        "a403e0cf2989db850275690dd0660037d73b3a9339a22b003ad7e8ffb7813b2e",
        EMPTY,
    ),
    "zeta --help": (
        0,
        "c4f7f586994a76604f963630acc4b0de6d2c40565366f2d8ed4bf1a657c77fb2",
        EMPTY,
    ),
    "limits --help": (
        0,
        "a0a6bfc7ce6c09f84e21ebb28520e65ff87a279951548d5f5175be2db7e6f33a",
        EMPTY,
    ),
    "artin --help": (
        0,
        "1869a817d29cce68f12fb2b3798b28efd7b89db4395d9fc56af466fa6b1faf86",
        EMPTY,
    ),
    "verify --help": (
        0,
        "5ab866fe2b30b1c094b0e3daf022c7f9864ab8db58f434b1d2d09ca705ede7de",
        EMPTY,
    ),
    "example85 --help": (
        0,
        "3753c8637a0a38ca6d0baf60157dd0cbfc1862e5583667faee84027894f47014",
        EMPTY,
    ),
    "growth --p 2": (
        2,
        EMPTY,
        "9f973df82bac3268bd431a795fc83d830695744f5da505af4ce2f2a9d59d6cdd",
    ),
    "places --p x --max-degree 3": (
        2,
        EMPTY,
        "538767ad96b0a26612bbb722a8b1057c01082636748a2ac4f1a33aaca457e88f",
    ),
    "": (
        2,
        EMPTY,
        "1267e29abfe3cb8e058ae593012bb6972d5e84bd05b6024d713fa5122d56a094",
    ),
    "count --p 2 --system bogus --n 1": (
        2,
        EMPTY,
        "e4adeb9aa4f89c47775dd36230a265f650313f38a48b287f24074d340130500f",
    ),
    "--version": (
        0,
        "f7e25d3557e96893cbcf8949c6d2e3720b08557ad318cda1ea079d4aa256afff",
        EMPTY,
    ),
    # command lines that only argparse reads: unknown flags, extra
    # arguments, abbreviations, joined or dash-led values, --version after a
    # command, -h after flags, a repeated store flag; and two --place flags,
    # whose order decides which one an error names
    "growth --p 2 --system full --max-n 3 --bogus 1": (
        2,
        EMPTY,
        "cd3d0ea5096c8ab7e4387c0e84c528597ccbfafe65310accb7ec79f14bbd464c",
    ),
    "growth --p 2 --system full --max-n 3 extra": (
        2,
        EMPTY,
        "45584fcffd394d3f2339a9bc005f8243442e1eabce58e0637c3e3fc909dca146",
    ),
    "zeta --p 2 --system full --terms 3 --orbits yes": (
        2,
        EMPTY,
        "a3ae93fe5e45c3ac93cc3df127ce168d64afcc2ed02343ac8a0e55e55cf11a8a",
    ),
    "growth --p 2 --sys full --max 3": (
        0,
        "0ee38eaa0d7550763488fde232e1bede422345fd00604e7dd20bedbb22ed91a2",
        EMPTY,
    ),
    "growth --p=2 --system full --max-n 3": (
        0,
        "0ee38eaa0d7550763488fde232e1bede422345fd00604e7dd20bedbb22ed91a2",
        EMPTY,
    ),
    "growth --p 2 --system random --rho 1/2 --seed -1 --max-n 3": (
        2,
        EMPTY,
        "71f3f49725396c72c74a1a948351ea04e85c366fbb3d6072dd6cd000c64c09e3",
    ),
    "growth --p 2 --system full --max-n 3 --output -": (
        0,
        "0ee38eaa0d7550763488fde232e1bede422345fd00604e7dd20bedbb22ed91a2",
        EMPTY,
    ),
    "growth --version": (
        2,
        EMPTY,
        "e75411ffb77ae621258c54822d3c73af88cc146d8ce1b7f0a127bfb652cb5a25",
    ),
    "growth --p 2 --system full -h": (
        0,
        "a403e0cf2989db850275690dd0660037d73b3a9339a22b003ad7e8ffb7813b2e",
        EMPTY,
    ),
    "growth --p 2 --p 3 --system full --max-n 3": (
        0,
        "49274086caa5f8d2673fb34888e203bd3398096fc6fae9689b563ea26f5a634c",
        EMPTY,
    ),
    "count --p 2 --system explicit --place x --place y --n 3": (
        2,
        EMPTY,
        "abcff44a4391df01a427605897bd90e810d55197e4721dd15832aa32d7e9f7d5",
    ),
    "count --p 2 --system explicit --place y --place x --n 3": (
        2,
        EMPTY,
        "b8e4a0fdfc6eea58bea31d447499c9c9d68474adaef96022fbcb1775cda63258",
    ),
}


class TestParserBytes:
    """Help, usage errors and --version print the same bytes as when each
    subcommand added its flags by hand, and the command lines that _read
    leaves to argparse give the same status and bytes as when argparse read
    every command line.  sha256 of stdout and stderr at COLUMNS=80, recorded
    with Python 3.11's argparse."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout of Python 3.11")
    @pytest.mark.parametrize("command", PARSER_PINS, ids=lambda command: command or "no-args")
    def test_same_bytes(self, capsys, command):
        status, out, err = PARSER_PINS[command]
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse's exits; the bytes tell them apart
            code = exc.code
        captured = capsys.readouterr()
        assert code == status
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out
        assert hashlib.sha256(captured.err.encode()).hexdigest() == err


def _argparse_namespace(argv):
    """vars of build_parser().parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


# values that pass some flag's type or choices and values that fail them,
# empty ones and ones that start with -
VALUES = (
    "2", "3", "10", "0", " 7", "1_000", "-1", "-", "--", "", "x", "0x10", "1/2", "2/3",
    "t^2+t+1", "1,1,1", "json", "csv", "text", "xml", "full", "example85", "explicit",
    "random", "bogus", "-h", "--p",
)


class TestStrictReader:
    """_read returns None or exactly the namespace argparse returns, and
    None wherever argparse exits, so that argparse's help, errors and
    abbreviations stay its own."""

    @pytest.fixture(scope="class")
    def hypothesis(self):
        return pytest.importorskip("hypothesis")

    def test_agrees_with_argparse(self, hypothesis):
        st = hypothesis.strategies
        value = st.one_of(st.sampled_from(VALUES), st.integers(-3, 10**6).map(str))

        @st.composite
        def command_lines(draw):
            """A command line drawn from the command table: a valid one,
            then up to three edits."""
            command = draw(st.sampled_from(sorted(COMMANDS)))
            flags = COMMANDS[command][2]
            pairs = []
            for flag, spec in flags.items():
                if spec.get("required") or draw(st.booleans()):
                    if spec.get("action") == "store_true":
                        pairs.append([flag])
                    elif "choices" in spec:
                        pairs.append([flag, draw(st.sampled_from(spec["choices"]))])
                    elif spec.get("type") is int:
                        pairs.append([flag, str(draw(st.integers(0, 10**6)))])
                    else:
                        pairs.append([flag, draw(st.sampled_from(("t^2+t+1", "1/2", "", "x y")))])
            argv = [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]
            other = sorted({flag for _, _, fs in COMMANDS.values() for flag in fs} - set(flags))
            token = st.one_of(
                value,
                st.sampled_from(sorted(flags)),  # a repeat
                st.sampled_from(sorted(flags)).flatmap(  # an abbreviation
                    lambda flag: st.integers(2, len(flag) - 1).map(lambda k: flag[:k])
                ),
                st.tuples(st.sampled_from(sorted(flags)), value).map("=".join),
                st.sampled_from(other + ["-h", "--help", "--version", "--bogus", "extra"]),
            )
            for _ in range(draw(st.integers(0, 3))):
                edit = draw(st.sampled_from(("insert", "delete", "replace")))
                at = draw(st.integers(0, len(argv) - (edit != "insert")))
                if edit == "delete":
                    del argv[at]
                else:
                    argv[at:at + (edit == "replace")] = [draw(token)]
            return argv

        @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @hypothesis.example(argv=["growth", "--p", "2", "--s", "full", "--max-n", "3"])
        @hypothesis.example(argv=["zeta", "--p", "2", "--system", "full", "--terms", "3", "--o"])
        @hypothesis.example(
            argv=["growth", "--p", "2", "--system", "random", "--rho", "-1/2", "--seed", "1",
                  "--max-n", "3"]
        )
        @hypothesis.example(argv=["growth", "--p", "2", "--system", "full", "--max-n", "3",
                                  "--label", "-h"])
        @hypothesis.example(argv=["growth", "--p", "2", "--system", "full", "--max-n", "3",
                                  "--format", "xml"])
        @hypothesis.example(argv=["growth", "--p", "2", "--system", "full"])
        @hypothesis.given(argv=command_lines())
        def check(argv):
            expected = _argparse_namespace(argv)
            read = _read(argv)
            outcomes.append(read is not None)
            assert read is None or vars(read) == expected

        outcomes = []
        check()
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # both paths are drawn

    def test_benchmark_jobs_take_the_strict_path(self):
        clibench = Path(__file__).resolve().parents[1] / "clibench"
        jobs = runpy.run_path(str(clibench / "jobs.py"))
        for workload in jobs["WORKLOADS"]:
            for seed in (1, 7):
                for argv in jobs["workload_jobs"](workload, seed):
                    read = _read(argv)
                    assert read is not None, argv
                    assert vars(read) == _argparse_namespace(argv)


class TestPlacesRefusedUpFront:
    @pytest.mark.parametrize("max_degree", ("1", "2"))
    def test_refused(self, capsys, max_degree):
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "places", "--p", "2147483647", "--max-degree", max_degree
        )
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        assert err == (
            f"error: places: p**max_degree must be at most 262144: "
            f"got 2147483647**{max_degree}\n"
        )

    def test_largest_baseline_request_admitted(self, capsys):
        status, out, err = run_cli(capsys, "places", "--p", "2", "--max-degree", "12")
        assert (status, err) == (0, "")
        # infinity and the 747 monic irreducibles of degree <= 12 over F_2
        assert len(json.loads(out)["places"]) == 748


class TestWorkBoundsRefusedUpFront:
    @pytest.mark.parametrize(
        "argv, message",
        (
            (("artin", "--p", "2", "--bound", "10000001"),
             "error: artin: bound must be at most 10000000: got 10000001\n"),
            (("example85", "--p", "2", "--q-bound", "1000001"),
             "error: example85: q_bound must be at most 1000000: got 1000001\n"),
            (("count", "--p", "2", "--system", "full", "--n", str(2**21 + 1)),
             f"error: count: p**e must be at most 2**{2**21}: got 2**{2**21 + 1}\n"),
            (("count", "--p", "2147483647", "--system", "full", "--n", "67651"),
             f"error: count: p**e must be at most 2**{2**21}: got 2147483647**67651\n"),
            (("zeta", "--p", "2", "--system", "full", "--terms", "3163"),
             "error: zeta: n_terms**2 * p.bit_length() must be at most 20000000: "
             "got 20009138\n"),
            (("zeta", "--p", "2147483647", "--system", "full", "--terms", "804"),
             "error: zeta: n_terms**2 * p.bit_length() must be at most 20000000: "
             "got 20038896\n"),
            # 655 factors of degree 454, split in about 4.3 s before the limit
            (("factor", "--p", "2", "--n", "297371"),
             "error: factor: factor_work(p, n) must be at most 137438953472: "
             "got 191877446914\n"),
            # the prime after 8388587 with 2 a primitive root: pi_8388619 alone is over
            (("factor", "--p", "2", "--n", "8388619"),
             "error: factor: factor_work(p, n) must be at most 137438953472: "
             "got 137439133696\n"),
            # an Artin prime of 2 whose pi alone would not fit in memory
            (("verify", "--p", "2", "--q", "3", "--nj", "1000000021"),
             "error: verify: verify_work(p, q, nj) must be at most 137438953472: "
             "got 96000053184001074528\n"),
            # the Artin prime of 2 after 36037, the largest admitted at q = 3
            (("verify", "--p", "2", "--q", "3", "--nj", "36061"),
             "error: verify: verify_work(p, q, nj) must be at most 137438953472: "
             "got 137603937248\n"),
            # ran for 21.8 s before the limit: 6.71 times the budget (2.24
            # while the odd-p split was charged bit_length(k), not its square)
            (("count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "1",
              "--n", "20011"),
             "error: count: factor_work(p, n) must be at most 137438953472: "
             "got 922849707008\n"),
            # pi_(2**31 - 1) alone would not fit in memory
            (("count", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "1",
              "--n", "2147483647"),
             "error: count: factor_work(p, n) must be at most 137438953472: "
             "got 35184372072448\n"),
            (("count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "1",
              "--n", "2147483647"),
             "error: count: factor_work(p, n) must be at most 137438953472: "
             "got 35184372072448\n"),
            # the tables: 2147483647 died with MemoryError before the limits
            (("growth", "--p", "2", "--system", "full", "--max-n", "500001"),
             "error: growth: max_n must be at most 500000: got 500001\n"),
            (("growth", "--p", "2", "--system", "full", "--max-n", "2147483647"),
             "error: growth: max_n must be at most 500000: got 2147483647\n"),
            (("limits", "--p", "2", "--system", "full", "--max-n", "3000001"),
             "error: limits: max_n must be at most 3000000: got 3000001\n"),
            (("limits", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "1",
              "--max-n", "2147483647"),
             "error: limits: max_n must be at most 3000000: got 2147483647\n"),
            # pi_739 and pi_1478 (k = 2, r = 369): admitted at 0.975 of the
            # budget, and 5.5-8 s, while the odd-p split was charged
            # bit_length(k) rounds instead of its square
            (("factor", "--p", "2147483647", "--n", "1478"),
             "error: factor: factor_work(p, n) must be at most 137438953472: "
             "got 268018649088\n"),
            # pi_239379 (3 * 7 * 11399, k = 4): admitted at 0.73 of the
            # budget, and 3.5-7 s, while its coset sums of d bits were
            # charged as gcds at degree phi(d)
            (("factor", "--p", "2", "--n", "239379"),
             "error: factor: factor_work(p, n) must be at most 137438953472: "
             "got 160068770752\n"),
        ),
    )
    def test_refused_at_limit_plus_one(self, capsys, monkeypatch, argv, message):
        def no_work(*args):
            raise AssertionError("the request must be refused before this step")

        # without its check, verify --nj 1000000021 would build a 10**9-term
        # pi, and count --n 2147483647 a pi_d of degree 2**31 - 2
        monkeypatch.setattr("sintdyn.limitset.multiplicative_order", no_work)
        monkeypatch.setattr("sintdyn.system._cyclotomic_factors", no_work)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (2, "", message)

    def test_count_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr("sintdyn.cli.MAX_COUNT_BITS", 10)
        assert run_cli(capsys, "count", "--p", "2", "--system", "full", "--n", "10") == (
            0, '{"n":10,"e":10,"count":"1024"}\n', ""
        )
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "count", "--p", "2", "--system", "full", "--n", "11")
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (
            2, "", "error: count: p**e must be at most 2**10: got 2**11\n"
        )

    @pytest.mark.parametrize("command, limit", (("growth", "MAX_GROWTH_N"),
                                                ("limits", "MAX_LIMITS_N")))
    def test_table_limit_is_inclusive(self, capsys, monkeypatch, command, limit):
        monkeypatch.setattr(f"sintdyn.cli.{limit}", 10)
        argv = (command, "--p", "2", "--system", "full", "--format", "csv", "--max-n")
        status, out, err = run_cli(capsys, *argv, "10")
        assert (status, err) == (0, "") and out
        assert run_cli(capsys, *argv, "11") == (
            2, "", f"error: {command}: max_n must be at most 10: got 11\n"
        )

    def test_count_bounds_e_not_n(self, capsys):
        # the trivial system has e = 0 at every n, so |F_n| = 1 however large n is
        status, out, err = run_cli(
            capsys, "count", "--p", "2", "--system", "trivial", "--n", str(2**31 - 1)
        )
        assert (status, err) == (0, "")
        assert json.loads(out) == {"n": 2**31 - 1, "e": 0, "count": "1"}

    def test_zeta_limit_is_inclusive(self, capsys, monkeypatch):
        # 10 terms at p = 2 is 10**2 * 2 = 200
        argv = ("zeta", "--p", "2", "--system", "full", "--terms", "10")
        monkeypatch.setattr("sintdyn.zeta.MAX_ZETA_WORK", 200)
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        assert json.loads(out)["coefficients"][-1] == "1024"
        monkeypatch.setattr("sintdyn.zeta.MAX_ZETA_WORK", 199)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (
            2, "", "error: zeta: n_terms**2 * p.bit_length() must be at most 199: got 200\n"
        )

    def test_factor_limit_is_inclusive(self, capsys, monkeypatch):
        # factor --p 2 --n 1023 (a benchmark job) is admitted at exactly its
        # own work and refused one unit below it
        argv = ("factor", "--p", "2", "--n", "1023", "--format", "csv")
        work = 61046280
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work)
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        # the header, then one line per factor: 1 + 1 + 1 + 6 + 2 + 6 + 30 + 60
        assert len(out.splitlines()) == 1 + 107
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work - 1)
        assert run_cli(capsys, *argv) == (
            2, "", f"error: factor: factor_work(p, n) must be at most {work - 1}: got {work}\n"
        )

    def test_factor_131071_runs(self, capsys):
        # refused at 964 times the budget while every pi_d went through the
        # coset-sum split; the one-factor route splits it in under a second
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "factor", "--p", "2", "--n", "131071")
        assert time.perf_counter() - start < 10
        assert (status, err) == (0, "")
        parts = json.loads(out)["parts"]
        assert [part["d"] for part in parts] == [1, 131071]
        assert len(parts[1]["factors"]) == 7710
        assert {len(v) - 1 for v in parts[1]["factors"]} == {17}

    def test_verify_limit_is_inclusive(self, capsys, monkeypatch):
        # verify --p 2 --q 3 --nj 101 (a benchmark job) is admitted at
        # exactly its own work and refused one unit below it
        argv = ("verify", "--p", "2", "--q", "3", "--nj", "101")
        work = 7743968
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work)
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        assert json.loads(out)["e_qnj"] == 203
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work - 1)
        assert run_cli(capsys, *argv) == (
            2, "", f"error: verify: verify_work(p, q, nj) must be at most {work - 1}: "
            f"got {work}\n"
        )

    def test_random_count_limit_is_inclusive(self, capsys, monkeypatch):
        # count --n 4095 on a random system (a baseline request) is admitted
        # at exactly its own work and refused one unit below it
        argv = ("count", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "1",
                "--n", "4095")
        work = 322584024
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work)
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        assert json.loads(out)["e"] == 1966
        monkeypatch.setattr("sintdyn.cyclofactor.MAX_FACTOR_WORK", work - 1)
        assert run_cli(capsys, *argv) == (
            2, "", f"error: count: factor_work(p, n) must be at most {work - 1}: got {work}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        (
            ("count", "--p", "2", "--system", "full", "--n", str(2**21)),
            ("count", "--p", "2147483647", "--system", "full", "--n", "67650"),
            ("zeta", "--p", "2", "--system", "full", "--terms", "3162"),
            ("zeta", "--p", "2147483647", "--system", "full", "--terms", "803"),
            # pi_8388587 is irreducible over F_2: 16384 * (1 + 8388587) units
            ("factor", "--p", "2", "--n", "8388587"),
            # the largest verify requests of the tests and the benchmarks
            ("verify", "--p", "2", "--q", "3", "--nj", "30011"),
            ("verify", "--p", "2", "--q", "3", "--nj", "36037"),
            ("verify", "--p", "3", "--q", "5", "--nj", "31", "--mark-t-minus-1"),
            ("verify", "--p", "5", "--q", "3", "--nj", "23"),
            # the random count of the baseline table, and a prime n at 0.12 of the limit
            ("count", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "1",
             "--n", "4095"),
            ("count", "--p", "2", "--system", "random", "--rho", "1/2", "--seed", "1",
             "--n", "1000003"),
            # pi_131071 splits into 7710 factors of degree 17 on the one-factor
            # route, charged 0.41 of the limit
            ("factor", "--p", "2", "--n", "131071"),
        ),
    )
    def test_admitted_at_the_real_limits(self, capsys, monkeypatch, argv):
        # the costly step after each check is replaced by a marker, so the
        # unpatched limits are checked without seconds of work
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr("sintdyn.intmath.decimal", admitted)
        monkeypatch.setattr("sintdyn.zeta.periodic_exponents", admitted)
        monkeypatch.setattr("sintdyn.cyclofactor._cyclotomic_factors", admitted)
        monkeypatch.setattr("sintdyn.system._cyclotomic_factors", admitted)
        monkeypatch.setattr("sintdyn.limitset.multiplicative_order", admitted)
        with pytest.raises(Admitted):
            main(list(argv))


class TestPlaceDegreeRefusedUpFront:
    """An explicit place is charged place_work(p, degree) on the degree its
    text states (the largest exponent of t, or the comma count of a list),
    summed over the --place flags, before any coefficient list is built or
    any Rabin test runs."""

    @staticmethod
    def argv(p, places):
        argv = ["count", "--p", p, "--system", "explicit", "--n", "4"]
        for place in places:
            argv += ["--place", place]
        return argv

    @pytest.mark.parametrize(
        "p, places, work",
        (
            # built and tested, these ran 44 s (then refused as reducible),
            # 3.9 s and 1.3 s
            ("2", ("t^16000+t^3+1",), 5144576000000),
            ("3", ("t^1000+t+2",), 321536000000),
            ("2147483647", ("t^200+t+5",), 570163200000),
            # one past the largest degree admitted, the exponent in any term,
            # and a list of 4098 coefficients
            ("2", ("1+t^4097",), 137522855937),
            ("3", ("t^736-1",), 137564782592),
            ("2", (",".join(["1"] * 4098),), 137522855937),
            # each place is admitted alone, not both
            ("2", ("t^3217+t^67+1", "t^2+t+1", "t^3217+t^67+1"), 2 * 75682887857 + 16392),
        ),
    )
    def test_refused_before_the_place_is_built(self, capsys, monkeypatch, p, places, work):
        def built(*args):
            raise AssertionError("a place was built")

        monkeypatch.setattr("sintdyn.ffpoly.PrimeField._from_terms", built)
        start = time.perf_counter()
        result = run_cli(capsys, *self.argv(p, places))
        assert time.perf_counter() - start < 1
        assert result == (
            2, "", f"error: --place: place_work(p, degree) must be at most {2**37}: got {work}\n"
        )

    @pytest.mark.parametrize(
        "p, place",
        (
            # exactly the limit at p = 2, and just below it at p = 3
            ("2", "t^4096+1"),
            ("3", "2*t^735+1"),
            # the places of the README, the benchmarks and the baseline table
            ("2", "t^3217+t^67+1"),
            ("2", ",".join(["1"] * 653)),
            ("2", "t^2+t+1"),
            ("3", "t^2+1"),
        ),
    )
    def test_admitted(self, monkeypatch, p, place):
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr("sintdyn.ffpoly.PrimeField._from_terms", admitted)
        with pytest.raises(Admitted):
            main(self.argv(p, [place]))

    def test_degree_of_a_billion_refused_in_a_capped_child(self):
        # from_string built a list of 10**9 + 1 coefficients (8 GB) for this
        # place; under a 1 GiB address-space cap a return to that fails fast
        code = (
            "import resource, sys, time; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from sintdyn.cli import main; start = time.perf_counter(); "
            "status = main(['count', '--p', '2', '--system', 'explicit', "
            "'--place', 't^1000000000+1', '--n', '4']); "
            "print(status, time.perf_counter() - start)"
        )
        result = run_python("-c", code, timeout=60)
        assert result.returncode == 0, result.stderr
        status, elapsed = result.stdout.decode().split()
        assert status == "2" and float(elapsed) < 1
        assert result.stderr.decode() == (
            f"error: --place: place_work(p, degree) must be at most {2**37}: "
            f"got {10**9 * 10**9 * (4096 + 10**9)}\n"
        )

    def test_charged_degree_bounds_the_built_degree(self):
        # the charge and the build read one set of terms: for every --place
        # that is parsed and admitted, the degree charged is at least the
        # built place's degree, and equal to it when the top coefficient is
        # non-zero mod p (a zero place has no degree)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        text = st.one_of(
            st.text(alphabet="t^*+- 0123456789", max_size=16),
            st.lists(st.integers(-12, 12), min_size=1, max_size=9).map(
                lambda coeffs: ",".join(map(str, coeffs))
            ),
        )

        class Built(Exception):
            pass

        @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @hypothesis.example(text="5*t^0", p=3)
        @hypothesis.example(text="t^2-t^2+1", p=2)
        @hypothesis.example(text="3*t^4+t", p=3)
        @hypothesis.example(text="0,1,0", p=2)
        @hypothesis.given(text=text, p=st.sampled_from((2, 3, 7)))
        def check(text, p):
            charged, built = [], []
            build = PrimeField._from_terms

            def charge(p, m):
                charged.append(m)
                return place_work(p, m)

            def spy(field, terms):
                built.append((terms, build(field, terms)))
                raise Built

            args = SimpleNamespace(system="explicit", place=[text], rho=None, seed=None,
                                   label=None)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "place_work", charge)
                patch.setattr(PrimeField, "_from_terms", spy)
                try:
                    cli._system(PrimeField(p), args)
                except (Built, ValueError):
                    pass
            outcomes.append(bool(built))
            if built:
                (terms, place), = built
                (degree,) = charged
                assert place.is_zero or degree >= place.degree
                if terms[degree] % p:
                    assert degree == place.degree

        outcomes = []
        check()
        assert 0.1 < sum(outcomes) / len(outcomes) < 0.9  # built and refused are both drawn


class TestEndToEndProcess:
    def test_module_invocation_byte_identical(self):
        argv = ["zeta", "--p", "2", "--system", "random", "--rho", "1/3", "--seed", "11",
                "--terms", "20"]
        first = run_child(*argv)
        second = run_child(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["N"] == 20
        assert all(isinstance(c, str) for c in doc["coefficients"])


class TestStartup:
    """A CLI call pays for every module the package imports before its first
    job, so the import graph of sintdyn.cli stays free of dataclasses and
    what it pulls in (inspect, ast, dis), which nothing in the package uses."""

    def test_import_leaves_out_dataclasses(self):
        result = run_python("-c", (
            "import sys; before = set(sys.modules); import sintdyn.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
        ), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode().split() == []

    def test_valid_call_leaves_out_argparse(self):
        # _read takes a valid command line, so argparse and gettext load
        # only for help, errors and abbreviations
        code = (
            "import sys; from sintdyn.cli import main; status = main({}); "
            "print(*sorted({{'argparse', 'gettext'}} & set(sys.modules)))"
        )
        for max_flag, loaded in (("--max-n", []), ("--max", ["argparse", "gettext"])):
            argv = ["growth", "--p", "2", "--system", "full", max_flag, "3", "--output", os.devnull]
            result = run_python("-c", code.format(argv), timeout=60)
            assert result.returncode == 0, result.stderr
            assert result.stdout.decode().split() == loaded

    def test_import_leaves_out_hashlib(self):
        # random marks use _blake2.blake2b, the function hashlib.blake2b
        # returns, so the import never loads OpenSSL through _hashlib
        result = run_python("-c", (
            "import sys, sintdyn.cli; "
            "print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        ), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode().split() == []


class TestBenchmarkTracer:
    """clibench/tracer.py wraps package names from outside (every layer
    function, the kernel entry points, OmegaSource.mark and the cached
    functions' cache_info), so removing or renaming one breaks every traced
    benchmark run; this runs the tracer over one verify job."""

    def test_tracer_installs_and_reports(self):
        clibench = Path(__file__).resolve().parents[1] / "clibench"
        result = run_python("-c", (
            f"import sys; sys.path.insert(0, {str(clibench)!r}); "
            "import sintdyn.cli, tracer; t = tracer.Tracer(); t.install(); "
            "status = sintdyn.cli.main(['verify', '--p', '2', '--q', '3', '--nj', '5']); "
            "metrics = t.metrics(0); "
            "print(metrics['limitset.verify_construction.calls'], file=sys.stderr); "
            "sys.exit(status)"
        ), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stderr.decode().split() == ["1"]


class TestReadmeTour:
    """The README's library tour runs as written, and its comments state
    what it returns."""

    def test_tour_runs_and_matches_its_comments(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        checks = (
            "assert [(str(v), k) for v, k in factorize(F2.from_string('t^6+1'))]"
            " == [('t+1', 2), ('t^2+t+1', 2)]\n"
            "assert periodic_count(spec, 6) == 16\n"
            "assert growth_sequence(spec, 8)[5].rate == Fraction(2, 3)\n"
            "assert find_linear_recurrence(series, 5) is None\n"
            "assert verify_construction(2, 3, 5).all_checks_pass\n"
        )
        result = run_python("-c", tour + checks, timeout=60)
        assert result.returncode == 0, result.stderr


class TestHighDegreePlaces:
    """Places of degree 1018 and 652 are decided by modular powers alone.
    Both requests once ran for minutes factoring 2**deg - 1; they run in a
    child process with a timeout, so a return to that cost fails the test
    instead of hanging the suite."""

    def test_verify_nj_1019(self):
        result = run_child("verify", "--p", "2", "--q", "3", "--nj", "1019", timeout=60)
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["pass"] is True
        assert doc["multiplicity_in_qnj"] == 1
        assert doc["qnj_min_factor_degree"] == 1018

    def test_count_explicit_place_of_degree_652(self):
        # 1 + t + ... + t^652 is irreducible over F_2 (2 is primitive mod
        # 653) and has order 653, so it divides t^1959 - 1 exactly once
        place = ",".join(["1"] * 653)
        result = run_child("count", "--p", "2", "--system", "explicit", "--place", place,
                           "--n", "1959", timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"n": 1959, "e": 1307, "count": str(2**1307)}
