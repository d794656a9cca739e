import csv
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricmld import DEFAULT_GUARD, GUARD, Lattice, example_family, find_witness, mld
from toricmld import cli
from toricmld.cli import (
    EXIT_ERROR,
    EXIT_INEQUALITY,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_PRECONDITION,
    build_parser,
    load_instance,
    main,
)

F = Fraction
# 1/r(w, 1, 1) with m = 3 and r = 100,519,501, drawn as the benchmark's
# witness_deep cases are: T = 596,918 and k* = 51,719
DEEP = str(Path(__file__).parent / "golden" / "witness_deep_m3.json")
DEEP_STDOUT_SHA256 = "0476336768538909001b7c94bf5f0f3f161671cb9092c5071e29bd110cd2f80c"
# 1/1000003(1, 2, 3): mld takes the width engine, the oracle one round
ORACLE_LARGE = str(Path(__file__).parent / "golden" / "oracle_large.json")
ORACLE_LARGE_STDOUT_SHA256 = "51a34c74fb28d35295542506f8fdb827041d6b8421a5b23073a2d1d19f0c13e4"
# 1/1000003(1, 1, 1, 1): a thin simplex whose witness the oracle meets early
ORACLE_THIN = str(Path(__file__).parent / "golden" / "oracle_thin.json")
ORACLE_THIN_STDOUT_SHA256 = "93ff42c836e45cc439fa45ed23d0962a39c416244939df9aa0a0bdbeea6f4f7a"
# family l = 3 in another fiber basis, with base rays sheared by (-1, 2) and
# (2, 2): it validates, and its witness meets the bound
SHEARED = str(Path(__file__).parent / "golden" / "mfs_sheared_bound.json")
SHEARED_STDOUT_SHA256 = "d0df364722896ab7eb05df189aa2bcad6e753591dd99f6787a41ebf806501d16"
SHEARED_VALIDATE_SHA256 = "4822ea39c2c41797e09e21e89934a5b7ab290b6138b0b2c19ccfa4e5fa630498"
# Z^3 onto Z^2 + (1/2, 0) + (0, 1/3): the one CLI output that goes through snf
COKERNEL = str(Path(__file__).parent / "golden" / "mfs_cokernel.json")
COLLINEAR = str(Path(__file__).parent / "golden" / "mfs_degenerate_collinear.json")
FACET = str(Path(__file__).parent / "golden" / "mfs_degenerate_facet.json")
DUPLICATE = str(Path(__file__).parent / "golden" / "mfs_degenerate_duplicate.json")
ZERO_RAY = str(Path(__file__).parent / "golden" / "mfs_degenerate_zero_ray.json")
# the base ray (0, -1) points away from the base cone, so the support is the
# preimage of the opposite half-line
BASE_RAY_NEGATIVE = str(Path(__file__).parent / "golden" / "mfs_base_ray_negative.json")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def quotient_17_doc():
    return {
        "kind": "toric",
        "dim": 2,
        "lattice_generators": [["1/17", "1/17"]],
        "rays": [[1, 0], [0, 1]],
        "max_cones": [[0, 1]],
    }


def family_doc(l):
    r = l**4 + 1
    return {
        "kind": "mfs",
        "m": 2,
        "n": 2,
        "fiber_rays": [[1, 0], [-(l - 1), 1], [-(l - 1), -1]],
        "base_multiples": [1, 1],
        "extra_generators": [[f"{l}/{r}", f"{l * l}/{r}", f"1/{r}", f"1/{r}"]],
    }


def test_mld_quotient(tmp_path, capsys):
    path = write(tmp_path, "q17.json", quotient_17_doc())
    assert main(["mld", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mld = 2/17" in out
    assert "witness = (1/17, 1/17)" in out


def test_mld_line_over_a_non_primitive_ray(tmp_path, capsys):
    path = write(tmp_path, "line.json", {"kind": "toric", "dim": 1, "rays": [[2]], "max_cones": [[0]]})
    assert main(["mld", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "mld = 1/2\nwitness = (1)\ncone = 0\n"
    assert captured.err == ""


def test_mld_smooth(tmp_path, capsys):
    doc = {
        "kind": "toric",
        "dim": 3,
        "lattice_generators": [],
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "max_cones": [[0, 1, 2]],
    }
    path = write(tmp_path, "a3.json", doc)
    assert main(["mld", path]) == EXIT_OK
    assert "mld = 1" in capsys.readouterr().out


def test_mld_json_and_bruteforce(tmp_path, capsys):
    path = write(tmp_path, "q17.json", quotient_17_doc())
    assert main(["mld", path, "--brute-force", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["mld"] == "2/17"
    assert doc["witness"] == ["1/17", "1/17"]
    assert doc["method"] == "parallelepiped"


def test_bruteforce_agrees_at_a_large_denominator(capsys):
    assert main(["mld", ORACLE_LARGE, "--brute-force", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["mld"] == "6/1000003"
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_LARGE_STDOUT_SHA256


def test_bruteforce_agrees_on_a_thin_simplex_under_a_small_guard(capsys, monkeypatch):
    monkeypatch.setenv("TORICMLD_GUARD", "1000")
    assert main(["mld", ORACLE_THIN, "--brute-force", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["mld"] == "4/1000003"
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_THIN_STDOUT_SHA256


def test_toric_dim_builds_no_lattice_before_the_rays_are_checked(tmp_path, capsys, monkeypatch):
    # a lattice of dimension d costs O(d^2) time and memory, so a file's
    # "dim" alone, with too few rays or rays of another dimension, builds none
    def spy(*args):
        raise AssertionError("Lattice.from_generators was called")

    monkeypatch.setattr(Lattice, "from_generators", spy)
    big = 10**6
    cases = [
        (
            {"rays": [], "max_cones": []},
            f"error: $: 0 rays span no full-dimensional cone in dimension {big}",
        ),
        (
            {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
            f"error: $: fan dimension 2 does not match lattice dimension {big}",
        ),
        ({"rays": [], "max_cones": [[0]]}, "error: $: ray index out of range in cone (0,)"),
    ]
    for fields, message in cases:
        path = write(tmp_path, "huge.json", {"kind": "toric", "dim": big, **fields})
        assert main(["mld", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


def test_mld_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["mld", str(path)]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_mld_bad_field_path(tmp_path, capsys):
    doc = quotient_17_doc()
    doc["rays"][1] = ["1/0", "1"]
    path = write(tmp_path, "bad.json", doc)
    assert main(["mld", path]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "$.rays[1][0]" in err


@pytest.mark.parametrize("value", ["1e-5", "0.5", " 3", "1_000"])
def test_rationals_are_sign_digits_and_an_optional_denominator(tmp_path, capsys, value):
    # Fraction accepts each of these, and expands an exponent, so that
    # "1e-1000000" would cost time without bound
    doc = quotient_17_doc()
    doc["lattice_generators"] = [[value, "0"]]
    assert main(["mld", write(tmp_path, "exponent.json", doc)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: $.lattice_generators[0][0]: bad rational string {value!r}: ")


def _toric_doc_with(path, value):
    """The 1/17(1, 1) document with the value at ``path`` (a tuple of keys and
    indices) replaced, or removed when ``value`` is ``...``."""
    doc = quotient_17_doc()
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("rays", 0, 0), True, "$.rays[0][0]: expected a rational, got a boolean"),
        (("rays", 1, 1), 1.5, "$.rays[1][1]: expected an integer or 'p/q' string, got float"),
        (("dim",), "2", "$.dim: expected an integer, got '2'"),
        (("rays", 1), 7, "$.rays[1]: expected a list"),
        (("max_cones",), {"0": [0, 1]}, "$.max_cones: expected a list of vectors"),
        (("rays",), ..., "$.rays: missing field"),
    ],
    ids=["boolean", "float", "string-int", "vector", "matrix", "missing"],
)
def test_mld_parse_error_names_the_json_path(tmp_path, capsys, path, value, message):
    bad = write(tmp_path, "bad.json", _toric_doc_with(path, value))
    assert main(["mld", bad]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_mld_unreadable_and_non_object_files(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["mld", missing]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: $: cannot read {missing}: ") and err.count("\n") == 1
    listed = write(tmp_path, "list.json", [quotient_17_doc()])
    assert main(["mld", listed]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: $: top level must be an object\n"


def test_mld_guard_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORICMLD_GUARD", "3")
    path = write(tmp_path, "q17.json", quotient_17_doc())
    assert main(["mld", path, "--brute-force"]) == EXIT_ERROR
    assert "guard" in capsys.readouterr().err


def test_mld_guard_env_rejects_nonpositive(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "q17.json", quotient_17_doc())
    for raw in ("0", "-5", "many"):
        monkeypatch.setenv("TORICMLD_GUARD", raw)
        # falls back to the default guard, which the 17-point scan fits in
        assert main(["mld", path, "--brute-force"]) == EXIT_OK
        captured = capsys.readouterr()
        assert f"warning: ignoring bad TORICMLD_GUARD={raw!r}" in captured.err
        assert "mld = 2/17" in captured.out


def test_mld_guard_env_bounds_the_bruteforce_oracle(tmp_path, capsys, monkeypatch):
    # smooth A^3 has a trivial quotient, so the sweep visits nothing and
    # only the box scan of the oracle can exceed the guard
    doc = {
        "kind": "toric",
        "dim": 3,
        "lattice_generators": [],
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "max_cones": [[0, 1, 2]],
    }
    path = write(tmp_path, "a3.json", doc)
    monkeypatch.setenv("TORICMLD_GUARD", "3")
    assert main(["mld", path]) == EXIT_OK
    assert main(["mld", path, "--brute-force"]) == EXIT_ERROR
    assert "enumeration exceeded guard of 3 points" in capsys.readouterr().err


def test_mld_guard_env_bounds_the_sweep(tmp_path, capsys, monkeypatch):
    # every nonzero coset of 1/r(1, r-1) ties with the rays at value 1; the
    # width engine settles the tie well within the guard
    r = 10**12
    doc = dict(quotient_17_doc(), lattice_generators=[[f"1/{r}", f"{r - 1}/{r}"]])
    path = write(tmp_path, "tie.json", doc)
    monkeypatch.setenv("TORICMLD_GUARD", "1000")
    assert main(["mld", path]) == EXIT_OK
    assert capsys.readouterr().out == "mld = 1\nwitness = (0, 1)\ncone = 0\n"
    # the engine's work on the family at l = 20 is exactly 60 units
    path = write(tmp_path, "fam20.json", family_doc(20))
    monkeypatch.setenv("TORICMLD_GUARD", "60")
    assert main(["mld", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("mld = 8022/160001\n")
    monkeypatch.setenv("TORICMLD_GUARD", "59")
    assert main(["mld", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mld sweep exceeded guard of 59 points\n"


def test_family_guard_env_admits_the_cheaper_engine(capsys, monkeypatch):
    # at l = 11 the sweep would visit 2,962 points of X's largest cone, so
    # that cone takes the width engine, and its 44 units for X set the
    # boundary; mld(Y) sweeps the 2 points up to its first Hermite row
    monkeypatch.setenv("TORICMLD_GUARD", "44")
    assert main(["family", "--l", "11"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("mld_X = 672/7321\nmld_Y = 1/7321\n")
    monkeypatch.setenv("TORICMLD_GUARD", "43")
    assert main(["family", "--l", "11"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: mld sweep exceeded guard of 43 points\n"


def test_validate_guard_env_bounds_the_set_up_of_a_wide_fibration(tmp_path, capsys, monkeypatch):
    # the set-up of a fibration is cubic in m + n; past dimension 4 its cube
    # is held against the guard before any lattice is built
    def spy(*args):
        raise AssertionError("Lattice.from_generators was called")

    n = 200
    doc = {"kind": "mfs", "m": 1, "n": n, "fiber_rays": [[1], [-1]], "base_multiples": [1] * n, "extra_generators": []}
    path = write(tmp_path, "wide.json", doc)
    monkeypatch.setattr(Lattice, "from_generators", spy)
    monkeypatch.setenv("TORICMLD_GUARD", "1000")
    assert main(["validate", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fibration set-up of dimension 201 exceeded guard of 1000 points\n"


def test_family_guard_env_bounds_the_sweep(capsys, monkeypatch):
    monkeypatch.setenv("TORICMLD_GUARD", "3")
    assert main(["family", "--l", "3"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mld sweep exceeded guard of 3 points\n"


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--l-min", "3", "--l-max", "3"], ["witness", "FILE"], ["check", "FILE"]],
)
def test_guard_env_reaches_every_mld_computation(tmp_path, capsys, monkeypatch, argv):
    # sweep, witness and check reach mld only through library calls that
    # take no guard argument; the guard still bounds them (witness's mld(Y)
    # spends 2 units, so guard 1)
    path = write(tmp_path, "fam3.json", family_doc(3))
    monkeypatch.setenv("TORICMLD_GUARD", "1")
    assert main([path if a == "FILE" else a for a in argv]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mld sweep exceeded guard of 1 points\n"


def test_witness_guard_env_bounds_the_scan(capsys, monkeypatch):
    # mld(Y) takes far fewer units than k*, so only the scan can exceed these
    monkeypatch.setenv("TORICMLD_GUARD", "51718")
    assert main(["witness", DEEP]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: witness scan exceeded guard of 51718 multiples\n"
    monkeypatch.setenv("TORICMLD_GUARD", "51719")
    assert main(["witness", DEEP]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pair = (i=0, j=51719)\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_STDOUT_SHA256


def test_guard_env_is_reset_after_each_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORICMLD_GUARD", "3")
    assert main(["family", "--l", "3"]) == EXIT_ERROR
    capsys.readouterr()
    assert GUARD.get() == DEFAULT_GUARD
    assert mld(example_family(3).x).value == F(16, 41)


def test_parser_is_built_once_and_each_command_keeps_its_own_arguments(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    path = write(tmp_path, "q17.json", quotient_17_doc())
    assert main(["mld", path, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["mld"] == "2/17"
    assert main(["mld", path]) == EXIT_OK  # --json does not stick
    assert capsys.readouterr().out == "mld = 2/17\nwitness = (1/17, 1/17)\ncone = 0\n"
    monkeypatch.setenv("TORICMLD_GUARD", "3")
    assert main(["sweep", "--l-min", "3", "--l-max", "3"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: mld sweep exceeded guard of 3 points\n"
    monkeypatch.delenv("TORICMLD_GUARD")
    assert main(["family", "--l", "3", "--emit", "summary"]) == EXIT_OK
    assert "mld_X = 16/41" in capsys.readouterr().out


def test_validate_family(tmp_path, capsys):
    path = write(tmp_path, "fam3.json", family_doc(3))
    assert main(["validate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert out.count("PASS") >= 8


def test_validate_shifted_fiber(tmp_path, capsys):
    doc = family_doc(2)
    doc["fiber_rays"] = [[1, 0], [0, 1], [1, 1]]
    path = write(tmp_path, "shifted.json", doc)
    assert main(["validate", path]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "FAIL  fiber_simplex" in out


def test_validate_six_rays(tmp_path, capsys):
    doc = family_doc(2)
    doc["rays"] = [
        ["1", "0", "0", "0"],
        ["-1", "1", "0", "0"],
        ["-1", "-1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["1", "1", "0", "0"],
    ]
    doc["max_cones"] = [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [5, 0, 3, 4]]
    path = write(tmp_path, "sixrays.json", doc)
    assert main(["validate", path]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "FAIL  ray_count" in out
    assert "6 rays, expected 5" in out


def test_family_summary(capsys):
    assert main(["family", "--l", "2", "--emit", "summary"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r = 17" in out
    assert "mld_Y = 2/17" in out
    assert "mld_X = 12/17" in out


def test_family_json_roundtrip(tmp_path, capsys):
    assert main(["family", "--l", "2", "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    path = write(tmp_path, "fam2.json", doc)
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    instance = load_instance(path)
    assert mld(instance.x).value == F(12, 17)


def test_family_json_builds_no_fibration(capsys, monkeypatch):
    import toricmld.cli as cli_mod

    def no_build(l):
        raise AssertionError("family --emit json built the fibration")

    monkeypatch.setattr(cli_mod, "example_family", no_build)
    assert main(["family", "--l", "40", "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["extra_generators"] == [["40/2560001", "1600/2560001", "1/2560001", "1/2560001"]]


def test_family_bad_parameter(capsys):
    assert main(["family", "--l", "1"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_toric_serialization_roundtrip(tmp_path):
    # a toric file of a variety's lattice basis, rays and cones reads back as it
    x = example_family(2).x
    doc = {
        "kind": "toric",
        "dim": x.dim,
        "lattice_generators": [[str(c) for c in row] for row in x.lattice.basis],
        "rays": [[str(c) for c in r] for r in x.fan.rays],
        "max_cones": [list(c.ray_indices) for c in x.fan.max_cones],
    }
    parsed = load_instance(write(tmp_path, "famx.json", doc))
    assert parsed.lattice == x.lattice
    assert parsed.fan.rays == x.fan.rays
    assert parsed.fan.max_cones == x.fan.max_cones


@pytest.mark.parametrize("argv", [
    ["mld"],
    ["witness", SHEARED, "--delta", "-1/2"],  # argparse reads -1/2 as an option
    ["frobnicate"],
    ["family", "--l", "x"],
], ids=["missing-path", "negative-delta", "unknown-command", "bad-int"])
def test_usage_errors_exit_1_with_one_error_line(argv, capsys):
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: toricmld") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: toricmld")


def test_sweep_stdout_is_the_same_on_every_python(capsys):
    # recorded on Python 3.11.7; the slope column adds its floats left to
    # right, so Python 3.12's compensated built-in sum cannot change a digit
    golden = Path(__file__).parent / "golden" / "sweep_l2_30.csv"
    assert main(["sweep", "--l-min", "2", "--l-max", "30"]) == EXIT_OK
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l-min", "2", "--l-max", "4", "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "l,r,mld_X,mld_Y,ratio_y_over_x4,slope_running"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert rows[0]["mld_Y"] == "2/17"
    assert rows[0]["mld_X"] == "12/17"
    assert rows[0]["slope_running"] == ""
    assert rows[1]["slope_running"] != ""
    # exact columns round-trip through Fraction parsing
    for row in rows:
        F(row["mld_X"])
        F(row["mld_Y"])


def test_sweep_out_into_a_missing_directory(tmp_path, capsys):
    out = str(tmp_path / "missing" / "sweep.csv")
    assert main(["sweep", "--l-min", "2", "--l-max", "3", "--out", out]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ") and captured.err.count("\n") == 1


def test_sweep_single_row(capsys):
    assert main(["sweep", "--l-min", "3", "--l-max", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith(",")  # slope column empty for a single row


def test_witness_auto(tmp_path, capsys):
    path = write(tmp_path, "fam4.json", family_doc(4))
    assert main(["witness", path, "--delta", "auto"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A = (1/257, 1/257)" in out
    assert "bound_satisfied = true" in out


def test_witness_precondition(tmp_path, capsys):
    doc = {
        "kind": "mfs",
        "m": 1,
        "n": 1,
        "fiber_rays": [[1], [-1]],
        "base_multiples": [1],
        "extra_generators": [],
    }
    path = write(tmp_path, "smooth.json", doc)
    assert main(["witness", path, "--delta", "1/1000000"]) == EXIT_PRECONDITION


def test_witness_bound_approx_survives_a_delta_below_the_normal_floats(tmp_path, capsys):
    # over 1/R(1, 1), R = 10^400 + 1, delta = 2/R rounds to 0.0 as a float;
    # the bound 2 (2/R)^(1/2) is read off the logs of the exact integers
    r = 10**400 + 1
    doc = {
        "kind": "mfs",
        "m": 1,
        "n": 2,
        "fiber_rays": [[1], [-1]],
        "base_multiples": [1, 1],
        "extra_generators": [["0", f"1/{r}", f"1/{r}"]],
    }
    path = write(tmp_path, "tiny_delta.json", doc)
    assert main(["witness", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"ld(Q) = 2/{r}\n" in out
    assert "bound = 2 * delta^(1/2) ~ 2.82843e-200\n" in out


def test_witness_bound_approx_survives_a_delta_past_the_float_range(capsys):
    # float(10^400) overflows; the bound 8 (10^400)^(1/3) is read off the logs
    assert main(["witness", SHEARED, f"--delta={10**400}"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "bound = 8 * delta^(1/3) ~ 1.72355e+134\n" in captured.out
    assert captured.err == ""


def test_witness_meets_its_bound_on_the_sheared_golden(capsys):
    # the scan runs on b - s, s the fiber part of the point over A on X's
    # sheared base rays, so ld(Q) = 21/41 is within 8 (1/41)^(1/3)
    assert main(["check", SHEARED]) == EXIT_OK
    capsys.readouterr()
    assert main(["witness", SHEARED]) == EXIT_OK
    captured = capsys.readouterr()
    assert "pair = (i=0, j=2)\nQ = (12/41, 13/41, 1/41, 1/41)\n" in captured.out
    assert "ld(Q) = 21/41\n" in captured.out
    assert captured.out.endswith("bound_satisfied = true\n")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SHEARED_STDOUT_SHA256
    assert captured.err == ""


def test_witness_exits_4_when_its_bound_fails(capsys, monkeypatch):
    # no validated fibration misses the bound, so a report that does is fed in
    def missed(mfs, delta):
        return dataclasses.replace(find_witness(mfs, delta), bound_satisfied=False)

    monkeypatch.setattr(cli, "find_witness", missed)
    assert main(["witness", SHEARED]) == EXIT_INEQUALITY
    captured = capsys.readouterr()
    assert "ld(Q) = 21/41\n" in captured.out  # the full report still goes to stdout
    assert captured.out.endswith("bound_satisfied = false\n")
    assert captured.err == "error: witness bound violated: ld(Q) exceeds (C+1) * delta^(1/(m+1))\n"


def test_validate_reads_the_barycentrics_off_a_sheared_cone(capsys):
    # the report's fiber_simplex comes off the stored inverse of the override
    # cone omitting the first fiber ray, whose base rays are sheared
    assert main(["validate", SHEARED]) == EXIT_OK
    captured = capsys.readouterr()
    assert "fiber_simplex         origin barycentrics ('2/3', '1/6', '1/6')\n" in captured.out
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SHEARED_VALIDATE_SHA256
    assert captured.err == ""


def line_doc(**fields):
    doc = {
        "kind": "mfs",
        "m": 1,
        "n": 1,
        "fiber_rays": [[1], [-1]],
        "base_multiples": [1],
        "extra_generators": [],
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize("multiples", [[0], [1, 1], [-2]], ids=["zero", "two", "negative"])
def test_validate_rejects_bad_base_multiples(tmp_path, capsys, multiples):
    # validate assembles without the geometric gates, but not without the
    # shape checks: it rejects what mld, witness and check reject
    path = write(tmp_path, "bad.json", line_doc(base_multiples=multiples))
    for command in ("validate", "mld", "witness", "check"):
        assert main([command, path]) == EXIT_ERROR, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: base multiples must be n positive integers\n", command


def test_validate_warns_on_non_primitive_fiber_ray(tmp_path, capsys):
    # validate reports on the primitive ray, so it must say that it replaced
    # the file's ray, as mld, witness and check do
    path = write(tmp_path, "nonprim.json", dict(family_doc(2), fiber_rays=[[2, 0], [-1, 1], [-1, -1]]))
    for command in ("validate", "mld", "witness", "check"):
        with pytest.warns(UserWarning, match=r"fiber ray \(2, 0\) replaced by primitive generator"):
            assert main([command, path]) == EXIT_OK, command
    capsys.readouterr()


def test_validate_reports_non_primitive_rays(tmp_path, capsys):
    # a hand-built fan is taken as given, so rays_primitive must name the ray
    doc = dict(line_doc(), rays=[["2", "0"], ["-1", "0"], ["0", "1"]], max_cones=[[1, 2], [0, 2]])
    path = write(tmp_path, "nonprim_given.json", doc)
    assert main(["validate", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "FAIL  rays_primitive        non-primitive rays: X [0], Y []" in lines
    assert lines[-1] == "overall: FAIL"
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert captured.err == ""


@pytest.mark.parametrize(
    "rays, cones, detail",
    [
        ([["1", "0"], ["-1", "0"], ["0", "-1"]], [[1, 2], [0, 2]], "ray 2 does not map onto a base axis ray"),
        ([["1", "0"], ["-1", "0"], ["0", "1"], ["1", "1"]], [[0, 3], [3, 2], [2, 1]], "base axis 1 is hit by two rays"),
    ],
    ids=["negative-axis", "two-rays"],
)
def test_validate_names_a_ray_off_the_base_axes(tmp_path, capsys, rays, cones, detail):
    path = write(tmp_path, "roles.json", dict(line_doc(), rays=rays, max_cones=cones))
    assert main(["validate", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert f"FAIL  ray_roles             {detail}" in lines
    assert lines[-1] == "overall: FAIL"
    assert captured.err == ""


def test_validate_rejects_zero_fiber_dimension(tmp_path, capsys):
    path = write(tmp_path, "m0.json", line_doc(m=0))
    assert main(["validate", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: fiber and base dimensions must be positive"


def test_witness_rejects_zero_denominator_delta(tmp_path, capsys):
    path = write(tmp_path, "fam2.json", family_doc(2))
    assert main(["witness", path, "--delta", "1/0"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: --delta: bad rational string '1/0'")


def test_check_family(tmp_path, capsys):
    path = write(tmp_path, "fam3.json", family_doc(3))
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "holds" in out


def test_check_nonsurjective(tmp_path, capsys):
    doc = {
        "kind": "mfs",
        "m": 1,
        "n": 1,
        "fiber_rays": [[1], [-1]],
        "base_multiples": [2],
        "extra_generators": [],
    }
    path = write(tmp_path, "broken.json", doc)
    assert main(["check", path]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_validate_reports_the_cokernel_in_smith_form(capsys):
    # the cokernel Z/2 x Z/3 only reads [1, 6] once the Smith diagonal is a
    # divisibility chain; stdout is pinned by its sha256 in CI as well
    assert main(["validate", COKERNEL]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "FAIL  lattice_surjectivity  cokernel invariant factors [1, 6]\n" in out
    assert out.endswith("overall: FAIL\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "87d1890a8c0ce971628b8c131798de6bcaacb7d829f1c21112f4c712caae39fa"
    )


def test_validate_reports_a_collinear_fiber_simplex(capsys):
    # (1, 0), (0, 1), (2, -1) lie on one line, but every two of them span a
    # cone, so the fan is built; stdout is pinned by its sha256 in CI too
    assert main(["validate", COLLINEAR]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "FAIL  fiber_simplex         fiber vertices are affinely degenerate\n" in out
    assert [line[:4] for line in out.splitlines()] == ["PASS"] * 3 + ["FAIL"] + ["PASS"] * 3 + ["FAIL", "over"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "37b2942318b748fb152d596bdbbd730599d7862b737b958d87e8dda0f390a687"
    )


def test_validate_fails_properness_on_a_base_ray_off_the_base_cone(capsys):
    # fiber_simplex and cone_shape pass here, so ray_roles alone is the
    # cause; stdout is pinned by its sha256 in CI too
    assert main(["validate", BASE_RAY_NEGATIVE]) == EXIT_ERROR
    out = capsys.readouterr().out
    assert "FAIL  ray_roles             ray 2 does not map onto a base axis ray\n" in out
    assert "FAIL  properness_support    support condition fails (see ray_roles)\n" in out
    assert [line[:4] for line in out.splitlines()] == ["PASS", "FAIL"] + ["PASS"] * 5 + ["FAIL", "over"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f5ffc66aebe8222c34ceff80e53efa83ff4270832169a6beb150541d33f40910"
    )


def test_validate_rejects_a_fiber_facet_through_the_origin(capsys):
    # (1, 0) and (-1, 0) span no cone, so the cone omitting (0, 1) fails
    assert main(["validate", FACET]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: cone (0, 1, 3) generators are dependent\n"


@pytest.mark.parametrize(
    "path, message",
    [
        (DUPLICATE, "duplicate rays in fan"),  # (1, 0) and (2, 0) have one primitive ray
        (ZERO_RAY, "cannot primitivize the zero vector"),
    ],
)
def test_validate_rejects_a_fiber_ray_that_spans_no_simplex(path, message, capsys):
    assert main(["validate", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $: {message}\n"


@pytest.mark.parametrize("path", [COLLINEAR, FACET, DUPLICATE, ZERO_RAY])
def test_mld_rejects_a_degenerate_fiber_simplex(path, capsys):
    assert main(["mld", path]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: fiber rays must form a simplex with the origin strictly inside\n"
    )


def test_unknown_kind(tmp_path):
    path = write(tmp_path, "odd.json", {"kind": "mystery"})
    assert main(["mld", path]) == EXIT_ERROR


def test_sweep_csv_lf_line_endings(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--l-min", "2", "--l-max", "3", "--out", str(out)]) == EXIT_OK
    assert b"\r" not in out.read_bytes()


def test_mld_oracle_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # force a disagreement to exercise the mismatch exit path
    import toricmld.cli as cli_mod
    from toricmld.mld import MldResult

    path = write(tmp_path, "q17.json", quotient_17_doc())

    def fake_bruteforce(variety):
        return MldResult(value=F(1, 3), witness=(F(1), F(0)), cone_index=0, method="bruteforce")

    monkeypatch.setattr(cli_mod, "mld_bruteforce", fake_bruteforce)
    assert main(["mld", path, "--brute-force"]) == EXIT_ORACLE_MISMATCH
    assert "mismatch" in capsys.readouterr().err


def test_check_inequality_violation_exit_code(tmp_path, capsys, monkeypatch):
    # no genuine instance violates the inequality, so fake a certificate
    import toricmld.cli as cli_mod
    from toricmld.witness import EpsDeltaCertificate

    path = write(tmp_path, "fam2.json", family_doc(2))
    real = cli_mod.check_eps_delta

    def fake_check(instance):
        cert = real(instance)
        return EpsDeltaCertificate(
            holds=False, mld_x=cert.mld_x, mld_y=cert.mld_y,
            c_z=cert.c_z, lhs=cert.lhs, rhs=cert.rhs,
        )

    monkeypatch.setattr(cli_mod, "check_eps_delta", fake_check)
    assert main(["check", path]) == EXIT_INEQUALITY
    assert "violated" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_ERROR, EXIT_ORACLE_MISMATCH, EXIT_PRECONDITION, EXIT_INEQUALITY}) == 5
