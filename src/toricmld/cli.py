"""Command-line front end and the JSON/CSV interchange formats.

Instance files are JSON with a "kind" discriminator:

  toric: {"kind": "toric", "dim": d,
          "lattice_generators": [["p/q", ...], ...],
          "rays": [["p/q", ...], ...],
          "max_cones": [[ray indices], ...]}

  mfs:   {"kind": "mfs", "m": m, "n": n,
          "fiber_rays": [[int, ...], ...],
          "base_multiples": [int, ...],
          "extra_generators": [["p/q", ...], ...],
          optional "rays" / "max_cones" overriding the derived fan}

Rationals are serialized as strings ("2/17", "3") so round-trips are
bit-exact, and read, in files and --delta, only in the form [sign]digits
[/digits]; decimal output appears only in the explicitly approximate CSV
columns.  stdout carries data, stderr carries diagnostics.

Exit codes: 0 success, 1 usage/parse/validation/runtime error, 2 oracle mismatch
(mld --brute-force), 3 witness precondition violated, 4 threshold inequality
violated (check) or witness bound not satisfied (witness, after printing the
full report).  The environment variable TORICMLD_GUARD, a positive integer,
sets ``mld.GUARD`` for the command: the work guard of every mld
computation, witness scan and fibration set-up it runs (default 10^7 units
each: the sweep counts points, the box scan nodes and box points over its
rounds, the width engine search-tree nodes, the witness scan multiples, a
set-up of dimension m + n above 4 the cube of m + n).  Each charges a unit
before the work it counts and raises at the first unit past the guard; the
command then exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Lattice
from .mfs import (
    BadParameterError,
    FamilySweepRow,
    ToricMfs,
    assemble_mfs,
    example_family,
    family_spec,
    loglog_slope,
    make_mfs,
    sweep_family,
    warn_replaced_rays,
)
from .mld import DEFAULT_GUARD, GUARD, mld, mld_bruteforce
from .toric import DimensionMismatchError, Fan, NonSimplicialError, ToricVariety
from .witness import PreconditionFailedError, check_eps_delta, find_witness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ORACLE_MISMATCH = 2
EXIT_PRECONDITION = 3
EXIT_INEQUALITY = 4


class InstanceParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


def _parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise InstanceParseError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:  # no exponent to expand: work grows with the string's length only
            if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
                raise ValueError("expected an optional sign, digits and an optional /digits")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceParseError(path, f"bad rational string {value!r}: {exc}")
    raise InstanceParseError(path, f"expected an integer or 'p/q' string, got {type(value).__name__}")


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceParseError(path, f"expected an integer, got {value!r}")
    return value


def _parse_vector(value, path: str, parse=_parse_rational) -> tuple:
    if not isinstance(value, list):
        raise InstanceParseError(path, "expected a list")
    return tuple(parse(x, f"{path}[{i}]") for i, x in enumerate(value))


def _parse_matrix(value, path: str, parse=_parse_rational) -> list:
    if not isinstance(value, list):
        raise InstanceParseError(path, "expected a list of vectors")
    return [_parse_vector(row, f"{path}[{i}]", parse) for i, row in enumerate(value)]


def _get(doc: dict, key: str, path: str = "$"):
    if key not in doc:
        raise InstanceParseError(f"{path}.{key}", "missing field")
    return doc[key]


def serialize_mfs(m: int, n: int, fiber_rays, base_multiples, extra_generators) -> dict:
    return {
        "kind": "mfs",
        "m": m,
        "n": n,
        "fiber_rays": [[int(c) for c in v] for v in fiber_rays],
        "base_multiples": [int(c) for c in base_multiples],
        "extra_generators": [
            [str(Fraction(x)) for x in g] for g in extra_generators
        ],
    }


def parse_toric(doc: dict) -> ToricVariety:
    dim = _parse_int(_get(doc, "dim"), "$.dim")
    gens = _parse_matrix(doc.get("lattice_generators", []), "$.lattice_generators")
    rays = _parse_matrix(_get(doc, "rays"), "$.rays")
    cones = _parse_matrix(_get(doc, "max_cones"), "$.max_cones", parse=_parse_int)
    try:
        # the fan first: the lattice costs O(dim^2), so it is built only once
        # the file holds at least dim rays of dimension dim
        fan = Fan.build(rays, [list(c) for c in cones])
        count = len(fan.integral[0])
        if count and fan.dim != dim:
            raise DimensionMismatchError(
                f"fan dimension {fan.dim} does not match lattice dimension {dim}"
            )
        if count < dim:
            raise NonSimplicialError(f"{count} rays span no full-dimensional cone in dimension {dim}")
        return ToricVariety(Lattice.from_generators(dim, gens), fan)
    except ValueError as exc:
        raise InstanceParseError("$", str(exc))


def _assemble_mfs(doc: dict, strict: bool) -> ToricMfs:
    m = _parse_int(_get(doc, "m"), "$.m")
    n = _parse_int(_get(doc, "n"), "$.n")
    fiber_rays = _parse_matrix(_get(doc, "fiber_rays"), "$.fiber_rays", parse=_parse_int)
    base_multiples = _parse_vector(
        _get(doc, "base_multiples"), "$.base_multiples", parse=_parse_int
    )
    extras = _parse_matrix(doc.get("extra_generators", []), "$.extra_generators")
    rays = _parse_matrix(doc["rays"], "$.rays") if "rays" in doc else None
    cones = (
        _parse_matrix(doc["max_cones"], "$.max_cones", parse=_parse_int)
        if "max_cones" in doc
        else None
    )
    if strict and rays is None and cones is None:
        return make_mfs(m, n, fiber_rays, base_multiples, extras)
    # assemble without the geometric gates so that validate() can report
    # exactly which structural check fails; bad parameter shapes still raise
    try:
        mfs = assemble_mfs(m, n, fiber_rays, base_multiples, extras, rays, cones)
    except BadParameterError:
        raise
    except ValueError as exc:
        raise InstanceParseError("$", str(exc))
    if rays is None:
        warn_replaced_rays(mfs, fiber_rays)
    if strict:
        report = mfs.report
        if not report.overall:
            failed = [c.name for c in report.checks if not c.passed]
            raise InstanceParseError("$", f"instance fails validation: {failed}")
    return mfs


def load_instance(path: str, strict: bool = True):
    """Parse an instance file into a ToricVariety or ToricMfs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceParseError("$", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InstanceParseError("$", f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise InstanceParseError("$", "top level must be an object")
    kind = _get(doc, "kind")
    if kind == "toric":
        return parse_toric(doc)
    if kind == "mfs":
        return _assemble_mfs(doc, strict=strict)
    raise InstanceParseError("$.kind", f"unknown kind {kind!r}")


def _guard() -> int:
    raw = os.environ.get("TORICMLD_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        guard = int(raw)
    except ValueError:
        guard = 0
    if guard > 0:
        return guard
    print(f"warning: ignoring bad TORICMLD_GUARD={raw!r}", file=sys.stderr)
    return DEFAULT_GUARD


def _load_mfs(args, strict: bool = True) -> ToricMfs:
    instance = load_instance(args.path, strict=strict)
    if not isinstance(instance, ToricMfs):
        raise InstanceParseError("$.kind", f"{args.command} needs an mfs instance")
    return instance


def cmd_mld(args) -> int:
    instance = load_instance(args.path)
    variety = instance.x if isinstance(instance, ToricMfs) else instance
    result = mld(variety)
    if args.brute_force:
        oracle = mld_bruteforce(variety)
        if oracle.value != result.value or oracle.witness != result.witness:
            print(
                "oracle mismatch:\n"
                f"  parallelepiped: {result.value} at {tuple(map(str, result.witness))}\n"
                f"  bruteforce:     {oracle.value} at {tuple(map(str, oracle.witness))}",
                file=sys.stderr,
            )
            return EXIT_ORACLE_MISMATCH
    if args.json:
        print(
            json.dumps(
                {
                    "mld": str(result.value),
                    "witness": [str(x) for x in result.witness],
                    "cone_index": result.cone_index,
                    "method": result.method,
                }
            )
        )
    else:
        print(f"mld = {result.value}")
        print(f"witness = ({', '.join(str(x) for x in result.witness)})")
        print(f"cone = {result.cone_index}")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _load_mfs(args, strict=False)
    report = instance.report
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return EXIT_OK if report.overall else EXIT_ERROR


def cmd_family(args) -> int:
    if args.emit == "json":
        print(json.dumps(serialize_mfs(**family_spec(args.l)), indent=2))
        return EXIT_OK
    fam = example_family(args.l)
    mx = mld(fam.x)
    my = mld(fam.y)
    print(f"l = {args.l}")
    print(f"r = {fam.y.lattice.index_over_standard}")
    print(f"rays = {len(fam.x.fan.integral[0])}")
    print(f"max_cones = {len(fam.x.fan.max_cones)}")
    print(f"mld_X = {mx.value}")
    print(f"mld_Y = {my.value}")
    return EXIT_OK


SWEEP_HEADER = ["l", "r", "mld_X", "mld_Y", "ratio_y_over_x4", "slope_running"]


def write_sweep_csv(rows: Sequence[FamilySweepRow], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    history: list[tuple[Fraction, Fraction]] = []
    for row in rows:
        history.append((row.mld_x, row.mld_y))
        slope = loglog_slope(history)
        writer.writerow(
            [
                row.l,
                row.r,
                str(row.mld_x),
                str(row.mld_y),
                repr(row.ratio_approx),
                "" if slope is None else repr(slope),
            ]
        )


def cmd_sweep(args) -> int:
    rows = sweep_family(args.l_min, args.l_max)
    if args.out == "-":
        write_sweep_csv(rows, sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_sweep_csv(rows, fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_witness(args) -> int:
    instance = _load_mfs(args)
    delta = None if args.delta == "auto" else _parse_rational(args.delta, "--delta")
    try:
        report = find_witness(instance, delta)
    except PreconditionFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    vec = lambda v: "(" + ", ".join(str(x) for x in v) + ")"
    m = instance.m
    print(f"A = {vec(report.base_point)}")
    print(f"P = {vec(report.lift)}")
    print(f"t = {report.t}")
    print(f"pair = (i={report.pair[0]}, j={report.pair[1]})")
    print(f"Q = {vec(report.q)}")
    print(f"Q_fiber = {vec(report.q_fiber)}")
    print(f"cone = {report.cone_index}")
    print(f"ld(Q) = {report.ld_q}")
    print(
        f"bound = {report.bound_coefficient} * delta^(1/{m + 1})"
        f" ~ {report.bound_approx:.6g}"
    )
    print(
        f"bound check (exact powers): ld(Q)^{m + 1} = {report.ld_q ** (m + 1)}"
        f" vs {report.bound_power}"
    )
    print(f"bound_satisfied = {str(report.bound_satisfied).lower()}")
    if not report.bound_satisfied:
        print("error: witness bound violated: ld(Q) exceeds (C+1) * delta^(1/(m+1))", file=sys.stderr)
        return EXIT_INEQUALITY
    return EXIT_OK


def cmd_check(args) -> int:
    instance = _load_mfs(args)
    cert = check_eps_delta(instance)
    m = instance.m
    print(f"mld_X = {cert.mld_x.value}")
    print(f"mld_Y = {cert.mld_y.value}")
    print(f"C = {cert.c_z}")
    print(
        f"inequality: mld_X^{m + 1} = {cert.lhs} <= (C+1)^{m + 1} * mld_Y = {cert.rhs}: "
        f"{'holds' if cert.holds else 'VIOLATED'}"
    )
    if not cert.holds:
        print(
            "error: threshold inequality violated; this indicates a bug or a"
            " genuine counterexample",
            file=sys.stderr,
        )
        return EXIT_INEQUALITY
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 through main, as any other error
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each subcommand looks its library calls up when it runs.  Its
    subparsers share its class, so a usage error anywhere raises ValueError."""
    parser = _Parser(
        prog="toricmld",
        description="Exact minimal log discrepancies of simplicial toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mld", help="compute the minimal log discrepancy of an instance")
    p.add_argument("path")
    p.add_argument("--brute-force", action="store_true", help="cross-check with the box-scan oracle")
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.set_defaults(func=cmd_mld)

    p = sub.add_parser("validate", help="run the fibration normal-form checks")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("family", help="emit a member of the quartic-gap family")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--emit", choices=["json", "summary"], default="summary")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("sweep", help="sweep the family and emit CSV")
    p.add_argument("--l-min", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("witness", help="run the box-principle witness construction")
    p.add_argument("path")
    p.add_argument("--delta", default="auto", help="'auto' (= base mld) or an exact 'p/q'")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("check", help="exact threshold inequality certificate")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    token = GUARD.set(_guard())
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        GUARD.reset(token)


if __name__ == "__main__":
    sys.exit(main())
