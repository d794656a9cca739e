"""Workloads of the toricmld benchmark: inputs drawn from a seed, the timed
calls, and the checks on their outputs.

A workload is a list of cases.  Each case carries plain input data (``spec``)
and three callables: ``prepare`` builds the library objects the timed call
needs, outside the timing; ``run`` is the timed call; ``check`` verifies the
output outside the timing and returns it as canonical text, or raises
``Miss``.  Library objects cache derived data (lattice and cone inverses), so
every pass prepares fresh objects and every timed call starts cold.

The library is passed in as ``tm`` (the imported ``toricmld`` package) and
every call goes through its module attributes, so the traced run's wrappers
see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_family.json")

WORKLOADS = ("family", "oracle_mix", "witness_deep")
LARGEST_REPEAT = 101


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; ``FULL`` is the benchmark's setting."""

    family_l_top: int
    cyclic_r_max: int
    affine_count: int
    fibration_count: int
    deep_r_range: tuple[int, int]
    deep_strata: int


FULL = Sizes(
    family_l_top=14,
    cyclic_r_max=1000,
    affine_count=500,
    fibration_count=200,
    deep_r_range=(95_000, 105_000),
    deep_strata=5,
)
# A few seconds of work, for the benchmark's own tests.
SMALL = Sizes(
    family_l_top=6,
    cyclic_r_max=60,
    affine_count=20,
    fibration_count=10,
    deep_r_range=(950, 1050),
    deep_strata=2,
)


class Miss(Exception):
    """An output failed its check."""


@dataclass
class Case:
    key: str
    size: object  # comparable; the case with the largest size is the workload's largest instance
    spec: object  # plain input data
    prepare: Callable
    run: Callable
    check: Callable
    repeat: int = 1  # timed runs per pass, for cases too short to time once (see run.run_pass)


@dataclass
class Workload:
    name: str
    cases: list[Case]

    def input_digest(self) -> str:
        """Digest of the inputs in run order; it changes with the seed."""
        return digest(f"{c.key}\t{c.spec!r}" for c in self.cases)

    def largest(self) -> Case:
        return max(self.cases, key=lambda c: c.size)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def build(name: str, seed: int, tm, workdir: str, sizes: Sizes = FULL) -> Workload:
    """Draw the named workload's inputs from ``seed`` and build its cases."""
    rng = random.Random(seed)
    cases = {"family": _family, "oracle_mix": _oracle_mix, "witness_deep": _witness_deep}[name]
    return Workload(name, cases(tm, rng, workdir, sizes))


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Miss(what)


# -- family: the quartic-gap family through the CLI ----------------------------


def _cli(tm, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tm.cli.main(argv)
    return code, out.getvalue()


def _family(tm, rng, workdir, sizes):
    """``toricmld family --l L --emit summary`` and ``toricmld witness FILE``
    for l = 2..top in a seeded order.  The instance files are written in
    set-up by ``family --emit json``.  Most of the time is the
    parallelepiped scan of mld(X); the witness pair search is trivial here
    (k* = 1)."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)["l"]
    ls = list(range(2, sizes.family_l_top + 1))
    rng.shuffle(ls)
    paths = {}
    for l in ls:
        code, text = _cli(tm, ["family", "--l", str(l), "--emit", "json"])
        if code != 0:
            raise RuntimeError(f"family --l {l} --emit json exited with {code}")
        paths[l] = os.path.join(workdir, f"family-{l}.json")
        with open(paths[l], "w", encoding="utf-8") as fh:
            fh.write(text)

    def prepare(l):
        return l, paths[l]

    def run(prepared):
        l, path = prepared
        code_s, summary = _cli(tm, ["family", "--l", str(l), "--emit", "summary"])
        code_w, witness = _cli(tm, ["witness", path])
        return code_s, summary, code_w, witness

    def check(l, prepared, out):
        code_s, summary, code_w, witness = out
        _require(code_s == 0 and code_w == 0, f"exit codes {code_s}, {code_w}")
        _require(f"mld_Y = {Fraction(2, l**4 + 1)}" in summary.splitlines(), "mld_Y != 2/(l^4+1)")
        pin = pins.get(str(l))
        _require(pin is not None, f"no pinned output for l={l}")
        _require(summary == pin["summary"], "summary differs from the pinned output")
        _require(witness == pin["witness"], "witness output differs from the pinned output")
        _require("bound_satisfied = true" in witness.splitlines(), "bound not satisfied")
        return summary + witness

    return [Case(f"l={l}", l, l, prepare, run, check) for l in ls]


# -- oracle_mix: acceptance-sized instances, construction-heavy ----------------


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def _standard_fiber_rays(m: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(-1,) * m]


def _oracle_mix(tm, rng, workdir, sizes):
    """Cyclic quotients, random affine varieties through the scan and the
    brute-force oracle, and random standard-simplex fibrations built and
    checked end to end.  Every scan is tiny, so construction (normal forms,
    fan building, exact solves) and the oracle dominate.

    The size property is the group order r of the cyclic quotients, so the
    largest instance is 1/r_max(1, 1) in every seed; a random instance would
    change from seed to seed.  It takes about a millisecond, and single
    calls that short are too noisy to compare, so it runs LARGEST_REPEAT
    times per pass."""
    cases = []

    def prepare_cyclic(spec):
        return spec[1]

    def run_cyclic(r):
        return tm.mld_cyclic(r, (1, 1))

    def check_cyclic(spec, r, value):
        _require(value == Fraction(2, r), f"mld_cyclic({r}, (1, 1)) = {value}")
        return str(value)

    for r in range(2, sizes.cyclic_r_max + 1):
        repeat = LARGEST_REPEAT if r == sizes.cyclic_r_max else 1
        cases.append(Case(f"cyclic r={r}", r, ("cyclic", r), prepare_cyclic, run_cyclic, check_cyclic, repeat))

    def prepare_affine(spec):
        _, d, r, w, rows = spec
        lat = tm.Lattice.from_generators(d, [tuple(Fraction(a, r) for a in w)])
        rays = [lat.primitivize(tuple(Fraction(c) for c in row)) for row in rows]
        return tm.ToricVariety(lat, tm.Fan.build(rays, [list(range(d))]))

    def run_affine(variety):
        return tm.mld(variety), tm.mld_bruteforce(variety)

    def check_affine(spec, variety, out):
        scan, oracle = out
        got = (scan.value, scan.witness, scan.cone_index)
        _require(got == (oracle.value, oracle.witness, oracle.cone_index), "scan and oracle disagree")
        return f"{scan.value} {_vec(scan.witness)} {scan.cone_index}"

    for i in range(sizes.affine_count):
        # the acceptance-6 mix: dimension, index bound and entry bound
        d = rng.choice([1, 2, 2, 2, 3, 3, 4])
        max_index = {1: 200, 2: 200, 3: 80, 4: 25}[d]
        bound = 2 if d <= 3 else 1
        r = rng.randint(2, max_index)
        w = [rng.randrange(r) for _ in range(d)]
        w[rng.randrange(d)] = 1
        while True:
            rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d))
            if _det(rows) != 0:  # independent rows stay distinct after primitivizing
                break
        spec = ("affine", d, r, tuple(w), rows)
        cases.append(Case(f"affine {i}", 0, spec, prepare_affine, run_affine, check_affine))

    def run_fibration(spec):
        _, m, n, r, w, mults = spec
        gen = tuple(Fraction(a, r) for a in w)
        mfs = tm.make_mfs(m, n, _standard_fiber_rays(m), mults, [gen])
        return mfs, tm.validate(mfs), tm.check_eps_delta(mfs), tm.find_witness(mfs)

    def check_fibration(spec, prepared, out):
        mfs, report, cert, wit = out
        m = spec[1]
        _require(report.overall, "validate failed")
        _require(cert.holds, "threshold inequality fails")
        _require(cert.lhs == cert.mld_x.value ** (m + 1), "certificate lhs")
        _require(cert.rhs == (2 * m) ** (m + 1) * cert.mld_y.value, "certificate rhs")
        _require(wit.delta == cert.mld_y.value, "witness delta is not mld(Y)")
        _check_witness(tm, mfs, wit)
        # the sharp constant of the standard simplex, in exact powers
        _require(wit.ld_q ** (m + 1) <= (2 * m) ** (m + 1) * wit.delta, "sharp witness bound fails")
        return f"{cert.mld_x.value} {cert.mld_y.value} {wit.pair} {_vec(wit.q)} {wit.ld_q}"

    for i in range(sizes.fibration_count):
        m = rng.choice([1, 2])
        n = rng.choice([1, 2])
        r = rng.randint(2, 500)
        w = [rng.randrange(r) for _ in range(m + n)]
        w[m] = 1  # a unit base weight pins the fiber lattice to Z^m
        spec = ("fibration", m, n, r, tuple(w), _base_multiples(tm, m, n, r, w))
        cases.append(Case(f"fibration {i}", 0, spec, _unchanged, run_fibration, check_fibration))

    rng.shuffle(cases)
    return cases


def _unchanged(spec):
    return spec  # make_mfs runs inside the timed call


def _base_multiples(tm, m, n, r, w) -> tuple[int, ...]:
    """Ratio of each base ray's image to the base lattice's primitive vector."""
    gen = tuple(Fraction(a, r) for a in w)
    x_lat = tm.Lattice.from_generators(m + n, [gen])
    y_lat = tm.Lattice.from_generators(n, [gen[m:]])
    mults = []
    for l in range(n):
        ex = tuple(Fraction(int(j == m + l)) for j in range(m + n))
        ey = tuple(Fraction(int(j == l)) for j in range(n))
        mults.append(int(x_lat.primitivize(ex)[m + l] / y_lat.primitivize(ey)[l]))
    return tuple(mults)


def _check_witness(tm, mfs, wit) -> None:
    """The witness report's self-checks, redone from its output."""
    q = wit.q
    _require(mfs.x.lattice.contains(q), "Q is not a lattice point")
    _require(any(c != 0 for c in q), "Q is zero")
    _require(all(c >= 0 for c in mfs.project(q)), "Q has a negative base part")
    _require(wit.cone_index is not None, "Q is outside the fan")
    _require(tm.log_discrepancy(mfs.x, q) == wit.ld_q, "ld_q != log_discrepancy(Q)")
    _require(wit.bound_satisfied, "bound not satisfied")


# -- witness_deep: the box-principle pair search at small delta ----------------


def _iroot(n: int, k: int) -> int:
    """Largest integer x with x**k <= n (integer Newton from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _first_return(w, r: int, gap_max: int, limit: int):
    """Smallest k in 1..limit with every k*w_l mod r within gap_max of 0 on
    the circle Z/r, or None."""
    x = [0] * len(w)
    for k in range(1, limit + 1):
        ok = True
        for l, wl in enumerate(w):
            x[l] = (x[l] + wl) % r
            if min(x[l], r - x[l]) > gap_max:
                ok = False
        if ok:
            return k
    return None


def _draw_deep(rng, m: int, kappa: float, r_lo: int, r_hi: int):
    """Fiber weights w for 1/r(w, 1, 1) whose pair search stops at k* =
    round(kappa * T).

    With delta = 2/r and b = w/r, the search returns the pair (0, k*) where
    k* is the first k with every |k*b_l| on the torus at most
    delta^(1/(m+1)), that is every k*w_l mod r within gap_max of 0.  Drawing
    those residues for k* and mapping them back by k*^(-1) mod r, then
    rejecting weights with an earlier return, draws w uniformly among the
    weights with that k*.
    """
    while True:
        r = rng.randint(r_lo, r_hi)
        delta = Fraction(2, r)
        num, den = delta.numerator, delta.denominator
        t = max(_iroot(den**m // num**m, m + 1), 1)
        k = max(1, round(kappa * t))
        if math.gcd(k, r) != 1:
            continue
        gap_max = _iroot(num * r ** (m + 1) // den, m + 1)
        inv = pow(k, -1, r)
        w = tuple(rng.randint(-gap_max, gap_max) * inv % r for _ in range(m))
        if _first_return(w, r, gap_max, k) == k:
            return r, w, k, t


def _witness_deep(tm, rng, workdir, sizes):
    """``find_witness`` on fibrations with fiber dimension m in {3, 4} over
    1/r(1, 1), r near 10^5, with standard-simplex fibers.  delta = 2/r is
    small, so T and k* are large and the pair search dominates; mld(X) is
    never computed.

    k*/T is close to exponential with rate 2^m, so the cost of one instance
    varies by an order of magnitude.  Each m gets ``deep_strata``
    equal-probability strata of k*/T and one instance at each stratum's
    midpoint, so every seed runs the same mix of shallow and deep searches.
    The median stratum draws r from the top tenth of the range, so the
    largest instance (largest T) is always the median-depth search at m = 4.
    """
    lo, hi = sizes.deep_r_range
    split = hi - (hi - lo) // 10
    cases = []

    def prepare(spec):
        m, r, w, _, _ = spec
        gen = tuple(Fraction(a, r) for a in w) + (Fraction(1, r), Fraction(1, r))
        return tm.make_mfs(m, 2, _standard_fiber_rays(m), (1, 1), [gen])

    def run(mfs):
        return tm.find_witness(mfs)

    def check(spec, mfs, wit):
        m, r, w, k, t = spec
        a = (Fraction(1, r), Fraction(1, r))
        residues = [k * wl % r for wl in w]
        q_fiber = tuple(Fraction(x, r) if 2 * x <= r else Fraction(x - r, r) for x in residues)
        _require(wit.delta == Fraction(2, r), "delta != 2/r")
        _require(wit.base_point == a, "base witness != (1/r, 1/r)")
        _require(wit.t == t, f"T = {wit.t}, expected {t}")
        _require(wit.pair == (0, k), f"pair {wit.pair}, expected (0, {k})")
        _require(wit.q == q_fiber + (k * a[0], k * a[1]), "Q differs from the expected point")
        _check_witness(tm, mfs, wit)
        return f"{wit.pair} {_vec(wit.q)} {wit.ld_q}"

    for m in (3, 4):
        strata = sizes.deep_strata
        mid = strata // 2
        for i in range(strata):
            kappa = -math.log(1 - (i + 0.5) / strata) / 2**m
            r_lo, r_hi = (split, hi) if i == mid else (lo, split - 1)
            r, w, k, t = _draw_deep(rng, m, kappa, r_lo, r_hi)
            spec = (m, r, w, k, t)
            cases.append(Case(f"m={m} stratum={i}", (t, r), spec, prepare, run, check))
    rng.shuffle(cases)
    return cases


def quiet_primitivization_warnings() -> None:
    """Random fibrations may re-primitivize base rays; make_mfs warns then."""
    warnings.filterwarnings("ignore", message=r"(fiber|base) ray .* replaced by primitive generator")
