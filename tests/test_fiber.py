"""The generic fiber that ``generic_fiber`` reads off the total space,
against ``fiber_oracle``, which builds it from scratch (Smith-form kernel,
``Fan.build``, an exact solve), on random fibrations and on hand-built
copies that list their rays and cones in any order; plus the oracle's own
pieces and a pinned command-line run on a hand-built instance.
"""

from __future__ import annotations

import contextlib
import io
import random
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import standard_fiber_rays
from oracles import cone_generators, det_bareiss, fiber_oracle, generic_fiber_group, integer_row_kernel
from toricmld import Fan, InvalidMfsError, Lattice, ToricMfs, ToricVariety, example_family, generic_fiber, make_mfs
from toricmld.cli import load_instance, main
from toricmld.exactmath import rank

F = Fraction
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
GOLDEN = Path(__file__).parent / "golden"
SHUFFLED = GOLDEN / "mfs_shuffled_fiber.json"


@st.composite
def fibrations(draw, base_multiples=False):
    """``make_mfs`` on a random fiber simplex (m, n <= 3) over a cyclic
    quotient, sometimes with a fiber-only generator that makes the kernel
    lattice larger than Z^m.  With ``base_multiples`` the cyclic generator
    is 1/r on one base axis with a nonzero fiber part, so that axis's base
    ray is mostly a multiple > 1 of the base lattice's generator; the
    multiples are read off the lattices and at least one exceeds 1."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    basis = draw(st.lists(entries, min_size=m, max_size=m))
    assume(det_bareiss(basis) != 0)
    # the last vertex is a negative combination of the others: 0 is inside
    weights = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    last = [-sum(c * v[j] for c, v in zip(weights, basis)) for j in range(m)]
    r = draw(st.integers(2, 30))
    if base_multiples:
        axis = draw(st.integers(0, n - 1))
        fiber_part = [F(draw(st.integers(0, r - 1)), r) for _ in range(m)]
        assume(any(fiber_part))
        extras = [fiber_part + [F(int(j == axis), r) for j in range(n)]]
    else:
        extras = [[F(draw(st.integers(0, r - 1)), r) for _ in range(m + n)]]
    s = draw(st.integers(1, 4))
    if s > 1:
        extras.append([F(draw(st.integers(0, s - 1)), s) for _ in range(m)] + [0] * n)
    multiples = [1] * n
    if base_multiples:
        x_lat = Lattice.from_generators(m + n, extras)
        y_lat = Lattice.from_generators(n, [g[m:] for g in extras])
        multiples = [
            int(x_lat.primitivize(unit(m + l, m + n))[m + l] / y_lat.primitivize(unit(l, n))[l])
            for l in range(n)
        ]
        assume(max(multiples) > 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rays may be replaced by primitive ones
        try:
            return make_mfs(m, n, basis + [last], multiples, extras)
        except InvalidMfsError:
            assume(False)


def unit(i: int, d: int) -> tuple[Fraction, ...]:
    return tuple(F(int(j == i)) for j in range(d))


def relisted(mfs: ToricMfs, data) -> ToricMfs:
    """A hand-built fibration over the same lattices: each base ray moved by
    a small combination of fiber rays (a lattice point of the kernel, so the
    cones of X stop being block diagonal), the rays permuted, and each cone's
    ray list and the cone list shuffled."""
    m, rays = mfs.m, list(mfs.x.fan.rays)
    shifts = st.lists(st.integers(-1, 1), min_size=m + 1, max_size=m + 1)
    for i in range(m + 1, len(rays)):  # make_mfs lists the fiber rays first
        a = data.draw(shifts)
        rays[i] = tuple(x + sum(c * f[j] for c, f in zip(a, rays)) for j, x in enumerate(rays[i]))
    perm = data.draw(st.permutations(range(len(rays))))
    where = {old: new for new, old in enumerate(perm)}
    cones = [
        data.draw(st.permutations([where[i] for i in c.ray_indices])) for c in mfs.x.fan.max_cones
    ]
    cones = data.draw(st.permutations(cones))
    fan = Fan.build([rays[i] for i in perm], cones)
    copy = ToricMfs(x=ToricVariety(mfs.x.lattice, fan), y=mfs.y)
    assume(copy.report.overall)
    return copy


def assert_same_fiber(mfs: ToricMfs) -> None:
    got, want = generic_fiber(mfs), fiber_oracle(mfs)
    assert got.z.lattice == want.z.lattice
    assert got.z.fan.rays == want.z.fan.rays
    assert got.z.fan.dim == want.z.fan.dim
    assert len(got.z.fan.max_cones) == len(want.z.fan.max_cones)
    for a, b in zip(got.z.fan.max_cones, want.z.fan.max_cones):
        assert a.ray_indices == b.ray_indices
        assert cone_generators(got.z.fan, a) == cone_generators(want.z.fan, b)
        assert a.inverse == b.inverse
    assert got.simplex_vertices == want.simplex_vertices
    assert got.origin_barycentrics == want.origin_barycentrics


@PROPERTY
@given(fibrations())
def test_fiber_matches_the_oracle(mfs):
    assert_same_fiber(mfs)


@PROPERTY
@given(fibrations(), st.data())
def test_fiber_matches_the_oracle_in_any_ray_and_cone_order(mfs, data):
    assert_same_fiber(relisted(mfs, data))


def test_fiber_kernel_lattice_can_be_larger_than_the_standard_one():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        third = make_mfs(1, 1, [(1,), (-1,)], (1,), [(F(1, 3), 0)])
        shuffled = load_instance(str(SHUFFLED))
    for mfs in (third, shuffled, example_family(3)):
        assert_same_fiber(mfs)
    assert generic_fiber(third).z.lattice.index_over_standard == 3
    assert generic_fiber(shuffled).z.lattice.index_over_standard == 3


def test_shuffled_instance_cli_output_is_pinned():
    # rays and cones given in the file: a base ray with a fiber part comes
    # first, and the cones list their rays in no order
    mfs = load_instance(str(SHUFFLED))
    assert mfs.x.fan.rays[0][mfs.m:] != (0,) * mfs.n and any(mfs.x.fan.rays[0][:mfs.m])
    assert any(list(c.ray_indices) != sorted(c.ray_indices) for c in mfs.x.fan.max_cones)
    for command in ("check", "witness"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, str(SHUFFLED)]) == 0
        golden = GOLDEN / f"mfs_shuffled_fiber_{command}.txt"
        assert out.getvalue() == golden.read_text(encoding="utf-8")


def test_integer_row_kernel():
    rng = random.Random(19)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        ker = integer_row_kernel(m)
        for row in ker:
            assert all(sum(row[i] * m[i][j] for i in range(r)) == 0 for j in range(c))
        assert len(ker) == r - rank(m)


def test_generic_fiber_group():
    assert generic_fiber_group(make_mfs(2, 2, standard_fiber_rays(2), [1, 1], [])) == (1, 1)
    assert generic_fiber_group(example_family(2)) == (1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        third = make_mfs(1, 1, [(1,), (-1,)], (1,), [(F(1, 3), 0)])
    assert generic_fiber_group(third) == (3,)
