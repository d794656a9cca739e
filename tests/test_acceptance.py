"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines (captured output of passing tests is shown by -rA).
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import apply_unimodular, rand_affine_variety, rand_standard_simplex_mfs, rand_unimodular
from toricmld import (
    Fan,
    Lattice,
    ToricMfs,
    ToricVariety,
    cyclic_quotient,
    example_family,
    find_witness,
    log_discrepancy,
    loglog_slope,
    mld,
    mld_bruteforce,
    mld_cyclic,
    sweep_family,
    validate,
)

F = Fraction


@pytest.fixture(scope="module")
def family_rows():
    return sweep_family(2, 12)


@pytest.fixture(scope="module")
def family_instances():
    return {l: example_family(l) for l in range(2, 13)}


@pytest.fixture(scope="module")
def simplex_instances():
    rng = random.Random(2024)
    instances = []
    while len(instances) < 200:
        m = rng.choice([1, 2])
        n = rng.choice([1, 2])
        instances.append(rand_standard_simplex_mfs(rng, m, n, 500))
    return instances


def report(num, detail, elapsed=None):
    stamp = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {num}: PASS{stamp} - {detail}")


def test_criterion_1_cyclic_quotient_formula():
    t0 = time.time()
    for r in range(2, 1001):
        assert mld_cyclic(r, (1, 1)) == F(2, r), f"1/{r}(1,1)"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"
    report(1, "mld of 1/r (1,1) equals 2/r exactly for r = 2..1000", elapsed)


def test_criterion_2_family_base_side(family_instances):
    worst = 0.0
    for l, fam in family_instances.items():
        t0 = time.time()
        assert mld(fam.y).value == F(2, l**4 + 1), f"l={l}"
        worst = max(worst, time.time() - t0)
    assert worst < 1.0, f"slowest base mld took {worst:.2f}s (budget 1s per l)"
    report(2, f"base mld equals 2/(l^4+1) for l = 2..12, slowest {worst:.3f}s")


def test_criterion_3_family_total_space(family_rows):
    t0 = time.time()
    for row in family_rows:
        assert row.mld_x >= F(9, 20 * row.l), f"l={row.l}: mld_X={row.mld_x}"
    slope = loglog_slope(
        [(row.mld_x, row.mld_y) for row in family_rows if row.l >= 4]
    )
    assert 3.5 <= slope <= 4.5, f"slope {slope}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (budget 30s)"
    report(3, f"mld_X >= 0.9/(2l) for l = 2..12; log-log slope {slope:.3f} in [3.5, 4.5]")


def test_criterion_4_eps_delta_certificates(simplex_instances):
    from toricmld import check_eps_delta

    t0 = time.time()
    violations = 0
    for mfs in simplex_instances:
        cert = check_eps_delta(mfs)
        m = mfs.m
        assert cert.lhs == cert.mld_x.value ** (m + 1)
        assert cert.rhs == (2 * m) ** (m + 1) * cert.mld_y.value
        if not cert.holds:
            violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s (budget 60s)"
    report(4, f"mld(X)^(m+1) <= (2m)^(m+1) mld(Y) on {len(simplex_instances)} instances", elapsed)


def test_criterion_5_witness_soundness(family_instances, simplex_instances):
    checked = 0
    for fam in family_instances.values():
        rep = find_witness(fam)
        assert fam.x.lattice.contains(rep.q)
        assert any(c != 0 for c in rep.q)
        assert all(c >= 0 for c in fam.project(rep.q))
        assert rep.cone_index is not None
        assert log_discrepancy(fam.x, rep.q) == rep.ld_q
        checked += 1
    for mfs in simplex_instances:
        rep = find_witness(mfs)
        m = mfs.m
        assert mfs.x.lattice.contains(rep.q)
        assert any(c != 0 for c in rep.q)
        assert all(c >= 0 for c in mfs.project(rep.q))
        assert rep.cone_index is not None
        assert log_discrepancy(mfs.x, rep.q) == rep.ld_q
        # sharp constant for the standard simplex, checked in exact powers
        assert rep.ld_q ** (m + 1) <= (2 * m) ** (m + 1) * rep.delta
        checked += 1
    report(5, f"witness construction sound on {checked} instances")


def golden_varieties():
    fam2 = example_family(2)
    fam3 = example_family(3)
    return [
        ("family2.X", fam2.x),
        ("family2.Y", fam2.y),
        ("family3.X", fam3.x),
        ("family3.Y", fam3.y),
        ("quotient 1/17(1,1)", cyclic_quotient(17, (1, 1))),
        ("quotient 1/5(1,2)", cyclic_quotient(5, (1, 2))),
        ("smooth A^3", cyclic_quotient(1, (1, 1, 1))),
        ("A1 surface", cyclic_quotient(2, (1, 1))),
    ]


def test_criterion_6_oracle_equivalence():
    rng = random.Random(77)
    t0 = time.time()
    checked = 0
    for name, v in golden_varieties():
        a, b = mld(v), mld_bruteforce(v)
        assert (a.value, a.witness, a.cone_index) == (b.value, b.witness, b.cone_index), name
        checked += 1
    while checked < 508:
        d = rng.choice([1, 2, 2, 2, 3, 3, 4])
        max_index = {1: 200, 2: 200, 3: 80, 4: 25}[d]
        bound = 2 if d <= 3 else 1
        v = rand_affine_variety(rng, d, max_index, entry_bound=bound)
        a, b = mld(v), mld_bruteforce(v)
        assert (a.value, a.witness, a.cone_index) == (b.value, b.witness, b.cone_index)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.2f}s (budget 120s)"
    report(6, f"parallelepiped scan agrees with box oracle on {checked} instances", elapsed)


def test_criterion_7_invariance_suite():
    rng = random.Random(78)
    goldens = golden_varieties()
    for name, v in goldens:
        base = mld(v).value
        for _ in range(50):
            u = rand_unimodular(rng, v.dim)
            assert mld(apply_unimodular(v, u)).value == base, name
    for name, v in goldens:
        for ray in v.fan.rays:
            assert log_discrepancy(v, ray) == 1, name
        for _ in range(20):
            coeffs = [rng.randint(0, 3) for _ in v.fan.rays]
            if all(c == 0 for c in coeffs):
                continue
            point = tuple(
                sum(c * r[j] for c, r in zip(coeffs, v.fan.rays))
                for j in range(v.dim)
            )
            k = rng.randint(1, 6)
            scaled = tuple(k * c for c in point)
            assert log_discrepancy(v, scaled) == k * log_discrepancy(v, point), name
    report(7, "mld invariant under 50 basis changes per golden instance; "
              "generators have value 1; values scale linearly along rays")


def test_criterion_8_validator_and_mutations():
    for l in (2, 3, 5, 8):
        rep = validate(example_family(l))
        assert rep.overall, f"l={l}"
        assert rep["ray_count"].detail == "5 rays, expected 5"
        assert rep["relative_picard_rank"].detail == "relative Picard rank 1"

    fam = example_family(2)

    # drop a ray -> the ray-count check is the diagnosis
    rays = list(fam.x.fan.rays)[:4]
    cones = [[i for i in range(4) if i != j] for j in range(3)]
    dropped = ToricMfs(
        x=ToricVariety(fam.x.lattice, Fan.build(rays, cones)),
        y=fam.y,
    )
    rep = validate(dropped)
    assert not rep.overall and not rep["ray_count"].passed
    assert rep["lattice_surjectivity"].passed and rep["fiber_simplex"].passed

    # break surjectivity -> only the lattice check fails
    coarse_y = ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]]))
    nonsurj = ToricMfs(x=fam.x, y=coarse_y)
    rep = validate(nonsurj)
    assert not rep.overall and not rep["lattice_surjectivity"].passed
    for other in ("ray_count", "ray_roles", "rays_primitive", "fiber_simplex",
                  "cone_shape", "relative_picard_rank", "properness_support"):
        assert rep[other].passed, other

    # shift the fiber simplex off the origin -> the simplex check fails
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cones = [[i for i in range(5) if i != j] for j in range(3)]
    shifted = ToricMfs(
        x=ToricVariety(Lattice.standard(4), Fan.build(rays, cones)),
        y=ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]])),
    )
    rep = validate(shifted)
    assert not rep.overall and not rep["fiber_simplex"].passed
    for other in ("ray_count", "ray_roles", "rays_primitive",
                  "lattice_surjectivity", "relative_picard_rank", "cone_shape"):
        assert rep[other].passed, other

    report(8, "validator passes the family and each mutation trips its intended check")
