"""Each input check of the public API raises its own error and text.

One row per check, each a call that only that check rejects, so deleting
the check changes the outcome: the call then succeeds or fails elsewhere.
"""

import re
from fractions import Fraction

import pytest

from toricmld import (
    BadParameterError,
    DegenerateBasisError,
    DimensionMismatchError,
    Fan,
    InvalidWeightsError,
    Lattice,
    ToricVariety,
    WrongShapeError,
    cyclic_quotient,
    example_family,
    make_mfs,
    validate,
)
from toricmld.exactmath import iroot_floor, solve_exact
from toricmld.toric import origin_barycentrics

F = Fraction

CHECKS = {
    "fiber-ray-dimension": (
        lambda: make_mfs(2, 1, [(1, 0), (0, 1), (-1,)], (1,)),
        BadParameterError, "fiber rays must have the fiber dimension",
    ),
    "extra-generator-dimension": (
        lambda: make_mfs(1, 1, [(1,), (-1,)], (1,), [(F(1, 2),)]),
        BadParameterError, "extra generators must have dimension m+n",
    ),
    "cyclic-quotient-no-weights": (
        lambda: cyclic_quotient(5, ()),
        InvalidWeightsError, "need at least one weight",
    ),
    "lattice-dimension-zero": (
        lambda: Lattice.from_generators(0, []),
        ValueError, "dimension must be positive",
    ),
    "contains-wrong-length": (
        lambda: Lattice.standard(2).contains((1, 0, 0)),
        ValueError, "expected a vector of dimension 2, got 3",
    ),
    "quotient-group-too-few-rows": (
        lambda: Lattice.standard(2).quotient_group([(2, 0)]),
        DegenerateBasisError, "sublattice basis must have d rows",
    ),
    "variety-dimensions-differ": (
        lambda: ToricVariety(Lattice.standard(3), Fan.build([(1, 0), (0, 1)], [[0, 1]])),
        DimensionMismatchError, "fan dimension 2 does not match lattice dimension 3",
    ),
    "report-unknown-check": (
        lambda: validate(example_family(2))["no_such_check"],
        KeyError, "no_such_check",
    ),
    "solve-exact-non-square": (
        lambda: solve_exact([[1, 2]], [1]),
        ValueError, "solve_exact needs a square system",
    ),
    "origin-barycentrics-vertex-count": (
        lambda: origin_barycentrics([(1, 0), (0, 1)]),
        WrongShapeError, "need 3 vertices in dimension 2",
    ),
    "iroot-floor-negative": (
        lambda: iroot_floor(-1, 2),
        ValueError, "iroot_floor needs n >= 0, k >= 1",
    ),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_raises_its_error(call, error, message):
    # a KeyError's text is its key in quotes
    with pytest.raises(error, match=f"^'?{re.escape(message)}'?$"):
        call()
