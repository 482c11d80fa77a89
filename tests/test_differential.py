"""Differential tests over random small specs: independent routes to one
verdict must agree on GF(2)^<=4, GF(3)^<=3 and GF(4)^<=2 with families
of at most three members.  The circuits, and the join of the circuits
below a subspace, are compared with RREF orders and joins exhaustively,
over every pool matroid."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransversal import (
    SubspaceFamily,
    VectorSpaceSpec,
    field_make,
    get_lattice,
    is_partial_q_transversal,
    join,
    leq,
    presentation_matroid,
    q_transversal_by_definition,
    rank_one,
    recheck_certificate,
    union,
    zero_matroid,
)
from qtransversal.conjectures import _q_rado_sides, default_matroid_source
from qtransversal.subspaces import count_bases

SPACES = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, n) for n in range(1, 3)]
)
DEFINITION_BASIS_CAP = 2000


@st.composite
def families(draw):
    """A lattice and a family of at most three of its subspaces."""
    p, e, n = draw(st.sampled_from(SPACES))
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    members = draw(st.lists(st.integers(0, len(lattice) - 1), max_size=3))
    return lattice, SubspaceFamily(lattice.spec, tuple(lattice.subspaces[i] for i in members))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(families(), st.data())
def test_q_transversal_routes_agree(drawn, data):
    lattice, fam = drawn
    t = lattice.subspaces[data.draw(st.integers(0, len(lattice) - 1))]
    cert = is_partial_q_transversal(t, fam)
    assert recheck_certificate(cert, t, fam)
    presented = presentation_matroid(fam)
    assert presented.independent(t) == cert.verdict
    if fam.members:
        reference = union([rank_one(x) for x in fam.members])
    else:
        reference = zero_matroid(lattice.spec)  # the empty family presents it
    assert presented.ranks == reference.ranks
    if count_bases(t) <= DEFINITION_BASIS_CAP:
        assert q_transversal_by_definition(t, fam) == cert.verdict


@lru_cache(maxsize=None)
def pool(lattice):
    return default_matroid_source(lattice)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(families())
def test_q_rado_sides_share_verdicts_across_the_pool(drawn):
    # A scan passes one verdicts dict per family to every matroid of the
    # pool; each pair must come out as it does with a fresh dict.
    lattice, fam = drawn
    shared = {}
    for matroid in pool(lattice):
        assert _q_rado_sides(matroid, fam, shared) == _q_rado_sides(matroid, fam, {})


CIRCUIT_SPACES = [(2, 1, n) for n in range(1, 4)] + [(3, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize(
    "p,e,n", CIRCUIT_SPACES, ids=[f"{p**e}-{n}" for p, e, n in CIRCUIT_SPACES]
)
def test_circuit_join_matches_rref_joins(p, e, n):
    # circuit_join_idx folds the lattice's join over the circuits below X;
    # the reference tests C <= X and joins by RREF of the stacked rows.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    bottom = lattice.subspaces[lattice.bottom_index]
    for matroid in pool(lattice):
        circuits = matroid.circuits()
        for xi, x in enumerate(lattice.subspaces):
            expected = bottom
            for c in circuits:
                if join(c, x) == x:
                    expected = join(expected, c)
            assert lattice.subspaces[matroid.circuit_join_idx(xi)] == expected


@pytest.mark.parametrize(
    "p,e,n", CIRCUIT_SPACES, ids=[f"{p**e}-{n}" for p, e, n in CIRCUIT_SPACES]
)
def test_circuits_match_the_definition(p, e, n):
    # circuits reads the lower covers; the reference takes a circuit to be
    # a dependent subspace whose proper subspaces, found by RREF leq, are
    # all independent.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    subspaces = lattice.subspaces
    proper = [[j for j, b in enumerate(subspaces) if b != a and leq(b, a)] for a in subspaces]
    for matroid in pool(lattice):
        expected = tuple(
            i
            for i in range(len(lattice))
            if not matroid.independent_idx(i)
            and all(matroid.independent_idx(j) for j in proper[i])
        )
        assert matroid.circuits_idx() == expected
