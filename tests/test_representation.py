"""Represented q-matroids and the aligned construction."""

import itertools
import random

import pytest

from qtransversal import (
    AlignedFamily,
    OutOfRange,
    QMatroid,
    QRepresentation,
    SpecMismatch,
    SubspaceFamily,
    VectorSpaceSpec,
    aligned_from_family,
    build_aligned_representation,
    canonicalize,
    check_rank_axioms,
    field_make,
    find_representation,
    free_matroid,
    get_lattice,
    is_partial_q_transversal,
    presentation_matroid,
    rank_one,
    represent,
    represented_rank,
    subfield_embedding,
    top,
    verify_representation,
    zero_matroid,
)
from qtransversal.subspaces import Subspace, matrix_rank, rref

GF2_2 = VectorSpaceSpec(field_make(2, 1), 2)
GF2_3 = VectorSpaceSpec(field_make(2, 1), 3)


def line(spec, *coords):
    return canonicalize(spec, [coords])


def identity_rep(spec):
    n = spec.dim
    matrix = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return QRepresentation(spec, spec.field, matrix)


def test_represented_rank_identity_and_zero():
    rep = identity_rep(GF2_2)
    lat = get_lattice(GF2_2)
    for s in lat.subspaces:
        assert represented_rank(rep, s) == s.dim
    zero = QRepresentation(GF2_2, GF2_2.field, ((0, 0), (0, 0)))
    for s in lat.subspaces:
        assert represented_rank(zero, s) == 0


def test_represented_rank_gf4_row():
    # G = [0, alpha^2] over GF(4) on GF(2)^2: kernel is exactly <10>.
    gf4 = field_make(2, 2)
    alpha2 = gf4.pow_code(gf4.p, 2)
    rep = QRepresentation(GF2_2, gf4, ((0, alpha2),))
    assert represented_rank(rep, line(GF2_2, 1, 0)) == 0
    assert represented_rank(rep, line(GF2_2, 0, 1)) == 1
    assert represented_rank(rep, line(GF2_2, 1, 1)) == 1
    assert represent(rep).ranks == rank_one(line(GF2_2, 1, 0)).ranks


def alternate_basis(sub):
    """A spanning set of the same subspace that is not the RREF basis."""
    field = sub.spec.field
    rows = list(sub.rows)
    if len(rows) >= 2:
        mixed = tuple(
            field.add_codes(a, b) for a, b in zip(rows[0], rows[1])
        )
        return [mixed] + rows[1:]
    if len(rows) == 1 and field.order > 2:
        scaled = tuple(field.mul_codes(2, v) for v in rows[0])
        return [scaled]
    return rows


def test_rank_is_basis_independent():
    gf4 = field_make(2, 2)
    alpha = gf4.p
    reps = [
        identity_rep(GF2_3),
        QRepresentation(GF2_3, gf4, ((0, alpha, gf4.pow_code(alpha, 2)),)),
        QRepresentation(
            GF2_3,
            gf4,
            ((1, alpha, 0), (0, gf4.pow_code(alpha, 2), 1)),
        ),
    ]
    lat = get_lattice(GF2_3)
    for rep in reps:
        for s in lat.subspaces:
            # Recompute the product rank from the non-canonical basis.
            assert _product_rank(rep, alternate_basis(s)) == represented_rank(rep, s)


def _dot(ext, a, b):
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = ext.add_codes(acc, ext.mul_codes(x, y))
    return acc


def _product_rank(rep, rows):
    """Oracle: the rank of G X^T, X the given rows, by one elimination."""
    if not rep.matrix or not rows:
        return 0
    emb = rep.embedding
    lifted = [tuple(emb[v] for v in row) for row in rows]
    product = [
        tuple(_dot(rep.ext, g_row, x_row) for x_row in lifted) for g_row in rep.matrix
    ]
    return matrix_rank(rep.ext, product, len(rows))


RANK_SPACES = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, n) for n in range(1, 3)]
)


@pytest.mark.parametrize(
    "p,e,n", RANK_SPACES, ids=[f"{p**e}-{n}" for p, e, n in RANK_SPACES]
)
def test_represented_rank_matches_product_rank(p, e, n):
    # Echelon forms grown from parents, against one elimination of
    # G X^T per subspace, on every subspace in a shuffled order: with a
    # memo shared across the walk and with none.
    spec = VectorSpaceSpec(field_make(p, e), n)
    lattice = get_lattice(spec)
    rng = random.Random(f"represented-rank:{p}-{e}-{n}")
    for degree in (1, 2, 3):
        ext = field_make(p, e * degree)
        for _ in range(3):
            k = rng.randint(1, n)
            matrix = tuple(
                tuple(rng.randrange(ext.order) if rng.random() < 0.7 else 0 for _ in range(n))
                for _ in range(k)
            )
            rep = QRepresentation(spec, ext, matrix)
            expected = [_product_rank(rep, s.rows) for s in lattice.subspaces]
            order = list(range(len(lattice)))
            rng.shuffle(order)
            echelons = {}
            for i in order:
                s = lattice.subspaces[i]
                assert represented_rank(rep, s, echelons) == expected[i]
                assert represented_rank(rep, s) == expected[i]
            # The first disagreement in enumeration order, on the exact
            # table, on a table with one entry nudged, and on the free
            # and zero matroids.
            nudged = list(expected)
            at = rng.randrange(1, len(nudged))
            nudged[at] += 1
            for ranks in (expected, nudged, free_matroid(spec).ranks, zero_matroid(spec).ranks):
                target = QMatroid(lattice, ranks)
                bad = next(
                    (s for s, r in zip(lattice.subspaces, ranks) if _product_rank(rep, s.rows) != r),
                    None,
                )
                assert verify_representation(rep, target) == (bad is None, bad)
            assert verify_representation(rep, QMatroid(lattice, nudged)) == (
                False, lattice.subspaces[at]
            )


def test_represented_matroids_satisfy_axioms():
    gf4 = field_make(2, 2)
    alpha = gf4.p
    reps = [
        identity_rep(GF2_2),
        QRepresentation(GF2_2, gf4, ((0, gf4.pow_code(alpha, 2)),)),
        QRepresentation(GF2_2, gf4, ((1, alpha), (alpha, 1))),
        QRepresentation(GF2_3, gf4, ((1, 0, alpha), (0, 1, gf4.pow_code(alpha, 2)))),
    ]
    for rep in reps:
        m = represent(rep)
        assert check_rank_axioms(m.lattice, m.ranks).ok


def test_verify_representation_examples():
    ok, bad = verify_representation(identity_rep(GF2_2), free_matroid(GF2_2))
    assert ok and bad is None
    zero = QRepresentation(GF2_2, GF2_2.field, ((0, 0), (0, 0)))
    ok, bad = verify_representation(zero, free_matroid(GF2_2))
    assert not ok and bad.dim == 1  # first disagreement is the first line


def test_aligned_example_k1():
    aligned = AlignedFamily(GF2_2, (frozenset({1}),))
    rep = build_aligned_representation(aligned)
    gf4 = field_make(2, 2)
    assert rep.ext == gf4
    assert rep.matrix == ((0, gf4.pow_code(gf4.p, 2)),)
    assert represent(rep).ranks == rank_one(line(GF2_2, 1, 0)).ranks


def test_aligned_example_all_loops():
    aligned = AlignedFamily(GF2_2, (frozenset({1, 2}), frozenset({1, 2})))
    rep = build_aligned_representation(aligned)
    assert all(v == 0 for row in rep.matrix for v in row)
    assert represent(rep).ranks == zero_matroid(GF2_2).ranks


def test_aligned_example_free():
    aligned = AlignedFamily(GF2_2, (frozenset({1}), frozenset({2})))
    rep = build_aligned_representation(aligned)
    assert rep.ext.e == 4  # degree n^k = 4 over GF(2)
    assert represent(rep).ranks == free_matroid(GF2_2).ranks


def test_aligned_sweep_small():
    # Exhaustive over L subsets at n = 2, k <= 2 (q = 2 and q = 3).
    for spec in (GF2_2, VectorSpaceSpec(field_make(3, 1), 2)):
        n = spec.dim
        subsets = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        for k in (1, 2):
            for sets in itertools.product(subsets, repeat=k):
                aligned = AlignedFamily(spec, sets)
                rep = build_aligned_representation(aligned)
                ok, _ = verify_representation(
                    rep, presentation_matroid(aligned.induced_family())
                )
                assert ok


def test_determinant_dichotomy():
    # rank(G S^T) = k exactly when the spanned subspace is a partial
    # q-transversal of full dimension k.
    aligned = AlignedFamily(GF2_2, (frozenset({1}), frozenset()))
    rep = build_aligned_representation(aligned)
    fam = aligned.induced_family()
    lat = get_lattice(GF2_2)
    k = len(fam)
    for s in lat.subspaces:
        if s.dim != k:
            continue
        full_rank = represented_rank(rep, s) == k
        assert full_rank == is_partial_q_transversal(s, fam, with_witness=False).verdict


def test_minimize_degree_search():
    aligned = AlignedFamily(GF2_2, (frozenset({1}), frozenset({2})))
    rep = build_aligned_representation(aligned, minimize_degree=True)
    assert rep.ext.e <= 4
    ok, _ = verify_representation(rep, free_matroid(GF2_2))
    assert ok
    # Deterministic: the same degree comes back on a second run.
    rep2 = build_aligned_representation(aligned, minimize_degree=True)
    assert rep.to_jsonable() == rep2.to_jsonable()


def test_aligned_from_family_detection():
    fam = SubspaceFamily(GF2_2, (line(GF2_2, 1, 0), top(GF2_2)))
    aligned = aligned_from_family(fam)
    assert aligned is not None
    assert aligned.index_sets == (frozenset({1}), frozenset({1, 2}))
    assert aligned.induced_family().members == fam.members
    assert aligned_from_family(SubspaceFamily(GF2_2, (line(GF2_2, 1, 1),))) is None


def test_find_representation_non_aligned():
    m = presentation_matroid(SubspaceFamily(GF2_2, (line(GF2_2, 1, 1),)))
    rep = find_representation(m, max_ext_degree=2, seed=11)
    assert rep is not None
    ok, _ = verify_representation(rep, m)
    assert ok
    # Reproducible from the seed.
    rep2 = find_representation(m, max_ext_degree=2, seed=11)
    assert rep.to_jsonable() == rep2.to_jsonable()


def test_find_representation_rank_zero():
    m = zero_matroid(GF2_2)
    rep = find_representation(m, max_ext_degree=1, seed=0)
    assert rep is not None and rep.matrix == ()


def test_subfield_embedding_prime_base():
    gf2 = field_make(2, 1)
    gf8 = field_make(2, 3)
    assert subfield_embedding(gf2, gf8) == (0, 1)


def test_subfield_embedding_gf4_into_gf16():
    gf4 = field_make(2, 2)
    gf16 = field_make(2, 4)
    table = subfield_embedding(gf4, gf16)
    assert table[0] == 0 and table[1] == 1
    # Field homomorphism on all pairs.
    for a, b in itertools.product(range(4), repeat=2):
        assert table[gf4.add_codes(a, b)] == gf16.add_codes(table[a], table[b])
        assert table[gf4.mul_codes(a, b)] == gf16.mul_codes(table[a], table[b])
    assert len(set(table)) == 4  # injective


def test_subfield_embedding_rejects_non_subfield():
    with pytest.raises(SpecMismatch):
        subfield_embedding(field_make(2, 2), field_make(2, 3))
    with pytest.raises(SpecMismatch):
        subfield_embedding(field_make(2, 1), field_make(3, 1))


def test_representation_serialization_round_trip():
    aligned = AlignedFamily(GF2_3, (frozenset({1, 2}),))
    rep = build_aligned_representation(aligned)
    doc = rep.to_jsonable()
    ext = field_make(doc["ext"]["p"], doc["ext"]["e"])
    matrix = tuple(
        tuple(
            ext.parse_code(row[i * ext.e : (i + 1) * ext.e])
            for i in range(GF2_3.dim)
        )
        for row in doc["matrix"]
    )
    assert QRepresentation(GF2_3, ext, matrix) == rep


def test_representation_refuses_entries_that_are_not_ints():
    # int() would store 1.7 as 1 and 0.0 as 0.
    with pytest.raises(OutOfRange):
        QRepresentation(GF2_2, field_make(2, 2), ((1.7, 0.0),))
    # A matrix string is not read as its characters, one row each.
    block = {"ext": {"p": 2, "e": 1, "modulus": "01"}, "matrix": "10"}
    with pytest.raises(OutOfRange):
        QRepresentation.from_jsonable(VectorSpaceSpec(field_make(2, 1), 1), block)
