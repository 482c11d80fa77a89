"""q-matroid construction routes and derived concepts."""

import itertools

import pytest

from qtransversal import (
    IncompleteTable,
    InvalidRankTable,
    NotSubmodular,
    VectorSpaceSpec,
    WrongNullity,
    canonicalize,
    check_rank_axioms,
    check_submodular,
    field_make,
    free_matroid,
    get_lattice,
    induce,
    matroid_from_table,
    rank_one,
    top,
    union,
    zero_matroid,
)
from qtransversal.subspaces import bottom, leq

GF2_2 = VectorSpaceSpec(field_make(2, 1), 2)
GF2_3 = VectorSpaceSpec(field_make(2, 1), 3)
LAT2 = get_lattice(GF2_2)
LAT3 = get_lattice(GF2_3)


def line(spec, *coords):
    return canonicalize(spec, [coords])


L01 = line(GF2_2, 0, 1)
L10 = line(GF2_2, 1, 0)
L11 = line(GF2_2, 1, 1)


def rank_one_oracle(lattice, loop_space):
    """Oracle: apply the loop-space case formula subspace by subspace."""
    return [0 if leq(s, loop_space) else 1 for s in lattice.subspaces]


def induced_rank_oracle(lattice, f):
    """Oracle for the induced rank via the independence route: a subspace
    is independent iff f(B) >= dim B for all B below it, and the rank is
    the largest dimension of an independent subspace below."""
    independent = [
        all(f[b] >= lattice.dims[b] for b in lattice.below[i])
        for i in range(len(lattice))
    ]
    ranks = []
    for i in range(len(lattice)):
        ranks.append(
            max(lattice.dims[b] for b in lattice.below[i] if independent[b])
        )
    return ranks


def sample_matroids_gf2_2():
    singles = [rank_one(s) for s in LAT2.subspaces]
    pairs = [union([a, b]) for a, b in itertools.product(singles, repeat=2)]
    return [free_matroid(GF2_2), zero_matroid(GF2_2)] + singles + pairs


def test_rank_one_examples():
    m = rank_one(L10)
    assert m.rank(L01) == 1
    assert m.rank(L10) == 0
    assert m.rank(top(GF2_2)) == 1
    assert rank_one(top(GF2_2)).ranks == (0, 0, 0, 0, 0)
    assert rank_one(bottom(GF2_2)).ranks == (0, 1, 1, 1, 1)


def test_rank_one_matches_case_formula_everywhere():
    for lattice in (LAT2, LAT3):
        for loops in lattice.subspaces:
            assert list(rank_one(loops).ranks) == rank_one_oracle(lattice, loops)


def test_check_submodular_examples():
    assert check_submodular(LAT2, LAT2.dims).ok  # dimension is modular
    assert check_submodular(LAT2, (0,) * 5).ok
    bad = [0, 0, 0, 0, 1]  # zero on lines, one on V: fails on two lines
    report = check_submodular(LAT2, bad)
    assert not report.ok
    assert report.failure == "submodular"
    a, b = report.witness
    assert a.dim == b.dim == 1 and a != b


def test_check_submodular_other_failures():
    report = check_submodular(LAT2, [1, 1, 1, 1, 1])
    assert report.failure == "bottom"
    report = check_submodular(LAT2, [0, 1, 1, 1, 0])
    assert report.failure == "monotone"
    with pytest.raises(IncompleteTable):
        check_submodular(LAT2, [0, 1])
    with pytest.raises(IncompleteTable):
        check_submodular(LAT2, {bottom(GF2_2): 0})


def test_induce_examples():
    assert induce(LAT2, LAT2.dims).ranks == tuple(LAT2.dims)  # free
    assert induce(LAT2, (0,) * 5).ranks == (0,) * 5  # rank 0
    f = [a + b for a, b in zip(rank_one(L10).ranks, rank_one(L01).ranks)]
    m = induce(LAT2, f)
    assert m.rank(top(GF2_2)) == 2
    assert list(m.ranks) == induced_rank_oracle(LAT2, f)


def test_induce_agrees_with_independence_oracle():
    for loops_a, loops_b in itertools.product(LAT2.subspaces, repeat=2):
        f = [
            a + b
            for a, b in zip(rank_one(loops_a).ranks, rank_one(loops_b).ranks)
        ]
        assert list(induce(LAT2, f).ranks) == induced_rank_oracle(LAT2, f)


def test_induce_rejects_non_submodular():
    with pytest.raises(NotSubmodular):
        induce(LAT2, [0, 0, 0, 0, 1])


def test_union_examples():
    m = rank_one(L10)
    assert union([m, rank_one(top(GF2_2))]) == m  # adding the zero function
    assert union([rank_one(L10), rank_one(L01)]).ranks == tuple(LAT2.dims)
    singles = [rank_one(s) for s in (L01, L10, L11)]
    one_step = union(singles)
    two_step = union([union([singles[0], singles[1]]), singles[2]])
    assert one_step == two_step


def test_union_single_member_is_identity():
    for s in LAT2.subspaces:
        assert union([rank_one(s)]) == rank_one(s)


def test_is_independent_examples():
    m = rank_one(L10)
    assert m.independent(bottom(GF2_2))
    assert all(free_matroid(GF2_2).independent(s) for s in LAT2.subspaces)
    assert not m.independent(L10)
    assert m.independent(L01)


def test_circuits_examples():
    assert free_matroid(GF2_2).circuits() == ()
    assert rank_one(bottom(GF2_2)).circuits() == (top(GF2_2),)
    assert rank_one(L10).circuits() == (L10,)


def test_circuits_are_minimal_dependent():
    for m in sample_matroids_gf2_2():
        circuits = set(m.circuits())
        for s in LAT2.subspaces:
            minimal_dependent = not m.independent(s) and all(
                m.independent(LAT2.subspaces[b])
                for b in LAT2.below[LAT2.idx(s)]
                if LAT2.subspaces[b] != s
            )
            assert (s in circuits) == minimal_dependent


def closure_oracle(m, a):
    """Oracle: the unique maximal superspace with the same rank."""
    lat = m.lattice
    ai = lat.idx(a)
    candidates = [
        i
        for i in range(len(lat))
        if lat.leq_idx(ai, i) and m.ranks[i] == m.ranks[ai]
    ]
    best = max(candidates, key=lambda i: lat.dims[i])
    assert all(lat.leq_idx(i, best) for i in candidates)  # maximum, not just maximal
    return lat.subspaces[best]


def test_closure_examples():
    assert rank_one(L10).closure(bottom(GF2_2)) == L10  # closure of 0 is the loop space
    assert rank_one(L10).loop_space() == L10
    for s in LAT2.subspaces:
        assert free_matroid(GF2_2).closure(s) == s
    assert rank_one(L10).closure(L01) == top(GF2_2)


def test_closure_matches_definitional_scan():
    for m in sample_matroids_gf2_2():
        for s in LAT2.subspaces:
            assert m.closure(s) == closure_oracle(m, s)
    for loops in LAT3.subspaces:
        m = rank_one(loops)
        for s in LAT3.subspaces:
            assert m.closure(s) == closure_oracle(m, s)


def test_flats():
    m = rank_one(L10)
    assert m.is_flat(L10)
    assert not m.is_flat(L01)  # its closure is V
    assert m.is_flat(top(GF2_2))


def test_nullity_and_bar_nullity_examples():
    free = free_matroid(GF2_2)
    for s in LAT2.subspaces:
        assert free.nullity(s) == 0
        assert free.bar_nullity(s) == s.dim  # the only basis is V itself
    zero = zero_matroid(GF2_2)
    assert zero.bases() == (bottom(GF2_2),)
    assert all(zero.bar_nullity(s) == 0 for s in LAT2.subspaces)
    assert rank_one(bottom(GF2_2)).bar_nullity(L10) == 0  # basis <01> meets <10> in 0


def test_bar_nullity_matches_direct_minimum():
    from qtransversal.subspaces import meet

    for m in sample_matroids_gf2_2():
        bases = m.bases()
        assert bases  # every matroid has at least one basis
        for s in LAT2.subspaces:
            assert m.bar_nullity(s) == min(meet(b, s).dim for b in bases)


def test_nullity_properties_exhaustive():
    for m in sample_matroids_gf2_2() + [rank_one(s) for s in LAT3.subspaces]:
        lat = m.lattice
        n = [lat.dims[i] - m.ranks[i] for i in range(len(lat))]
        for i in range(len(lat)):
            assert 0 <= n[i] <= lat.dims[i]
            for j in lat.below[i]:
                assert n[j] <= n[i]
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert (
                    n[lat.meet_idx(i, j)] + n[lat.join_idx(i, j)] >= n[i] + n[j]
                )  # supermodular


def test_loop_space_is_closed_under_join():
    for m in sample_matroids_gf2_2():
        lat = m.lattice
        zeros = [i for i in range(len(lat)) if m.ranks[i] == 0]
        for i in zeros:
            for j in zeros:
                assert m.ranks[lat.join_idx(i, j)] == 0
        loops = m.loop_space()
        assert all(lat.leq_idx(i, lat.idx(loops)) for i in zeros)


def test_rank_axioms_for_all_construction_routes():
    matroids = sample_matroids_gf2_2() + [rank_one(s) for s in LAT3.subspaces]
    for m in matroids:
        assert check_rank_axioms(m.lattice, m.ranks).ok


def test_induce_of_a_rank_function_is_identity():
    for m in sample_matroids_gf2_2():
        assert induce(m.lattice, m.ranks).ranks == m.ranks


def test_union_same_rank_proposition():
    # If rank(M v N) = rank(M) then M v N = M, over rank-1 matroids and
    # their unions on GF(2)^2.
    pool = sample_matroids_gf2_2()
    checked = 0
    for m, n in itertools.product(pool, repeat=2):
        u = union([m, n])
        if u.space_rank == m.space_rank:
            assert u.ranks == m.ranks
            checked += 1
    assert checked > 0


def test_fundamental_circuit_examples():
    m = rank_one(bottom(GF2_2))
    assert m.fundamental_circuit(top(GF2_2)) == top(GF2_2)
    m2 = rank_one(L10)
    assert m2.fundamental_circuit(L10) == L10
    with pytest.raises(WrongNullity):
        free_matroid(GF2_2).fundamental_circuit(top(GF2_2))


def test_fundamental_circuit_uniqueness_and_dichotomy():
    for m in sample_matroids_gf2_2() + [rank_one(s) for s in LAT3.subspaces]:
        lat = m.lattice
        for s in lat.subspaces:
            if m.nullity(s) != 1:
                continue
            c = m.fundamental_circuit(s)  # re-checks the dichotomy internally
            below_circuits = [
                x for x in m.circuits() if leq(x, s)
            ]
            assert below_circuits == [c]


def test_fundamental_circuit_need_not_contain_the_new_atom():
    # Observation: for a basis B and an atom a outside it, B v a has
    # nullity 1 and a unique circuit C, but a <= C can fail.  Concrete
    # instance: loops <10>, B = <01>, a = <11> gives C = <10>.
    m = rank_one(L10)
    b = L01
    a = L11
    extended = canonicalize(GF2_2, b.rows + a.rows)
    assert m.nullity(extended) == 1
    c = m.fundamental_circuit(extended)
    assert c == L10
    assert not leq(a, c)


def test_is_cyclic_examples():
    assert free_matroid(GF2_2).is_cyclic(bottom(GF2_2))
    assert not free_matroid(GF2_2).is_cyclic(L10)
    assert rank_one(bottom(GF2_2)).is_cyclic(top(GF2_2))
    m = rank_one(L10)
    assert m.is_cyclic(L10)
    assert not m.is_cyclic(top(GF2_2))


def test_matroid_from_table_validation():
    with pytest.raises(InvalidRankTable):
        matroid_from_table(LAT2, [0, 2, 1, 1, 2])  # rank above dimension
    with pytest.raises(InvalidRankTable):
        matroid_from_table(LAT2, [0, 0, 0, 0, 1])  # not submodular
    m = matroid_from_table(LAT2, [0, 1, 1, 1, 2])
    assert m == free_matroid(GF2_2)


def test_serialization_shape():
    doc = rank_one(L10).to_jsonable()
    assert doc["spec"]["q"] == 2 and doc["spec"]["dim"] == 2
    assert [e["rank"] for e in doc["rank_table"]] == [0, 1, 0, 1, 1]
