"""q-matroid construction routes and derived concepts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransversal import (
    IncompleteTable,
    InvalidRankTable,
    InvariantViolation,
    NotSubmodular,
    OutOfRange,
    QMatroid,
    VectorSpaceSpec,
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
from qtransversal.qmatroids import SubmodularReport
from qtransversal.subspaces import Lattice, bottom, leq

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
    # A table is one int per lattice index; a dict keyed by subspace is
    # refused even when it names every subspace.
    with pytest.raises(TypeError):
        check_submodular(LAT2, dict(zip(LAT2.subspaces, LAT2.dims)))


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


def pairwise_check_submodular(lattice, f):
    # Reference: every axiom checked pair by pair through meet_idx and join_idx.
    subspaces = lattice.subspaces
    if f[lattice.bottom_index] != 0:
        return SubmodularReport(False, "bottom", (subspaces[lattice.bottom_index],))
    size = len(lattice)
    for i in range(size):
        for j in lattice.below[i]:
            if f[j] > f[i]:
                return SubmodularReport(False, "monotone", (subspaces[j], subspaces[i]))
    for i in range(size):
        for j in range(i + 1, size):
            if f[lattice.meet_idx(i, j)] + f[lattice.join_idx(i, j)] > f[i] + f[j]:
                return SubmodularReport(False, "submodular", (subspaces[i], subspaces[j]))
    return SubmodularReport(True, None, None)


def induced_by_below_lists(lattice, f):
    # The all-pairs induction: min over every B <= A, not along covers.
    dims = lattice.dims
    return tuple(
        min(f[b] + dims[i] - dims[b] for b in lattice.below[i]) for i in range(len(lattice))
    )


@st.composite
def integer_tables(draw):
    """A lattice and an integer table on it: k * dim plus a sum of rank-1
    tables (submodular), then up to two entries nudged, which breaks the
    bottom, monotone or submodular axiom or none of them."""
    p, e, n = draw(st.sampled_from(((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2))))
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    size = len(lattice)
    k = draw(st.integers(0, 2))
    loops = draw(st.lists(st.integers(0, size - 1), max_size=3))
    f = [k * d for d in lattice.dims]
    for li in loops:
        f = [a + b for a, b in zip(f, rank_one(lattice.subspaces[li]).ranks)]
    for i, delta in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(-2, 2)), max_size=2)):
        f[i] += delta
    return lattice, f


def violates(lattice, f, report):
    """Whether the report's witness breaks its axiom, read from the
    lattice's order, meet and join, not from its covers or diamonds."""
    idx = [lattice.idx(s) for s in report.witness]
    if report.failure == "bottom":
        return idx == [lattice.bottom_index] and f[idx[0]] != 0
    a, b = idx
    if report.failure == "monotone":
        return lattice.leq_idx(a, b) and f[a] > f[b]
    return f[lattice.meet_idx(a, b)] + f[lattice.join_idx(a, b)] > f[a] + f[b]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(integer_tables())
def test_check_submodular_and_induce_match_pairwise_loops(table):
    # The verdict and the broken axiom are the pair scan's; the witness is
    # the first failing cover or diamond, which need not be the scan's
    # first pair in index order, so it is checked against the axiom.
    lattice, f = table
    report = check_submodular(lattice, f)
    reference = pairwise_check_submodular(lattice, f)
    assert (report.ok, report.failure) == (reference.ok, reference.failure)
    if report.ok:
        assert report.witness is None
        assert induce(lattice, f).ranks == induced_by_below_lists(lattice, f)
    else:
        assert violates(lattice, f, report)
        with pytest.raises(NotSubmodular):
            induce(lattice, f)


POOL_SPACES = ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2))


@pytest.mark.parametrize(
    "p,e,n", POOL_SPACES, ids=[f"{p**e}-{n}" for p, e, n in POOL_SPACES]
)
def test_pool_unions_match_pairwise_routes(p, e, n):
    # Every union default_matroid_source builds: each pair of rank-1 matroids.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    singles = [rank_one(s) for s in lattice.subspaces]
    for i, a in enumerate(singles):
        for b in singles[i:]:
            f = [x + y for x, y in zip(a.ranks, b.ranks)]
            assert check_submodular(lattice, f) == pairwise_check_submodular(lattice, f)
            assert union([a, b]).ranks == induced_by_below_lists(lattice, f)


@pytest.mark.parametrize("table", ["covers", "diamonds"])
def test_a_cover_or_diamond_naming_no_violation_raises(table):
    # A fresh lattice whose cover columns hold V below a line, or whose
    # diamonds hold (V, 0, 0, V): the dimension table fails there, but the
    # masks say V is not below the line and 0 meet 0 is not V.
    lattice = Lattice(GF2_2)
    top_i, line_i = lattice.top_index, lattice.by_dim[1][0]
    bottom_i = lattice.bottom_index
    if table == "covers":
        lattice.__dict__["covers"] = ((top_i,), (line_i,))
    else:
        lattice.__dict__["diamonds"] = ((top_i,), (bottom_i,), (bottom_i,), (top_i,))
    for check in (check_submodular, induce):
        with pytest.raises(InvariantViolation) as info:
            check(lattice, lattice.dims)
        assert info.value.payload == {"spec": GF2_2.to_jsonable(), "values": list(lattice.dims)}


def test_failing_check_leaves_below_unbuilt():
    # A table failing only at V: r(V) = 0 breaks a cover (H, V), H a
    # hyperplane, and the check names it without the pair lists.
    lattice = Lattice(GF2_3)
    f = list(lattice.dims)
    f[lattice.top_index] = 0
    report = check_submodular(lattice, f)
    assert report.failure == "monotone"
    h, v = report.witness
    assert h.dim == 2 and v == top(GF2_3)
    bad = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert check_submodular(lattice, bad).failure == "submodular"
    assert "below" not in lattice.__dict__


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
    from qtransversal.conjectures import default_matroid_source
    from qtransversal.subspaces import meet

    matroids = sample_matroids_gf2_2()
    for p, e, n in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)):
        matroids += default_matroid_source(get_lattice(VectorSpaceSpec(field_make(p, e), n)))
    for m in matroids:
        bases = m.bases()
        assert bases  # every matroid has at least one basis
        for s in m.lattice.subspaces:
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


def fundamental_circuit(m, s):
    """Oracle: the unique circuit below a nullity-1 subspace s, as the
    meet of the nullity-1 subspaces below s.  The dichotomy n(T) = 1 if
    C <= T, else 0, is asserted for every T <= s; another nullity of s
    raises ValueError."""
    lat = m.lattice
    si = lat.idx(s)
    nullity = lat.dims[si] - m.ranks[si]
    if nullity != 1:
        raise ValueError(f"fundamental circuit needs nullity 1, got {nullity}")
    ones = [t for t in lat.below[si] if lat.dims[t] - m.ranks[t] == 1]
    ci = ones[0]
    for t in ones[1:]:
        ci = lat.meet_idx(ci, t)
    for t in lat.below[si]:
        expected = 1 if lat.leq_idx(ci, t) else 0
        assert lat.dims[t] - m.ranks[t] == expected, (s, lat.subspaces[t])
    return lat.subspaces[ci]


def test_fundamental_circuit_examples():
    m = rank_one(bottom(GF2_2))
    assert fundamental_circuit(m, top(GF2_2)) == top(GF2_2)
    m2 = rank_one(L10)
    assert fundamental_circuit(m2, L10) == L10
    with pytest.raises(ValueError):
        fundamental_circuit(free_matroid(GF2_2), top(GF2_2))


def test_fundamental_circuit_uniqueness_and_dichotomy():
    for m in sample_matroids_gf2_2() + [rank_one(s) for s in LAT3.subspaces]:
        lat = m.lattice
        for s in lat.subspaces:
            if m.nullity(s) != 1:
                continue
            c = fundamental_circuit(m, s)  # asserts the dichotomy on the way
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
    c = fundamental_circuit(m, extended)
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


def test_matroid_from_table_refuses_entries_that_are_not_ints():
    # int() would read the rank 1.7 as 1 and True as 1.
    for values in ([0, 1.7, 1, 1, 2], [0, True, 1, 1, 2], [0, "1", 1, 1, 2]):
        with pytest.raises(InvalidRankTable):
            matroid_from_table(LAT2, values)


def test_rank_table_arrays_are_not_read_as_strings():
    doc = rank_one(L10).to_jsonable()
    entry = next(e for e in doc["rank_table"] if e["subspace"] == ["10"])
    entry["subspace"] = "10"  # tuple() would read it as ("1", "0")
    with pytest.raises(OutOfRange):
        QMatroid.from_jsonable(LAT2, doc)
    with pytest.raises(OutOfRange):
        QMatroid.from_jsonable(LAT2, {"rank_table": "[]"})


def test_serialization_shape():
    doc = rank_one(L10).to_jsonable()
    assert doc["spec"]["q"] == 2 and doc["spec"]["dim"] == 2
    assert [e["rank"] for e in doc["rank_table"]] == [0, 1, 0, 1, 1]
