"""Canonical subspaces, lattice operations, and enumeration."""

import itertools
import math
import tracemalloc

import pytest

from qtransversal import (
    DimensionMismatch,
    InfeasibleScale,
    OutOfRange,
    SpecMismatch,
    Subspace,
    VectorSpaceSpec,
    bottom,
    canonicalize,
    enumerate_bases,
    enumerate_subspaces,
    field_make,
    gaussian_binomial,
    get_lattice,
    join,
    leq,
    meet,
    top,
)
from qtransversal.subspaces import (
    _orthogonal_complement,
    contains_vector,
    count_bases,
    matrix_rank,
    subspace_vectors,
)


def space(q, n):
    p = 2 if q in (2, 4, 8, 16) else 3
    e = {2: 1, 3: 1, 4: 2, 8: 3, 9: 2}[q]
    if q == 9:
        p = 3
    return VectorSpaceSpec(field_make(p, e), n)


GF2_2 = space(2, 2)
GF2_3 = space(2, 3)


def is_rref(spec, rows):
    """Oracle predicate: rows form a reduced row-echelon matrix."""
    pivots = []
    last = -1
    for row in rows:
        nz = [j for j, v in enumerate(row) if v]
        if not nz or nz[0] <= last or row[nz[0]] != 1:
            return False
        last = nz[0]
        pivots.append(nz[0])
    for i, row in enumerate(rows):
        for j in pivots:
            if j != pivots[i] and row[j]:
                return False
    return True


def span_set(spec, vectors):
    """Oracle: the span as a frozenset of vectors, by closing under the
    field operations exhaustively."""
    f = spec.field
    vecs = {tuple(0 for _ in range(spec.dim))}
    frontier = [tuple(v) for v in vectors]
    changed = True
    while changed:
        changed = False
        for v in list(vecs):
            for w in frontier:
                for c in range(f.order):
                    new = tuple(
                        f.add_codes(x, f.mul_codes(c, y)) for x, y in zip(v, w)
                    )
                    if new not in vecs:
                        vecs.add(new)
                        changed = True
    return frozenset(vecs)


def test_canonicalize_examples():
    s = canonicalize(GF2_2, [(1, 1), (0, 1)])
    assert s.rows == ((1, 0), (0, 1))  # hand Gaussian elimination
    assert canonicalize(GF2_2, []).rows == ()
    assert canonicalize(GF2_2, [(1, 0), (1, 0)]).rows == ((1, 0),)


def test_canonicalize_matches_span_oracle():
    f = GF2_2.field
    vectors = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k in range(3):
        for chosen in itertools.combinations(vectors, k):
            s = canonicalize(GF2_2, chosen)
            assert is_rref(GF2_2, s.rows)
            assert frozenset(subspace_vectors(s)) == span_set(GF2_2, chosen)


def test_canonicalize_idempotent():
    for s in enumerate_subspaces(GF2_3):
        assert canonicalize(GF2_3, s.rows) == s


def test_canonicalize_rejects_bad_vectors():
    with pytest.raises(DimensionMismatch):
        canonicalize(GF2_2, [(1, 0, 0)])
    with pytest.raises(OutOfRange):
        canonicalize(GF2_2, [(2, 0)])


def test_join_examples():
    l10 = canonicalize(GF2_2, [(1, 0)])
    l01 = canonicalize(GF2_2, [(0, 1)])
    l11 = canonicalize(GF2_2, [(1, 1)])
    v = top(GF2_2)
    assert join(l10, l01) == v
    assert join(l10, bottom(GF2_2)) == l10
    assert join(l11, l10) == v


def test_meet_examples():
    l10 = canonicalize(GF2_2, [(1, 0)])
    l01 = canonicalize(GF2_2, [(0, 1)])
    assert meet(top(GF2_2), l10) == l10
    assert meet(l10, l01) == bottom(GF2_2)
    a = canonicalize(GF2_3, [(1, 0, 0), (0, 1, 0)])
    b = canonicalize(GF2_3, [(0, 1, 0), (0, 0, 1)])
    assert meet(a, b) == canonicalize(GF2_3, [(0, 1, 0)])


@pytest.mark.parametrize("spec", [GF2_3, space(3, 2)])
def test_meet_matches_membership_oracle(spec):
    subs = list(enumerate_subspaces(spec))
    for a, b in itertools.product(subs, repeat=2):
        expected = frozenset(subspace_vectors(a)) & frozenset(subspace_vectors(b))
        assert frozenset(subspace_vectors(meet(a, b))) == expected


def test_leq_examples():
    l10 = canonicalize(GF2_2, [(1, 0)])
    l11 = canonicalize(GF2_2, [(1, 1)])
    assert leq(bottom(GF2_2), l10)
    assert leq(l11, top(GF2_2))
    assert not leq(l11, l10)


def test_lattice_laws_exhaustive_gf2_3():
    subs = list(enumerate_subspaces(GF2_3))
    assert len(subs) == 16
    for a, b in itertools.product(subs, repeat=2):
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
        assert a.dim + b.dim == join(a, b).dim + meet(a, b).dim
        assert leq(a, b) == (join(a, b) == b) == (meet(a, b) == a)
    for a, b, c in itertools.combinations(subs, 3):
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))


def test_counts_match_gaussian_binomial():
    for q in (2, 3):
        for n in range(1, 5):
            dims = [s.dim for s in enumerate_subspaces(space(q, n))]
            for k in range(n + 1):
                assert dims.count(k) == gaussian_binomial(n, k, q)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 0, 3) == 1
    with pytest.raises(OutOfRange):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(OutOfRange):
        gaussian_binomial(2, -1, 2)
    with pytest.raises(OutOfRange):
        gaussian_binomial(2, 1, 1)


def test_enumeration_order_is_fixed():
    first = [s.rows for s in enumerate_subspaces(GF2_3)]
    second = [s.rows for s in enumerate_subspaces(GF2_3)]
    assert first == second
    dims = [len(r) for r in first]
    assert dims == sorted(dims)
    for k in range(4):
        block = [r for r in first if len(r) == k]
        assert block == sorted(block)


def test_enumerate_subspaces_scale_guard():
    huge = VectorSpaceSpec(field_make(2, 1), 21)
    with pytest.raises(InfeasibleScale):
        next(enumerate_subspaces(huge))


def test_enumerate_bases_examples():
    assert list(enumerate_bases(bottom(GF2_2))) == [()]
    l10 = canonicalize(GF2_2, [(1, 0)])
    assert list(enumerate_bases(l10)) == [((1, 0),)]
    v_bases = list(enumerate_bases(top(GF2_2)))
    # Any 2 of the 3 nonzero vectors of GF(2)^2 are independent.
    assert len(v_bases) == 3
    assert v_bases == sorted(v_bases)


@pytest.mark.parametrize("spec,dim", [(GF2_3, 2), (GF2_3, 3), (space(3, 2), 2)])
def test_enumerate_bases_count_formula(spec, dim):
    sub = next(s for s in enumerate_subspaces(spec) if s.dim == dim)
    q = spec.field.order
    ordered = 1
    for i in range(dim):
        ordered *= q**dim - q**i
    expected = ordered // math.factorial(dim)
    got = list(enumerate_bases(sub))
    assert len(got) == expected == count_bases(sub)
    assert len(set(got)) == len(got)
    for basis in got:
        assert frozenset(subspace_vectors(canonicalize(spec, basis))) == frozenset(
            subspace_vectors(sub)
        )


def test_enumerate_bases_scale_guard():
    big = top(VectorSpaceSpec(field_make(2, 1), 12))
    with pytest.raises(InfeasibleScale):
        next(enumerate_bases(big))


def test_enumerate_bases_guard_counts_bases(monkeypatch):
    from qtransversal import subspaces

    # GF(3)^4 has 1,010,880 bases among 1,581,580 candidate 4-sets.
    full = top(space(3, 4))
    bases = count_bases(full)
    assert bases == 1_010_880
    monkeypatch.setattr(subspaces, "BASIS_CAP", bases)
    assert len(next(enumerate_bases(full))) == 4
    monkeypatch.setattr(subspaces, "BASIS_CAP", bases - 1)
    with pytest.raises(InfeasibleScale):
        next(enumerate_bases(full))


def test_enumerate_bases_beyond_lattice_cap(monkeypatch):
    from qtransversal import subspaces

    # A raised cap lets the guard pass; the coordinate lattice of GF(2)^8
    # (417,199 subspaces) is then refused instead.
    full = top(VectorSpaceSpec(field_make(2, 1), 8))
    monkeypatch.setattr(subspaces, "BASIS_CAP", count_bases(full))
    with pytest.raises(InfeasibleScale, match="lattice"):
        next(enumerate_bases(full))


def test_subspace_validation_rejects_non_rref():
    with pytest.raises(ValueError):
        Subspace(GF2_2, ((1, 1), (0, 1)))  # nonzero above the second pivot
    with pytest.raises(ValueError):
        Subspace(GF2_2, ((0, 1), (1, 0)))  # pivots not increasing
    with pytest.raises(ValueError):
        Subspace(GF2_2, ((0, 0),))  # zero row


def test_subspace_hash_and_equality():
    # The hash reads the rows alone; equality still compares the space,
    # so subspaces of GF(2)^2 and GF(3)^2 with the same rows stay apart.
    gf3_2 = VectorSpaceSpec(field_make(3, 1), 2)
    a, b = canonicalize(GF2_2, [(1, 0)]), canonicalize(gf3_2, [(1, 0)])
    assert a == canonicalize(GF2_2, [(1, 0)]) and hash(a) == hash(canonicalize(GF2_2, [(1, 0)]))
    assert a != b and hash(a) == hash(b)
    assert {a: 1, b: 2} == {b: 2, a: 1} and len({a, b}) == 2
    for spec in (GF2_2, gf3_2, VectorSpaceSpec(field_make(2, 1), 3)):
        lattice = get_lattice(spec)
        assert [lattice.idx(s) for s in lattice.subspaces] == list(range(len(lattice)))
    with pytest.raises(SpecMismatch):
        get_lattice(GF2_2).idx(b)


def test_contains_vector():
    l11 = canonicalize(GF2_2, [(1, 1)])
    assert contains_vector(l11, (1, 1))
    assert contains_vector(l11, (0, 0))
    assert not contains_vector(l11, (1, 0))


def test_spec_mismatch_between_spaces():
    other = VectorSpaceSpec(field_make(3, 1), 2)
    with pytest.raises(SpecMismatch):
        join(top(GF2_2), top(other))


# (p, e, n): GF(2)^1..4, GF(3)^1..3, GF(4)^1..2 and GF(5)^2.
LATTICE_SPACES = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, n) for n in range(1, 3)]
    + [(5, 1, 2)]
)


def _bases_by_rank_filter(t):
    # The route the coordinate walk replaced: every r-subset of the
    # sorted nonzero vectors, kept when its rank is r.
    nonzero = [v for v in subspace_vectors(t) if any(v)]
    return [
        combo
        for combo in itertools.combinations(nonzero, t.dim)
        if matrix_rank(t.spec.field, combo, t.spec.dim) == t.dim
    ]


@pytest.mark.parametrize(
    "p,e,n", LATTICE_SPACES, ids=[f"{p**e}-{n}" for p, e, n in LATTICE_SPACES]
)
def test_enumerate_bases_matches_rank_filter(p, e, n):
    # Lists, not sets: the order of the bases is checked too.
    for t in enumerate_subspaces(VectorSpaceSpec(field_make(p, e), n)):
        assert list(enumerate_bases(t)) == _bases_by_rank_filter(t)


@pytest.mark.parametrize(
    "p,e,n", LATTICE_SPACES, ids=[f"{p**e}-{n}" for p, e, n in LATTICE_SPACES]
)
def test_lattice_tables_agree_with_direct_ops(p, e, n):
    spec = VectorSpaceSpec(field_make(p, e), n)
    lat = get_lattice(spec)
    vectors = list(itertools.product(range(p**e), repeat=n))
    for i, a in enumerate(lat.subspaces):
        for j, b in enumerate(lat.subspaces):
            assert lat.subspaces[lat.meet_idx(i, j)] == meet(a, b)
            assert lat.subspaces[lat.join_idx(i, j)] == join(a, b)
            assert lat.leq_idx(i, j) == leq(a, b)
        assert lat.below[i] == tuple(j for j in range(len(lat)) if lat.leq_idx(j, i))
        for v in vectors:
            assert lat.contains_idx(i, v) == contains_vector(a, v)


@pytest.mark.parametrize(
    "p,e,n", LATTICE_SPACES, ids=[f"{p**e}-{n}" for p, e, n in LATTICE_SPACES]
)
def test_lattice_covers_and_diamonds(p, e, n):
    q = p**e
    lat = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    subs, dims = lat.subspaces, lat.dims
    # A k-dim subspace has [n-k 1]_q upper covers: one per line of V/X.
    ups = {k: gaussian_binomial(n - k, 1, q) for k in range(n)}
    lower, upper = lat.covers
    assert len(lower) == sum(gaussian_binomial(n, k, q) * ups[k] for k in range(n))
    assert list(zip(upper, lower)) == sorted(zip(upper, lower))
    for j, i in zip(lower, upper):
        assert dims[i] == dims[j] + 1 and lat.leq_idx(j, i)
    xs, ys, zs, ws = lat.diamonds
    assert len(xs) == sum(gaussian_binomial(n, k, q) * math.comb(ups[k], 2) for k in range(n))
    assert len(set(zip(xs, ys, zs))) == len(xs)
    for x, y, z, w in zip(xs, ys, zs, ws):
        assert y < z
        assert meet(subs[y], subs[z]) == subs[x]
        assert join(subs[y], subs[z]) == subs[w]
        assert (dims[y], dims[z], dims[w]) == (dims[x] + 1, dims[x] + 1, dims[x] + 2)


@pytest.mark.parametrize(
    "p,e,n", LATTICE_SPACES, ids=[f"{p**e}-{n}" for p, e, n in LATTICE_SPACES]
)
def test_meet_rows_and_covers_match_rref(p, e, n):
    # The rows and the cover walk read the order from the masks; the
    # reference meets by Zassenhaus and tests containment by elimination.
    lat = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    subs, dims = lat.subspaces, lat.dims
    for i, a in enumerate(subs):
        assert [subs[m] for m in lat.meet_row(i)] == [meet(a, b) for b in subs]
    expected = [
        (j, i)
        for i, a in enumerate(subs)
        for j, b in enumerate(subs)
        if dims[j] == dims[i] - 1 and leq(b, a)
    ]
    assert list(zip(*lat.covers)) == expected


# The tested spaces plus GF(2)^5 and GF(3)^4, which the CLI benchmark builds.
BUILD_SPACES = LATTICE_SPACES + [(2, 1, 5), (3, 1, 4)]


def _dict_route_masks(spec, subspaces):
    """Each subspace's point mask, with every vector's code read from a
    dict over the vectors of V in lexicographic order; also the dict."""
    codes = {v: c for c, v in enumerate(itertools.product(range(spec.field.order), repeat=spec.dim))}
    masks = []
    for s in subspaces:
        digits = bytearray(b"0" * len(codes))
        for v in subspace_vectors(s):
            digits[len(codes) - 1 - codes[v]] = ord("1")
        masks.append(int(digits, 2))
    return tuple(masks), codes


def _dict_route(spec):
    """The lattice's tables by the routes the build replaced: the dict
    route's masks, each atom's points looked up in the dict, each
    complement read off its own RREF, every cover pair by mask
    containment and every diamond's top by the RREF join."""
    subs = tuple(enumerate_subspaces(spec))
    by_rows = {s.rows: i for i, s in enumerate(subs)}
    masks, codes = _dict_route_masks(spec, subs)
    atom_of = [0] * len(codes)
    for i, s in enumerate(subs):
        if s.dim == 1:
            for v in subspace_vectors(s)[1:]:  # the zero vector sorts first
                atom_of[codes[v]] = i
    perp = tuple(by_rows[_orthogonal_complement(s).rows] for s in subs)
    pairs = [
        (j, i)
        for i, a in enumerate(subs)
        for j, b in enumerate(subs)
        if b.dim == a.dim - 1 and masks[j] & masks[i] == masks[j]
    ]
    upper_covers = [[i for j, i in pairs if j == x] for x in range(len(subs))]
    quads = [
        (x, y, z, by_rows[join(subs[y], subs[z]).rows])
        for x in range(len(subs))
        for y, z in itertools.combinations(upper_covers[x], 2)
    ]
    return masks, tuple(atom_of), perp, pairs, quads


@pytest.mark.parametrize(
    "p,e,n", BUILD_SPACES, ids=[f"{p**e}-{n}" for p, e, n in BUILD_SPACES]
)
def test_lattice_build_matches_per_subspace_routes(p, e, n):
    spec = VectorSpaceSpec(field_make(p, e), n)
    lat = get_lattice(spec)
    masks, atom_of, perp, covers, diamonds = _dict_route(spec)
    assert lat.masks == masks
    assert lat.atom_of == atom_of
    assert lat.perp == perp
    assert list(zip(*lat.covers)) == covers
    assert list(zip(*lat.diamonds)) == diamonds


def test_lattice_masks_match_the_dict_route_on_gf421_2():
    # 177,241-bit masks; built outside get_lattice, so nothing is cached.
    from qtransversal.subspaces import Lattice

    lat = Lattice(VectorSpaceSpec(field_make(421, 1), 2))
    assert lat.masks == _dict_route_masks(lat.spec, lat.subspaces)[0]


def test_contains_idx_rejects_malformed_vectors():
    # A vector's code is computed from its entries, so a wrong length or
    # entry would read another vector's bit: (0, 2, 0) has the code of
    # (1, 0, 0) in GF(2)^3.
    lat = get_lattice(GF2_3)
    for vector in [(0, 1), (0, 1, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            lat.contains_idx(lat.top_index, vector)
    for vector in [(0, 2, 0), (0, -1, 0), (0, 0.5, 0)]:
        with pytest.raises(OutOfRange):
            lat.contains_idx(lat.top_index, vector)
    assert lat.contains_idx(lat.top_index, [1, 0, 1])


def test_lattice_build_holds_one_square_table():
    # One S x S table of list slots takes S^2 * 8 bytes; the build holds
    # none, and its traced peak stays under twice that.
    from qtransversal.subspaces import Lattice

    spec = VectorSpaceSpec(field_make(2, 1), 5)
    tracemalloc.start()
    try:
        size = len(Lattice(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 374
    assert peak < 2 * size * size * 8


def test_lattice_build_holds_no_square_table():
    # The order is read from the masks, S of them at q^n bits, so the
    # GF(2)^6 build (S = 2,825) peaks under 2 * S^2 bytes (15.96 MB); an S x
    # S table of int slots alone takes 8 * S^2.
    from qtransversal.subspaces import Lattice

    spec = VectorSpaceSpec(field_make(2, 1), 6)
    tracemalloc.start()
    try:
        size = len(Lattice(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 2825
    assert peak < 2 * size * size


def test_serialization_round_trip():
    from qtransversal.subspaces import subspace_from_rows, vector_from_string

    s = canonicalize(GF2_3, [(1, 0, 1), (0, 1, 1)])
    assert subspace_from_rows(GF2_3, s.to_rows()) == s
    gf4 = VectorSpaceSpec(field_make(2, 2), 2)
    v = vector_from_string(gf4, "0110")
    assert v == (gf4.field.parse_code("01"), gf4.field.parse_code("10"))
    with pytest.raises(DimensionMismatch):
        vector_from_string(gf4, "011")


def test_rows_must_be_an_array_of_element_strings():
    from qtransversal.subspaces import family_from_rows, subspace_from_rows

    # A string is not read as its characters, nor an array as a row's digits.
    with pytest.raises(OutOfRange):
        subspace_from_rows(GF2_3, "101")
    with pytest.raises(OutOfRange):
        family_from_rows(GF2_3, "101")
    with pytest.raises(OutOfRange):
        subspace_from_rows(GF2_3, [["1", "0", "1"]])


def test_the_vector_cap_is_read_before_the_lattice_is_counted(monkeypatch):
    from qtransversal import subspaces

    def count(*args):
        raise AssertionError("the subspaces were counted")

    monkeypatch.setattr(subspaces, "gaussian_binomial", count)
    for n in (21, 100_000):
        with pytest.raises(InfeasibleScale, match="vector cap"):
            subspaces.Lattice(VectorSpaceSpec(field_make(2, 1), n))


class _BuildStarted(Exception):
    pass


@pytest.fixture
def build_probe(monkeypatch):
    """Make Lattice raise _BuildStarted the moment it starts enumerating."""
    from qtransversal import subspaces

    def started(*args, **kwargs):
        raise _BuildStarted

    monkeypatch.setattr(subspaces, "enumerate_subspaces", started)
    return subspaces.Lattice


@pytest.mark.parametrize("q, n", [(43, 3), (37, 3), (1021, 2)])
def test_lattice_guard_refuses_before_building(build_probe, q, n):
    # GF(43)^3 has 3,581,556 diamonds, GF(37)^3 (a 12 s build) 1,978,242,
    # and GF(1021)^2 (within VECTOR_CAP) 521,731 on 2^20-bit masks: the
    # guard charges every diamond's join.
    spec = VectorSpaceSpec.from_jsonable({"q": q, "dim": n})
    before = get_lattice.cache_info().currsize
    with pytest.raises(InfeasibleScale, match="lattice"):
        build_probe(spec)
    with pytest.raises(InfeasibleScale, match="lattice"):
        get_lattice(spec)
    assert get_lattice.cache_info().currsize == before


def test_get_lattice_frees_an_evicted_lattice():
    # Fill the bounded cache with other spaces: the first lattice, held
    # by nothing else, is then freed.
    import gc
    import weakref

    spec = VectorSpaceSpec.from_jsonable({"q": 53, "dim": 1})
    held = weakref.ref(get_lattice(spec))
    assert get_lattice(spec) is held()
    others = [q for q in range(2, 200) if q != 53 and all(q % d for d in range(2, q))]
    for q in others[: get_lattice.cache_info().maxsize]:
        get_lattice(VectorSpaceSpec.from_jsonable({"q": q, "dim": 1}))
    gc.collect()
    assert held() is None


@pytest.mark.parametrize(
    "q, n",
    [(2, 7), (31, 3), (8, 4), (4, 5), (2, 6), (3, 5), (23, 3), (7, 4), (4, 4), (3, 4), (2, 5)],
)
def test_lattice_guard_admits_builds_of_seconds(build_probe, q, n):
    with pytest.raises(_BuildStarted):
        build_probe(VectorSpaceSpec.from_jsonable({"q": q, "dim": n}))
