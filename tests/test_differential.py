"""Differential tests over random small specs: independent routes to one
verdict must agree on GF(2)^<=4, GF(3)^<=3 and GF(4)^<=2 with families
of at most three members.  The circuits, and the join of the circuits
below a subspace, are compared with RREF orders and joins exhaustively,
over every pool matroid; the closure table, with the largest superspace
of equal rank, over every pool matroid and every presentation matroid of
at most three members on GF(2)^<=3 and GF(3)^2, where the degree floor is
compared with the cover walk it replaced.  The q-Rado scan's mask verdicts are compared
with its witness route on the same families and exhaustively on
GF(2)^<=3, GF(3)^<=2 and GF(4)^<=2, where seeded tables that are not
q-matroids give it mismatches to record, in exhaustive and random scans
and with up to 8 members of GF(2)^1; its transposed join is compared
with the row join it replaced on every family multiset there.  The
multiset stream's orderings, expanded, are compared with the ordered
walk and its instance numbers, with weight 1 and per-dimension weights.  The meet-closure and the
q-side routes that read it are compared with the 2^n table of every
X(J) over every multiset of a few members of GF(2)^<=4, GF(3)^<=3 and
GF(4)^<=2.  The presentation matroid, built by the union theorem over
the covers, is compared with the closed formula over the meet-closure,
with the union of rank-1 matroids and with the fast test at every T.
The definitional oracle's basis walk is compared with the label route it
replaced, a SetFamily of vector strings per basis, and with the fast
test, exhaustively on GF(2)^<=3, GF(3)^2 and GF(4)^2 with at most three
members and GF(3)^3 with at most two, and on a sample of GF(2)^4.
The default pool's bitset keys and the scan's bitset viol masks are
compared with the tuple route of the closed-form pair tables and with
the bar-nullity-table route they replace.  Represented ranks and
verify_representation, grown from shared atom images, are compared with
the recursive echelon route they replaced on seeded random and wrong
matrices over GF(2)^<=4, GF(3)^<=3, GF(4)^2 and GF(5)^2; the
certificate re-check, which checks each distinct assignment and vector
once, with the per-pair route on original and mutated certificates."""

import dataclasses
import itertools
import json
import math
import random
from functools import lru_cache
from operator import add, eq, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransversal import (
    InvariantViolation,
    QMatroid,
    QRepresentation,
    ScanConfig,
    SetFamily,
    SubspaceFamily,
    VectorSpaceSpec,
    field_make,
    free_matroid,
    get_lattice,
    is_partial_q_transversal,
    is_partial_transversal,
    join,
    leq,
    presentation_matroid,
    q_hall,
    q_transversal_by_definition,
    rank_one,
    recheck_certificate,
    represented_rank,
    scan_q_rado,
    union,
    verify_representation,
    zero_matroid,
)
from qtransversal.conjectures import (
    SCAN_INSTANCE_CAP,
    _family_masks,
    _grouped_draws,
    _matroid_masks,
    _multiset_stream,
    _pool_keys,
    _pool_join,
    _q_rado_mismatches,
    _q_rado_sides,
    _random_draws,
    default_matroid_source,
)
from qtransversal.qtransversals import _avoiding_injections
from qtransversal.representation import _degree_floor
from qtransversal.subspaces import (
    _bits,
    _rank_key,
    count_bases,
    enumerate_bases,
    subspace_from_rows,
    subspace_vectors,
    vector_to_string,
)
from test_qmatroids import closure_oracle

SPACES = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, n) for n in range(1, 3)]
)


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
    assert q_transversal_by_definition(t, fam) == cert.verdict


def label_route_definition(t, fam):
    """The definitional oracle through labels, the reference of the basis
    walk: each basis becomes a family over its own vectors whose i-th set
    holds the vectors not in X_i, and the classical is_partial_transversal
    matches the basis into it."""
    lattice = fam.lattice
    spec = fam.spec
    member_masks = [lattice.masks[mi] for mi in fam.member_indices]
    code_of = {v: lattice.code(v) for v in subspace_vectors(t)}
    for basis in enumerate_bases(t):
        labels = tuple(vector_to_string(spec, v) for v in basis)
        pattern = SetFamily(
            labels,
            tuple(
                frozenset(
                    lbl
                    for lbl, v in zip(labels, basis)
                    if not mask >> code_of[v] & 1
                )
                for mask in member_masks
            ),
        )
        if not is_partial_transversal(labels, pattern):
            return False
    return True


def assert_definition_routes_agree(t, fam):
    reference = label_route_definition(t, fam)
    assert q_transversal_by_definition(t, fam) == reference
    assert is_partial_q_transversal(t, fam, with_witness=False).verdict == reference


# (p, e, n, most members) for the exhaustive definition check: 29,328 pairs.
DEFINITION_SPACES = (
    [(2, 1, n, 3) for n in range(1, 4)] + [(3, 1, 2, 3), (2, 2, 2, 3), (3, 1, 3, 2)]
)


@pytest.mark.parametrize(
    "p,e,n,size",
    DEFINITION_SPACES,
    ids=[f"{p**e}-{n}-{k}" for p, e, n, k in DEFINITION_SPACES],
)
def test_basis_walk_matches_the_label_route(p, e, n, size):
    # Every T against every multiset of at most `size` members.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    for k in range(size + 1):
        for members in itertools.combinations_with_replacement(lattice.subspaces, k):
            fam = SubspaceFamily(lattice.spec, members)
            for t in lattice.subspaces:
                assert_definition_routes_agree(t, fam)


def test_basis_walk_matches_the_label_route_on_sampled_gf2_4():
    lattice = get_lattice(VectorSpaceSpec(field_make(2, 1), 4))
    rng = random.Random(35)
    for _ in range(1000):
        members = rng.choices(lattice.subspaces, k=rng.randint(0, 4))
        fam = SubspaceFamily(lattice.spec, tuple(members))
        assert_definition_routes_agree(rng.choice(lattice.subspaces), fam)


def counting_matching(monkeypatch):
    """Count maximum_matching calls from either module that binds it."""
    from qtransversal import classical, qtransversals

    calls = []
    real = classical.maximum_matching

    def counted(adj, n):
        calls.append(tuple(adj))
        return real(adj, n)

    monkeypatch.setattr(classical, "maximum_matching", counted)
    monkeypatch.setattr(qtransversals, "maximum_matching", counted)
    return calls


def test_oracle_matches_once_per_adjacency_pattern(monkeypatch):
    # T = span(e1, e2, e3) in GF(3)^4 against the lines through e1, e2, e3:
    # 1,872 bases, all with an avoiding injection, but few patterns.
    lattice = get_lattice(VectorSpaceSpec(field_make(3, 1), 4))
    spec = lattice.spec
    lines = [subspace_from_rows(spec, [row]) for row in ("1000", "0100", "0010")]
    fam = SubspaceFamily(spec, tuple(lines))
    t = subspace_from_rows(spec, ["1000", "0100", "0010"])
    patterns = {
        tuple(
            sum(1 << i for i, x in enumerate(fam.member_indices) if not lattice.contains_idx(x, v))
            for v in basis
        )
        for basis in enumerate_bases(t)
    }
    assert count_bases(t) == 1872 and len(patterns) < 100
    calls = counting_matching(monkeypatch)
    assert q_transversal_by_definition(t, fam)
    assert len(calls) == len(set(calls)) == len(patterns)


def test_oracle_stops_at_the_first_basis_without_an_injection(monkeypatch):
    spec = VectorSpaceSpec(field_make(2, 1), 2)
    v = subspace_from_rows(spec, ["10", "01"])
    # The bases of V are (01, 10), (01, 11), (10, 11); 11 lies in both
    # members, so the second basis has no avoiding injection.
    diagonal = subspace_from_rows(spec, ["11"])
    fam = SubspaceFamily(spec, (diagonal, diagonal))
    walk = _avoiding_injections(v, fam)
    assert [(list(map(tuple, basis)), a) for basis, a in walk] == [
        ([(0, 1), (1, 0)], (1, 2)),
        ([(0, 1), (1, 1)], None),
    ]
    # dim T > n: the first basis already fails, after one matching.
    calls = counting_matching(monkeypatch)
    assert not q_transversal_by_definition(v, SubspaceFamily(spec, (diagonal,)))
    assert len(calls) == 1
    assert not q_transversal_by_definition(v, fam)
    assert len(calls) == 3


@lru_cache(maxsize=None)
def pool(lattice):
    return default_matroid_source(lattice)


def mask_verdicts(pool_masks, family_masks):
    """(lhs, rhs) of every pool matroid against one family, read from
    the masks as the scan reads them."""
    tmask, jmask = family_masks
    return [(indep & tmask != 0, viol & jmask == 0) for indep, viol in pool_masks]


def row_mismatches(pool_masks, family_masks):
    """(position, lhs) of every pool matroid whose pair with the family
    has mismatching sides, one pool row at a time with two ANDs: lhs is
    indep & tmask != 0, rhs is viol & jmask == 0, and the sides
    mismatch when lhs != rhs.  The oracle of the scan's transposed join."""
    tmask, jmask = family_masks
    return [
        (i, indep & tmask != 0)
        for i, (indep, viol) in enumerate(pool_masks)
        if (indep & tmask != 0) == (viol & jmask != 0)
    ]


def assert_masks_match_the_witness_route(matroids, fam, max_family):
    pool_masks = [_matroid_masks(m, max_family) for m in matroids]
    family_masks = _family_masks(fam)
    sides = [_q_rado_sides(m, fam) for m in matroids]
    expected = [(lhs_t is not None, rhs_j is None) for lhs_t, rhs_j in sides]
    assert mask_verdicts(pool_masks, family_masks) == expected
    join = _pool_join(pool_masks, len(fam.lattice), max_family)
    assert _q_rado_mismatches(join, family_masks) == [
        (i, lhs) for i, (lhs, rhs) in enumerate(expected) if lhs != rhs
    ]


# (p, e, n) for the exhaustive join check: every multiset of at most
# three members against the pool and two seeds' scrambled tables.
JOIN_SPACES = (
    [(2, 1, n) for n in range(1, 4)] + [(3, 1, n) for n in range(1, 3)] + [(2, 2, n) for n in range(1, 3)]
)


@pytest.mark.parametrize("p,e,n", JOIN_SPACES, ids=[f"{p**e}-{n}" for p, e, n in JOIN_SPACES])
def test_transposed_join_matches_the_row_join(p, e, n):
    # For each max_family 0..3, the pool's masks built for that size, the
    # transposed join of the whole pool and of the empty pool, against
    # every family multiset of at most max_family members.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    matroids = pool(lattice) + scrambled_source(1)(lattice) + scrambled_source(2)(lattice)
    mismatched = 0
    for max_family in range(4):
        pool_masks = [_matroid_masks(m, max_family) for m in matroids]
        join = _pool_join(pool_masks, len(lattice), max_family)
        empty = _pool_join([], len(lattice), max_family)
        for k in range(max_family + 1):
            for members in itertools.combinations_with_replacement(lattice.subspaces, k):
                family_masks = _family_masks(SubspaceFamily(lattice.spec, members))
                expected = row_mismatches(pool_masks, family_masks)
                assert _q_rado_mismatches(join, family_masks) == expected
                assert _q_rado_mismatches(empty, family_masks) == []
                mismatched += bool(expected)
    # Every space but GF(q)^1 gives the scrambled tables mismatches.
    assert mismatched or n == 1


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(families())
def test_q_rado_mask_verdicts_match_the_witness_route(drawn):
    # A scan builds each pool matroid's masks for its largest family size,
    # three here, and each family's masks once.  The scrambled tables add
    # pairs whose sides mismatch.
    lattice, fam = drawn
    assert_masks_match_the_witness_route(pool(lattice) + scrambled(lattice), fam, 3)


def test_transposed_join_matches_the_row_join_across_blocks():
    # Seeded rows, not matroids: enough of them for _pool_join to write
    # three blocks of text, with sparse and dense family masks.
    from qtransversal.conjectures import _JOIN_BLOCK_CHARS

    rng = random.Random(28)
    size, max_family = 67, 3
    width = (max_family + 2) * size
    rows = 2 * (_JOIN_BLOCK_CHARS // width) + 17
    pool_masks = [
        (rng.getrandbits(size) & rng.getrandbits(size), rng.getrandbits(width - size))
        for _ in range(rows)
    ]
    join = _pool_join(iter(pool_masks), size, max_family)
    assert join[0] == (1 << rows) - 1
    for _ in range(40):
        family_masks = (
            sum(1 << t for t in rng.sample(range(size), rng.choice((1, 3, 20)))),
            sum(1 << b for b in rng.sample(range(width - size), rng.choice((1, 4, 12)))),
        )
        expected = row_mismatches(pool_masks, family_masks)
        assert _q_rado_mismatches(join, family_masks) == expected
        assert 0 < len(expected) < rows


def scrambled_source(seed):
    """A matroid source of seeded tables with 0 <= r(X) <= dim X that are
    mostly not q-matroids, so that q-Rado mismatches occur: each pool
    matroid with three entries redrawn (both, on GF(q)^1), then twelve
    tables in which a subspace of dimension d is independent with a
    chance drawn per d."""

    def source(lattice):
        rng = random.Random(seed * 10_000 + len(lattice))
        tables = []
        for matroid in pool(lattice):
            ranks = list(matroid.ranks)
            for i in rng.sample(range(len(ranks)), min(3, len(ranks))):
                ranks[i] = rng.randint(0, lattice.dims[i])
            tables.append(ranks)
        for _ in range(12):
            chance = [rng.choice((0, 0.5, 1)) for _ in range(lattice.spec.dim + 1)]
            tables.append(
                [
                    d if rng.random() < chance[d] else rng.randrange(d) if d else 0
                    for d in lattice.dims
                ]
            )
        return [QMatroid(lattice, ranks, "scrambled") for ranks in tables]

    return source


scrambled = lru_cache(maxsize=None)(scrambled_source(1))


def reference_families(cfg):
    """(lattice, members) of every family a scan walks, in its order:
    the ordered product per dimension and size, or the random draws."""
    if cfg.mode == "random":
        for dim, members in _random_draws(cfg):
            lattice = get_lattice(cfg.space(dim))
            yield lattice, tuple(lattice.subspaces[i] for i in members)
        return
    for dim in range(1, cfg.max_dim + 1):
        lattice = get_lattice(cfg.space(dim))
        for size in range(cfg.max_family + 1):
            for members in itertools.product(lattice.subspaces, repeat=size):
                yield lattice, members


def reference_scan(cfg, source):
    """(pairs, records) of a q-Rado scan that decides every pair by
    _q_rado_sides alone, in the scan's order, with no memo."""
    records = []
    index = 0
    matroids = {}
    for lattice, members in reference_families(cfg):
        fam = SubspaceFamily(lattice.spec, members)
        dim = lattice.spec.dim
        if dim not in matroids:
            matroids[dim] = source(lattice)
        for matroid in matroids[dim]:
            lhs_t, rhs_j = _q_rado_sides(matroid, fam)
            lhs, rhs = lhs_t is not None, rhs_j is None
            if lhs != rhs:
                record = {
                    "instance_index": index,
                    "q": cfg.q,
                    "dim": dim,
                    "family": fam.to_rows(),
                    "matroid": matroid.to_jsonable(),
                    "lhs_has_independent_transversal": lhs,
                    "rhs_condition_holds": rhs,
                }
                if lhs_t is not None:
                    record["lhs_witness_T"] = lhs_t.to_rows()
                if rhs_j is not None:
                    record["rhs_witness_J"] = [
                        i + 1 for i in range(len(members)) if rhs_j >> i & 1
                    ]
                records.append(record)
            index += 1
    return index, records


EXHAUSTIVE = [
    ScanConfig(q=2, max_dim=3, max_family=2),
    ScanConfig(q=3, max_dim=2, max_family=2),
    ScanConfig(q=4, max_dim=2, max_family=1),
]
EXHAUSTIVE_IDS = [f"{c.q}-{c.max_dim}-{c.max_family}" for c in EXHAUSTIVE]


@pytest.mark.parametrize("cfg", EXHAUSTIVE, ids=EXHAUSTIVE_IDS)
def test_q_rado_scan_matches_the_witness_route_on_every_pair(cfg):
    # Every pair of the default pool, mask verdicts against _q_rado_sides.
    for dim in range(1, cfg.max_dim + 1):
        lattice = get_lattice(cfg.space(dim))
        for size in range(cfg.max_family + 1):
            for members in itertools.product(lattice.subspaces, repeat=size):
                fam = SubspaceFamily(lattice.spec, members)
                assert_masks_match_the_witness_route(pool(lattice), fam, cfg.max_family)
    # The scan finds no mismatch on q-matroids, as the reference finds none.
    pairs, records = reference_scan(cfg, pool)
    report = scan_q_rado(cfg)
    assert (report.instances_checked, report.counterexamples) == (pairs, records) == (pairs, [])


RANDOM = [
    ScanConfig(q=2, max_dim=3, max_family=3, mode="random", seed=5, count=150),
    ScanConfig(q=2, max_dim=3, max_family=3, mode="random", seed=2, count=150),
]
# Up to 8 equal or distinct members of GF(2)^1's 2 subspaces.
LARGE_FAMILIES = ScanConfig(q=2, max_dim=1, max_family=8)
SCRAMBLED = EXHAUSTIVE + RANDOM + [LARGE_FAMILIES]
SCRAMBLED_IDS = EXHAUSTIVE_IDS + [f"random-{c.seed}" for c in RANDOM] + ["2-1-8"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cfg", SCRAMBLED, ids=SCRAMBLED_IDS)
def test_q_rado_scan_records_match_the_reference_on_scrambled_tables(cfg, seed):
    source = scrambled_source(seed)
    pairs, records = reference_scan(cfg, source)
    # The tables produce mismatches; on GF(2)^3 also ones where an
    # independent transversal exists and a J fails, which carry both
    # witnesses (on GF(q)^<=2 the table's bases rule those out).  On
    # GF(2)^1 every table with 0 <= r(X) <= dim X satisfies q-Rado, so
    # there the pair count and the empty record list are compared.
    assert records or cfg.max_dim == 1
    if cfg.max_dim == 3:
        assert any("lhs_witness_T" in record for record in records)
    if cfg.mode == "random":
        # Some mismatching multiset recurs in another order, so the scan
        # replays one multiset's mismatch list with a reordered family.
        orders = {}
        for record in records:
            family = record["family"]
            orders.setdefault((record["dim"], json.dumps(sorted(family))), set()).add(json.dumps(family))
        assert any(len(seen) > 1 for seen in orders.values())
    report = scan_q_rado(cfg, source)
    assert report.instances_checked == pairs
    # Record by record, so that a failure names the first differing one.
    assert [json.dumps(r) for r in report.counterexamples] == [json.dumps(r) for r in records]


STREAM = [
    ScanConfig(q=2, max_dim=3, max_family=3),
    ScanConfig(q=3, max_dim=2, max_family=3),
    ScanConfig(q=4, max_dim=2, max_family=3),
    LARGE_FAMILIES,
    *RANDOM,
]
STREAM_IDS = [f"{c.q}-{c.max_dim}-{c.max_family}" for c in STREAM[:4]] + [
    f"random-{c.seed}" for c in RANDOM
]


@pytest.mark.parametrize("weighted", [False, True], ids=["weight-1", "weighted"])
@pytest.mark.parametrize("cfg", STREAM, ids=STREAM_IDS)
def test_multiset_stream_expands_to_the_ordered_walk(cfg, weighted):
    # The stream's orderings, expanded and put in instance order, are the
    # ordered walk, with instances running on by each family's weight.
    weights = {dim: 3 * dim + 1 for dim in range(1, cfg.max_dim + 1)} if weighted else None
    expected, instance = [], 0
    for lattice, members in reference_families(cfg):
        dim = lattice.spec.dim
        expected.append((instance, dim, tuple(map(lattice.idx, members))))
        instance += weights[dim] if weighted else 1
    walked, firsts = [], []
    for lattice, multiset, orderings in _multiset_stream(cfg, _grouped_draws(cfg, SCAN_INSTANCE_CAP), weights):
        dim = lattice.spec.dim
        orderings = list(orderings)
        assert list(multiset) == sorted(multiset)
        assert all(sorted(members) == list(multiset) for _, members in orderings)
        # Ascending within a multiset; exhaustively each ordering once.
        assert orderings == sorted(orderings)
        if cfg.mode == "exhaustive":
            assert len(set(orderings)) == len(orderings)
        firsts.append((dim, multiset, orderings[0][0]))
        walked += [(i, dim, members) for i, members in orderings]
    # Each multiset once, in order of its first visit.
    assert len({(dim, m) for dim, m, _ in firsts}) == len(firsts)
    assert [i for _, _, i in firsts] == sorted(i for _, _, i in firsts)
    assert sorted(walked) == expected


@pytest.mark.parametrize(
    "cfg",
    EXHAUSTIVE + [ScanConfig(q=2, max_dim=3, max_family=3, mode="random", seed=3, count=400)],
    ids=EXHAUSTIVE_IDS + ["2-3-3-random"],
)
def test_q_rado_scan_decides_each_multiset_once(monkeypatch, cfg):
    # _family_masks and the join run, and a family is built, once per
    # distinct (dimension, sorted member indices): on the default pool
    # no ordering has a mismatch to replay.  Exhaustively that is
    # sum over dim and k <= max_family of C(S_dim + k - 1, k).
    from qtransversal import conjectures

    calls = dict.fromkeys(["_family_masks", "_q_rado_mismatches", "_family"], 0)
    for name in calls:
        real = getattr(conjectures, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(conjectures, name, counted)
    report = scan_q_rado(cfg)
    if cfg.mode == "random":
        multisets = len({(dim, tuple(sorted(members))) for dim, members in _random_draws(cfg)})
        assert multisets < cfg.count
    else:
        multisets = sum(
            math.comb(len(get_lattice(cfg.space(dim))) + k - 1, k)
            for dim in range(1, cfg.max_dim + 1)
            for k in range(cfg.max_family + 1)
        )
    assert report.counterexamples == []
    assert calls == dict.fromkeys(calls, multisets)


def two_loop_tables(lattice):
    """(i, j, ranks) for every pair i <= j of lattice indices, in the
    pool's order: the rank table of union(rank_one(X_i), rank_one(X_j)),
    by the closed form

        r(A) = min(2, 1 + c_i(A), 1 + c_j(A), c_(X_i meet X_j)(A)),

    with c_X(A) = dim A - dim(A meet X), as one tuple of S entries per
    pair (S subspaces); the rows c_X are read once per X from
    lattice.meet_row(X)."""
    dims = lattice.dims
    size = len(dims)
    c = [tuple(map(sub, dims, map(dims.__getitem__, lattice.meet_row(x)))) for x in range(size)]
    c1 = [tuple(map((1).__add__, row)) for row in c]
    twos = (2,) * size
    for i in range(size):
        meets = lattice.meet_row(i)
        for j in range(i, size):
            yield i, j, tuple(map(min, c1[i], c1[j], c[meets[j]], twos))


def tuple_route_pool(lattice):
    """The default pool deduplicated by rank tuple: the free matroid, the
    rank-1 matroids, then every pair whose two_loop_tables table is new,
    built by union, which must agree with the table."""
    out, seen = [], set()

    def push(m):
        if m.ranks not in seen:
            seen.add(m.ranks)
            out.append(m)

    push(free_matroid(lattice.spec))
    singles = [rank_one(x) for x in lattice.subspaces]
    for m in singles:
        push(m)
    for i, j, table in two_loop_tables(lattice):
        if table not in seen:
            m = union([singles[i], singles[j]])
            if m.ranks != table:
                raise InvariantViolation("closed form and union disagree")
            push(m)
    return out


SPACE_IDS = [f"{p**e}-{n}" for p, e, n in SPACES]


@pytest.mark.parametrize("p,e,n", SPACES, ids=SPACE_IDS)
def test_bitset_pool_matches_the_tuple_route(p, e, n):
    # Every candidate's key is the levels of its table: the free matroid's,
    # each rank-1 matroid's, and each pair's closed-form table.  The pool
    # keeps the same matroids, in the same order and provenance, and has as
    # many as the stream has distinct keys, which the scan's guard charges.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    keys = list(_pool_keys(lattice))
    assert keys == [
        ("free", (0,) * n, _rank_key(free_matroid(lattice.spec).ranks)),
        *(("rank_one", (i,), _rank_key(rank_one(x).ranks)) for i, x in enumerate(lattice.subspaces)),
        *(("union", (i, j), _rank_key(table)) for i, j, table in two_loop_tables(lattice)),
    ]
    expected = [(m.provenance, m.ranks) for m in tuple_route_pool(lattice)]
    assert [(m.provenance, m.ranks) for m in pool(lattice)] == expected
    assert len({key for *_, key in keys}) == len(pool(lattice))


@pytest.mark.parametrize("p,e,n", SPACES, ids=SPACE_IDS)
def test_meet_levels_match_the_meet_dimensions(p, e, n):
    # Bit A of meet_levels[X][d] is set iff dim(A meet X) <= d, for every
    # A, X and d = 0..n, read one meet at a time.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    assert len(lattice.meet_levels) == len(lattice)
    for x, row in enumerate(lattice.meet_levels):
        assert len(row) == n + 1
        for d, level in enumerate(row):
            assert level == sum(
                1 << a for a in range(len(lattice)) if lattice.dims[lattice.meet_idx(a, x)] <= d
            )


@pytest.mark.parametrize("p,e,n", SPACES, ids=SPACE_IDS)
def test_codim_levels_and_bits_match_the_meet_dimensions(p, e, n):
    # Bit A of codim_levels(t)[X] is set iff dim A - dim(A meet X) >= t,
    # read one meet at a time, and _bits lists those A.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    dims = lattice.dims
    for t in range(n + 2):
        for x, level in enumerate(lattice.codim_levels(t)):
            expected = [a for a in range(len(lattice)) if dims[a] - dims[lattice.meet_idx(a, x)] >= t]
            assert list(_bits(level)) == expected
            assert level == sum(1 << a for a in expected)


def table_route_masks(matroid, max_family):
    """(indep, viol) as _matroid_masks defines them, read bit by bit from
    the rank table and the matroid's bar_nullity_table."""
    lattice = matroid.lattice
    size = len(lattice)
    indep = sum(1 << i for i in range(size) if matroid.ranks[i] == lattice.dims[i])
    barn = matroid.bar_nullity_table()
    barn_v = barn[lattice.top_index]
    viol = 0
    for k in range(max_family, -1, -1):
        viol = viol << size | sum(1 << x for x, b in enumerate(barn) if b + k > barn_v)
    return indep, viol


@pytest.mark.parametrize("p,e,n", SPACES, ids=SPACE_IDS)
def test_bitset_matroid_masks_match_the_bar_nullity_table_route(p, e, n):
    # Every pool matroid and the seeded scrambled tables of two seeds,
    # which are mostly not q-matroids, for every family size up to three.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    matroids = pool(lattice) + scrambled_source(1)(lattice) + scrambled_source(2)(lattice)
    for matroid in matroids:
        for max_family in range(4):
            assert _matroid_masks(matroid, max_family) == table_route_masks(
                matroid, max_family
            )


BAR_NULLITY_SPACES = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize(
    "p,e,n", BAR_NULLITY_SPACES, ids=[f"{p**e}-{n}" for p, e, n in BAR_NULLITY_SPACES]
)
def test_bar_nullity_idx_matches_the_table(p, e, n):
    # bar_nullity_idx evaluates one entry; the table builds them all.  The
    # bases are the independent subspaces of the largest dimension.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    for matroid in pool(lattice) + scrambled(lattice):
        independent = [i for i in range(len(lattice)) if matroid.independent_idx(i)]
        best = max(lattice.dims[i] for i in independent)
        assert matroid.bases_idx() == tuple(i for i in independent if lattice.dims[i] == best)
        table = matroid.bar_nullity_table()
        assert [matroid.bar_nullity_idx(x) for x in range(len(lattice))] == list(table)


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


def walk_degree_floor(matroid):
    """The degree floor by the walk _degree_floor ran before it read the
    closure table: one walk down the cover columns, upper covers first,
    reads the closure of every subspace (its own index for a flat, else
    the closure of an upper cover of equal rank) and the closures of the
    upper covers of other rank."""
    lattice = matroid.lattice
    ranks, dims = matroid.ranks, lattice.dims
    closure = list(range(len(dims)))
    above = [set() for _ in dims]
    lower, upper = lattice.covers
    for lo, hi in zip(reversed(lower), reversed(upper)):
        if ranks[lo] == ranks[hi]:
            closure[lo] = closure[hi]
        else:
            above[lo].add(closure[hi])
    flats = [f for f, c in enumerate(closure) if c == f]
    loops = dims[closure[lattice.bottom_index]]
    top_rank = matroid.space_rank
    q = lattice.spec.field.order
    floor = max([1] + [-((loops - dims[f]) // ranks[f]) for f in flats if ranks[f] > 0])
    for f in flats:
        count, d = len(above[f]), top_rank - ranks[f]
        if d <= 1:
            if count > max(d, 0):
                return None
            continue
        while (q ** (floor * d) - 1) // (q**floor - 1) < count:
            floor += 1
    return floor


def assert_closure_table_matches(matroid):
    lattice = matroid.lattice
    table = matroid.closure_table()
    expected = [lattice.idx(closure_oracle(matroid, x)) for x in lattice.subspaces]
    assert list(table) == expected
    assert matroid.loop_space() == closure_oracle(matroid, lattice.subspaces[lattice.bottom_index])
    assert _degree_floor(matroid) == walk_degree_floor(matroid)


@pytest.mark.parametrize("p,e,n", SPACES, ids=SPACE_IDS)
def test_closure_table_matches_the_definition_on_the_pool(p, e, n):
    # The cover walk against the largest superspace of equal rank, found
    # by a scan of every subspace, and the degree floor against the walk
    # it replaced, on every pool matroid.
    for matroid in pool(get_lattice(VectorSpaceSpec(field_make(p, e), n))):
        assert_closure_table_matches(matroid)


# (p, e, n, most members): every multiset on GF(2)^<=3 and GF(3)^2.
PRESENTED_CLOSURE_SPACES = [(2, 1, n, 3) for n in range(1, 4)] + [(3, 1, 2, 3)]


@pytest.mark.parametrize(
    "p,e,n,size",
    PRESENTED_CLOSURE_SPACES,
    ids=[f"{p**e}-{n}-{k}" for p, e, n, k in PRESENTED_CLOSURE_SPACES],
)
def test_closure_table_matches_the_definition_on_presentations(p, e, n, size):
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    for k in range(size + 1):
        for members in itertools.combinations_with_replacement(lattice.subspaces, k):
            assert_closure_table_matches(presentation_matroid(SubspaceFamily(lattice.spec, members)))


def meet_table(fam):
    """The lattice index of X(J) for every J, indexed by the bitmask of J
    (bit i-1 for member i), X(empty) = V: member i doubles the table, the
    entry at mask + 2^(i-1) being the meet of X_i with the entry at mask."""
    lattice = fam.lattice
    meets = [lattice.top_index]
    for mi in fam.member_indices:
        row = lattice.meet_row(mi)
        meets += [row[x] for x in meets]
    return meets


# (p, e, n, most members) for the exhaustive closure check: 4,040 multisets.
CLOSURE_SPACES = (
    [(2, 1, n, 3) for n in range(1, 4)]
    + [(2, 1, 4, 2), (3, 1, 1, 3), (3, 1, 2, 3), (3, 1, 3, 2), (2, 2, 1, 3), (2, 2, 2, 3)]
)


@pytest.mark.parametrize(
    "p,e,n,size", CLOSURE_SPACES, ids=[f"{p**e}-{n}-{k}" for p, e, n, k in CLOSURE_SPACES]
)
def test_meet_closure_matches_the_meet_table(p, e, n, size):
    # The closure route against the 2^n table of X(J): its keys are the
    # distinct X(J), each J_W is the union of the J with X(J) = W, and the
    # presentation ranks, the q-Hall verdict and every T's partial
    # q-transversal verdict equal the table's minima over every J.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    dims = lattice.dims
    for k in range(size + 1):
        for members in itertools.combinations_with_replacement(lattice.subspaces, k):
            fam = SubspaceFamily(lattice.spec, members)
            table = meet_table(fam)
            union_of_js = {}
            for mask, xj in enumerate(table):
                union_of_js[xj] = union_of_js.get(xj, 0) | mask
            assert [w for w, _ in fam.meet_closure] == list(dict.fromkeys(table))
            assert dict(fam.meet_closure) == union_of_js
            ranks = [
                min(
                    k - mask.bit_count() + dims[a] - dims[lattice.meet_idx(a, xj)]
                    for mask, xj in enumerate(table)
                )
                for a in range(len(lattice))
            ]
            assert presentation_matroid(fam).ranks == tuple(ranks)
            verdict = q_hall(fam)
            assert verdict.ok == all(
                dims[xj] + mask.bit_count() <= n for mask, xj in enumerate(table) if mask
            )
            if not verdict.ok:
                mask = sum(1 << (i - 1) for i in verdict.witness_J)
                assert dims[table[mask]] + mask.bit_count() > n
            for t, subspace in enumerate(lattice.subspaces):
                cert = is_partial_q_transversal(subspace, fam, with_witness=False)
                assert cert.verdict == all(
                    dims[lattice.meet_idx(t, xj)] + mask.bit_count() <= k
                    for mask, xj in enumerate(table)
                )
                if not cert.verdict:
                    assert recheck_certificate(cert, subspace, fam)


def per_position_closure(fam):
    """The meet-closure with one pass per member position: member i ORs
    its own bit into the entry of the meet of X_i with each entry so far."""
    lattice = fam.lattice
    closure = {lattice.top_index: 0}
    for i, m in enumerate(fam.member_indices):
        for w, j in list(closure.items()):
            x = lattice.meet_idx(w, m)
            closure[x] = closure.get(x, 0) | j | 1 << i
    return tuple(closure.items())


def test_meet_closure_over_distinct_members_matches_the_per_position_passes():
    # 400 seeded families with repeats in any order: one pass per distinct
    # member gives the same entries, J_W and order as one per position.
    rng = random.Random(26)
    repeated = 0
    for _ in range(400):
        p, e, n = rng.choice(SPACES)
        lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
        pool = rng.sample(lattice.subspaces, min(len(lattice), rng.randint(1, 4)))
        members = tuple(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        fam = SubspaceFamily(lattice.spec, members)
        repeated += len(set(fam.members)) < len(fam)
        assert fam.meet_closure == per_position_closure(fam)
    assert repeated > 250


def closure_column_ranks(fam):
    """The closed formula over the meet-closure: one S-entry column per
    meet W at cost n - |J_W|, r(A) = dim A + min over W of n - |J_W| -
    dim(A meet W); the repeated first column keeps min's arguments a
    sequence when the closure is V alone."""
    lattice = fam.lattice
    dims = lattice.dims
    n = len(fam)
    cols = [
        [n - j.bit_count() - dims[m] for m in lattice.meet_row(w)]
        for w, j in fam.meet_closure
    ]
    return tuple(map(add, dims, map(min, *cols, cols[0])))


# (p, e, n, most members): every multiset of at most two members on
# GF(2)^<=4, GF(3)^<=3 and GF(4)^<=2, and of three on GF(2)^3.
PRESENTATION_SPACES = [(p, e, n, 2) for p, e, n in SPACES] + [(2, 1, 3, 3)]


@pytest.mark.parametrize(
    "p,e,n,size",
    PRESENTATION_SPACES,
    ids=[f"{p**e}-{n}-{k}" for p, e, n, k in PRESENTATION_SPACES],
)
def test_presentation_matroid_matches_three_routes(p, e, n, size):
    # The cover walk over f(B) = #{i : B not <= X_i} against the closed
    # formula over the meet-closure, the union of rank-1 matroids (which
    # checks the summed table's submodularity first) and the fast test's
    # verdict at every T.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    dims = lattice.dims
    for k in range(size + 1):
        for members in itertools.combinations_with_replacement(lattice.subspaces, k):
            fam = SubspaceFamily(lattice.spec, members)
            ranks = presentation_matroid(fam).ranks
            assert ranks == closure_column_ranks(fam)
            if members:
                reference = union([rank_one(x) for x in members])
            else:
                reference = zero_matroid(lattice.spec)
            assert ranks == reference.ranks
            assert list(map(eq, ranks, dims)) == [
                is_partial_q_transversal(t, fam, with_witness=False).verdict
                for t in lattice.subspaces
            ]


def recursive_image(rep, row):
    """G v for a nonzero base vector v, from the columns of G."""
    ext, emb = rep.ext, rep.embedding
    image = None
    for v, col in zip(row, zip(*rep.matrix)):
        if not v:
            continue
        col = [ext.mul_codes(emb[v], g) for g in col]
        image = col if image is None else [ext.add_codes(a, g) for a, g in zip(image, col)]
    return image


def recursive_echelon(rep, rows, echelons):
    """The echelon route the shared atom images replaced: the form of
    rows[:-1] by recursion through the memo, and the last row's own
    image G v reduced against it."""
    form = echelons.get(rows)
    if form is not None:
        return form
    form = recursive_echelon(rep, rows[:-1], echelons) if len(rows) > 1 else ()
    if len(form) < len(rep.matrix):
        ext = rep.ext
        image = recursive_image(rep, rows[-1])
        for pivot, e in form:
            f = image[pivot]
            if f:
                image = [ext.sub_codes(a, ext.mul_codes(f, b)) for a, b in zip(image, e)]
        pivot = next((c for c, a in enumerate(image) if a), None)
        if pivot is not None:
            inv = ext.inv_code(image[pivot])
            form = form + ((pivot, tuple(ext.mul_codes(inv, a) for a in image)),)
    echelons[rows] = form
    return form


def recursive_rank(rep, x, echelons):
    if not rep.matrix or x.dim == 0:
        return 0
    return len(recursive_echelon(rep, x.rows, echelons))


def recursive_verify(rep, matroid):
    echelons = {}
    for s, r in zip(matroid.lattice.subspaces, matroid.ranks):
        if recursive_rank(rep, s, echelons) != r:
            return False, s
    return True, None


REPRESENTATION_SPACES = (
    [(2, 1, n) for n in range(1, 5)]
    + [(3, 1, n) for n in range(1, 4)]
    + [(2, 2, 2), (5, 1, 2)]
)


@pytest.mark.parametrize(
    "p,e,n", REPRESENTATION_SPACES, ids=[f"{p**e}-{n}" for p, e, n in REPRESENTATION_SPACES]
)
def test_shared_atom_images_match_the_recursive_route(p, e, n):
    # Seeded random matrices of 0..n rows at degrees 1..3, each verified
    # against its own table, a nudged table, the free and zero tables,
    # and by a wrong matrix, one entry changed: the (ok, first
    # disagreement) pair and every represented rank, in index order with
    # one memo and in a shuffled order with one memo and with none.
    spec = VectorSpaceSpec(field_make(p, e), n)
    lattice = get_lattice(spec)
    rng = random.Random(f"atom-images:{p}-{e}-{n}")
    for degree in (1, 2, 3):
        ext = field_make(p, e * degree)
        for _ in range(8):
            rows = rng.randint(0, n)
            matrix = [
                [rng.randrange(ext.order) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(rows)
            ]
            rep = QRepresentation(spec, ext, tuple(map(tuple, matrix)))
            echelons = {}
            ranks = [recursive_rank(rep, s, echelons) for s in lattice.subspaces]
            order = list(range(len(lattice)))
            rng.shuffle(order)
            echelons = {}
            for i in order:
                s = lattice.subspaces[i]
                assert represented_rank(rep, s, echelons) == ranks[i]
                assert represented_rank(rep, s) == ranks[i]
            nudged = list(ranks)
            nudged[rng.randrange(len(nudged))] += 1
            tables = (ranks, nudged, free_matroid(spec).ranks, zero_matroid(spec).ranks)
            for table in tables:
                target = QMatroid(lattice, table)
                assert verify_representation(rep, target) == recursive_verify(rep, target)
            if rows:
                row = matrix[rng.randrange(rows)]
                j = rng.randrange(n)
                row[j] = (row[j] + 1) % ext.order
                wrong = QRepresentation(spec, ext, tuple(map(tuple, matrix)))
                target = QMatroid(lattice, ranks)
                assert verify_representation(wrong, target) == recursive_verify(wrong, target)


def pairwise_recheck(cert, t, fam):
    """The witness re-check that every distinct assignment and vector
    replaced: every assignment's length, injectivity and range, and
    avoidance at every (vector, index) pair, read from the member's
    mask, after the basis count and the set of bases."""
    lattice = fam.lattice
    bases = list(enumerate_bases(t))
    assert len(bases) == count_bases(t)
    certified = [basis for basis, _ in cert.basis_witnesses]
    if certified != bases and set(certified) != set(bases):
        return False
    n = len(fam)
    for basis, assignment in cert.basis_witnesses:
        if (
            len(assignment) != t.dim
            or len(set(assignment)) != t.dim
            or not all(1 <= i <= n for i in assignment)
        ):
            return False
        for v, i in zip(basis, assignment):
            if lattice.masks[fam.member_indices[i - 1]] >> lattice.code(v) & 1:
                return False
    return True


ASSIGNMENT_MUTATIONS = {
    "reversed": lambda a, n: a[::-1],
    "zero": lambda a, n: (0,) * len(a),
    "short": lambda a, n: a[:-1],
    "repeated": lambda a, n: a[:1] * len(a),
    "out-of-range": lambda a, n: (n + 1,) + a[1:],
}


def mutated_certificates(cert, n, rng):
    """The certificate, each assignment mutation at one witness and at
    every witness, and the certificate with one basis dropped and with
    one basis listed twice."""
    witnesses = cert.basis_witnesses
    at = rng.randrange(len(witnesses))
    yield cert
    for mutate in ASSIGNMENT_MUTATIONS.values():
        basis, assignment = witnesses[at]
        one = witnesses[:at] + ((basis, mutate(assignment, n)),) + witnesses[at + 1:]
        every = tuple((basis, mutate(assignment, n)) for basis, assignment in witnesses)
        yield dataclasses.replace(cert, basis_witnesses=one)
        yield dataclasses.replace(cert, basis_witnesses=every)
    yield dataclasses.replace(cert, basis_witnesses=witnesses[:at] + witnesses[at + 1:])
    yield dataclasses.replace(cert, basis_witnesses=witnesses[: at + 1] + witnesses[at:])


# (p, e, n, members) of the mutated-certificate comparison.
RECHECK_SPACES = ((2, 1, 3, 3), (2, 1, 4, 4), (3, 1, 2, 2), (2, 2, 2, 2), (3, 1, 3, 3))


@pytest.mark.parametrize(
    "p,e,n,size", RECHECK_SPACES, ids=[f"{p**e}-{n}-{k}" for p, e, n, k in RECHECK_SPACES]
)
def test_recheck_matches_the_pairwise_route_on_mutated_certificates(p, e, n, size):
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), n))
    rng = random.Random(f"recheck-mutations:{p}-{e}-{n}")
    verdicts = []
    certificates = 0
    while certificates < 12:
        t = rng.choice([s for s in lattice.subspaces if 0 < s.dim <= 3])
        fam = SubspaceFamily(lattice.spec, tuple(rng.choices(lattice.subspaces, k=size)))
        cert = is_partial_q_transversal(t, fam, with_witness=True)
        if not cert.verdict:
            continue
        certificates += 1
        for forged in mutated_certificates(cert, size, rng):
            verdict = pairwise_recheck(forged, t, fam)
            assert recheck_certificate(forged, t, fam) is verdict
            verdicts.append(verdict)
    # Both verdicts occur: the originals pass and some mutations fail.
    assert True in verdicts and False in verdicts
