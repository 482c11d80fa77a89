"""q-transversal tests, presentations, reduction, and minimality."""

import dataclasses
import gc
import itertools
import random
import tracemalloc

import pytest

from qtransversal import (
    InvariantViolation,
    OutOfRange,
    QTransversalCertificate,
    SubspaceFamily,
    VectorSpaceSpec,
    bottom,
    canonicalize,
    enumerate_bases,
    family_meet,
    field_make,
    free_matroid,
    get_lattice,
    is_minimal_presentation,
    is_partial_q_transversal,
    is_q_transversal,
    meet,
    presentation_matroid,
    prime_power,
    q_hall,
    q_transversal_by_definition,
    rank_one,
    recheck_certificate,
    reduce_presentation,
    top,
    union,
    zero_matroid,
)
from qtransversal import qtransversals

GF2_2 = VectorSpaceSpec(field_make(2, 1), 2)
GF2_3 = VectorSpaceSpec(field_make(2, 1), 3)
GF3_2 = VectorSpaceSpec(field_make(3, 1), 2)
LAT2 = get_lattice(GF2_2)


def line(spec, *coords):
    return canonicalize(spec, [coords])


L01 = line(GF2_2, 0, 1)
L10 = line(GF2_2, 1, 0)
L11 = line(GF2_2, 1, 1)
V2 = top(GF2_2)


def fam2(*members):
    return SubspaceFamily(GF2_2, tuple(members))


def families(spec, sizes):
    lattice = get_lattice(spec)
    for n in sizes:
        for members in itertools.product(lattice.subspaces, repeat=n):
            yield SubspaceFamily(spec, members)


def test_presentation_matroid_examples():
    assert presentation_matroid(fam2(L10, L01)) == free_matroid(GF2_2)
    assert presentation_matroid(fam2(V2)).ranks == (0,) * 5
    assert presentation_matroid(fam2(L10)) == rank_one(L10)
    assert presentation_matroid(fam2()).ranks == (0,) * 5  # empty family


def union_route(family):
    """The presentation matroid as the union of rank-1 matroids: the route
    the closed formula replaces, and the one independent of X(J)."""
    if not family.members:
        return zero_matroid(family.spec)
    return union([rank_one(x) for x in family.members])


# (q, n, largest family size): every family of these sizes is checked.
FORMULA_SPACES = (
    (2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 2, 3),
    (4, 2, 2), (5, 2, 2),
    (2, 4, 1), (3, 3, 1),
)


@pytest.mark.parametrize(
    "q,n,size", FORMULA_SPACES, ids=[f"{q}-{n}-{k}" for q, n, k in FORMULA_SPACES]
)
def test_presentation_equals_union_of_rank_ones(q, n, size):
    p, e = prime_power(q)
    spec = VectorSpaceSpec(field_make(p, e), n)
    for family in families(spec, range(size + 1)):
        assert presentation_matroid(family).ranks == union_route(family).ranks


def test_q_hall_examples():
    assert q_hall(fam2(L10)).ok
    verdict = q_hall(fam2(V2))
    assert not verdict.ok and verdict.witness_J == (1,)
    verdict = q_hall(fam2(L10, L01, L11))
    assert not verdict.ok and verdict.witness_J == (1, 2, 3)
    assert q_hall(fam2()).ok


def test_q_hall_witness_recheck():
    # V is the one meet, and J_V = {1, 2} is the witness; {1} alone
    # violates too, but the closure tests each meet at its largest J.
    verdict = q_hall(fam2(V2, V2))
    assert verdict.witness_J == (1, 2)
    xj = family_meet(fam2(V2, V2), verdict.witness_J)
    assert xj.dim + len(verdict.witness_J) > GF2_2.dim


def test_q_hall_iff_full_rank():
    for spec, sizes in ((GF2_2, (0, 1, 2, 3)), (GF3_2, (0, 1, 2))):
        for family in families(spec, sizes):
            assert q_hall(family).ok == (
                presentation_matroid(family).space_rank == len(family)
            )


def test_is_partial_q_transversal_examples():
    assert is_partial_q_transversal(bottom(GF2_2), fam2(L10, L01)).verdict
    assert is_partial_q_transversal(V2, fam2(L10, L01)).verdict
    cert = is_partial_q_transversal(L10, fam2(L10, L10))
    assert not cert.verdict
    assert cert.violating_J == (1, 2)
    assert cert.violation_meet_dim == 1


def test_certificates_recheck():
    for family in families(GF2_2, (0, 1, 2)):
        for t in LAT2.subspaces:
            cert = is_partial_q_transversal(t, family)
            assert recheck_certificate(cert, t, family)


def _forge(cert, rewrite):
    return dataclasses.replace(
        cert,
        basis_witnesses=tuple(
            (basis, rewrite(assignment)) for basis, assignment in cert.basis_witnesses
        ),
    )


@pytest.mark.parametrize(
    "forge",
    [
        # False verdicts: repeated indices inflate |J|; J names a member past n.
        lambda cert: QTransversalCertificate(False, (1, 1, 1), 1),
        lambda cert: QTransversalCertificate(False, (1, 3), 0),
        # True verdicts: index 0 aliases member n through a negative index.
        lambda cert: _forge(cert, lambda a: tuple(0 if i == 2 else i for i in a)),
        # Assignments of the wrong length, or naming a member past n.
        lambda cert: _forge(cert, lambda a: a[:1]),
        lambda cert: _forge(cert, lambda a: a + (3,)),
        lambda cert: _forge(cert, lambda a: (3,) + a[1:]),
    ],
    ids=["repeated-J", "J-past-n", "index-0", "truncated", "extended", "index-past-n"],
)
def test_recheck_rejects_forged_certificates(forge):
    family = fam2(L10, L01)
    cert = is_partial_q_transversal(V2, family)
    assert cert.verdict and recheck_certificate(cert, V2, family)
    assert recheck_certificate(forge(cert), V2, family) is False


def _recheck_by_basis_set(cert, t, fam):
    """The set-based re-check: every listed basis of T, with a valid
    avoiding assignment, and together all bases of T."""
    lattice = get_lattice(fam.spec)
    bases = set(enumerate_bases(t))
    n = len(fam)
    seen = set()
    for basis, assignment in cert.basis_witnesses:
        if (
            basis not in bases
            or len(assignment) != t.dim
            or len(set(assignment)) != t.dim
            or not all(1 <= i <= n for i in assignment)
        ):
            return False
        for v, i in zip(basis, assignment):
            if lattice.contains_idx(lattice.idx(fam.members[i - 1]), v):
                return False
        seen.add(basis)
    return seen == bases


def _rotated(entry):
    basis, assignment = entry
    return basis, assignment[1:] + assignment[:1]


REORDERINGS = {
    "as-is": lambda w, rng: w,
    "reversed": lambda w, rng: w[::-1],
    "shuffled": lambda w, rng: rng.sample(w, len(w)),
    "first-repeated": lambda w, rng: w + w[:1],
    "all-repeated": lambda w, rng: w + w[::-1],
    "last-dropped": lambda w, rng: w[:-1],
    "last-replaced-by-first": lambda w, rng: w[:-1] + w[:1],
    "repeat-rotated": lambda w, rng: w + (_rotated(w[0]),),
    "rotated-at-front": lambda w, rng: (_rotated(w[0]),) + w[1:],
    "vector-repeated": lambda w, rng: ((w[0][0][:1] * len(w[0][0]), w[0][1]),) + w[1:],
}


@pytest.mark.parametrize("how", list(REORDERINGS))
@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2)], ids=["2-3", "3-2", "4-2"])
def test_recheck_accepts_orderings_as_the_basis_set_route(p, e, n, how):
    spec = VectorSpaceSpec(field_make(p, e), n)
    v = top(spec)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    family = SubspaceFamily(spec, tuple(canonicalize(spec, [u]) for u in unit))
    cert = is_partial_q_transversal(v, family, with_witness=True)
    assert cert.verdict
    rng = random.Random(f"recheck:{p}-{e}-{n}")
    forged = dataclasses.replace(
        cert, basis_witnesses=tuple(REORDERINGS[how](cert.basis_witnesses, rng))
    )
    expected = _recheck_by_basis_set(forged, v, family)
    assert recheck_certificate(forged, v, family) is expected
    # Reorderings and repeats of valid entries pass; a missing basis, a
    # non-basis or the first witness with its assignment rotated (which
    # sends a vector into its member) fails.
    assert expected is (how in ("as-is", "reversed", "shuffled", "first-repeated", "all-repeated"))


def test_recheck_counts_bases_independently(monkeypatch):
    # An enumerator that drops a basis would shrink the certificate and
    # its re-check alike; the closed-form count catches it.
    family = fam2(L10, L01)
    cert = is_partial_q_transversal(V2, family)
    assert recheck_certificate(cert, V2, family)
    real = qtransversals.enumerate_bases
    monkeypatch.setattr(
        qtransversals, "enumerate_bases", lambda t, **kw: list(real(t, **kw))[1:]
    )
    with pytest.raises(InvariantViolation, match="basis count"):
        recheck_certificate(cert, V2, family)


def test_witness_and_recheck_leave_no_reference_cycles():
    # Garbage left in cycles waits for the cyclic collector; with the
    # collector paused, one cycle per call grows memory without bound.
    spec = VectorSpaceSpec(field_make(2, 2), 3)
    plane = canonicalize(spec, [(1, 0, 0), (0, 1, 0)])
    e3 = line(spec, 0, 0, 1)
    family = SubspaceFamily(spec, (e3, e3))
    gc.collect()
    gc.disable()
    try:
        cert = is_partial_q_transversal(plane, family, with_witness=True)
        assert recheck_certificate(cert, plane, family)
        assert len(cert.basis_witnesses) == 90
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_q_side_routes_keep_nothing_per_family():
    # The lattice keeps no row or table for the families it is asked
    # about: once the lattice and its covers are built, 200 distinct
    # families leave next to nothing traced behind them.
    spec = VectorSpaceSpec(field_make(2, 1), 5)
    lattice = get_lattice(spec)
    rng = random.Random(5)

    def run(fam):
        presentation_matroid(fam)
        q_hall(fam)
        is_partial_q_transversal(rng.choice(lattice.subspaces), fam, with_witness=False)

    run(SubspaceFamily(spec, lattice.subspaces[-3:]))
    seen = set()
    while len(seen) < 200:
        seen.add(tuple(sorted(rng.sample(range(len(lattice)), rng.randint(1, 4)))))
    gc.collect()
    tracemalloc.start()
    try:
        for members in sorted(seen):
            run(SubspaceFamily(spec, tuple(lattice.subspaces[i] for i in members)))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_too_large_t_fails_at_empty_J():
    cert = is_partial_q_transversal(V2, fam2(L10))
    assert not cert.verdict and cert.violating_J == ()


def test_oracle_examples():
    assert q_transversal_by_definition(bottom(GF2_2), fam2(L10, L01))
    assert q_transversal_by_definition(V2, fam2(L10, L01))
    assert not q_transversal_by_definition(L01, fam2(V2))


def test_three_way_agreement_exhaustive_gf2_2():
    # Union-of-rank-ones independence == fast J-test == basis-walking oracle,
    # over every family with at most 3 members and every subspace.
    for family in families(GF2_2, (1, 2, 3)):
        matroid = union_route(family)
        for t in LAT2.subspaces:
            fast = is_partial_q_transversal(t, family, with_witness=False).verdict
            assert fast == matroid.independent(t)
            assert fast == q_transversal_by_definition(t, family)


def test_three_way_agreement_sampled_gf2_3():
    lattice = get_lattice(GF2_3)
    subs = lattice.subspaces
    sampled = [
        SubspaceFamily(GF2_3, (a,)) for a in subs
    ] + [
        SubspaceFamily(GF2_3, (subs[i], subs[(i * 7 + 3) % 16], subs[(i * 5 + 1) % 16]))
        for i in range(16)
    ]
    for family in sampled:
        matroid = union_route(family)
        for t in subs:
            fast = is_partial_q_transversal(t, family, with_witness=False).verdict
            assert fast == matroid.independent(t)
            assert fast == q_transversal_by_definition(t, family)


def test_three_way_agreement_spot_gf4_1():
    # Exercise a non-prime base field through all three routes.
    spec = VectorSpaceSpec(field_make(2, 2), 2)
    lattice = get_lattice(spec)
    for family in families(spec, (1,)):
        matroid = union_route(family)
        for t in lattice.subspaces:
            fast = is_partial_q_transversal(t, family, with_witness=False).verdict
            assert fast == matroid.independent(t)
            assert fast == q_transversal_by_definition(t, family)


def test_three_way_agreement_spot_gf3_2():
    lattice = get_lattice(GF3_2)
    for family in families(GF3_2, (1, 2)):
        matroid = union_route(family)
        for t in lattice.subspaces:
            fast = is_partial_q_transversal(t, family, with_witness=False).verdict
            assert fast == matroid.independent(t)
            assert fast == q_transversal_by_definition(t, family)


def test_members_are_flats():
    for family in families(GF2_2, (1, 2, 3)):
        matroid = presentation_matroid(family)
        for x in family.members:
            assert matroid.closure(x) == x


def test_is_q_transversal():
    assert is_q_transversal(L01, fam2(L10))
    assert not is_q_transversal(L01, fam2(V2))
    assert not is_q_transversal(V2, fam2(L10))  # dimension mismatch
    assert is_q_transversal(V2, fam2(L10, L01))


def test_reduce_presentation_examples():
    reduced = reduce_presentation(fam2(L10, L01, V2))
    assert reduced.members == (L10, L01)
    already = fam2(L10, L01)
    assert reduce_presentation(already).members == already.members
    assert reduce_presentation(fam2(V2, V2)).members == ()


def test_reduce_presentation_properties():
    for family in families(GF2_2, (0, 1, 2, 3)):
        matroid = presentation_matroid(family)
        reduced = reduce_presentation(family)
        assert len(reduced) == matroid.space_rank
        assert presentation_matroid(reduced) == matroid
        # Greedy keeps a subsequence of the original members.
        it = iter(family.members)
        assert all(any(x == y for y in it) for x in reduced.members)


def reduce_by_closed_formula(family):
    """The greedy reduction with each candidate's r(V) from the closed
    formula, the min over the closure's meets W of n - |J_W| + dim V -
    dim W: the route the q_hall test replaced."""
    dims = family.lattice.dims
    kept, rank = [], 0
    for x in family.members:
        candidate = SubspaceFamily(family.spec, (*kept, x))
        n = len(candidate)
        r = min(n - j.bit_count() + family.spec.dim - dims[w] for w, j in candidate.meet_closure)
        if r > rank:
            kept.append(x)
            rank = r
    return tuple(kept)


def test_reduce_presentation_matches_the_closed_formula_route():
    # Every multiset of at most three members over GF(2)^<=3, then seeded
    # families of up to nine members in a random order.
    for n in (1, 2, 3):
        spec = VectorSpaceSpec(field_make(2, 1), n)
        for size in range(4):
            for members in itertools.combinations_with_replacement(get_lattice(spec).subspaces, size):
                family = SubspaceFamily(spec, members)
                assert reduce_presentation(family).members == reduce_by_closed_formula(family)
    rng = random.Random(27)
    for p, e, n in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 1, 5)]:
        spec = VectorSpaceSpec(field_make(p, e), n)
        subspaces = get_lattice(spec).subspaces
        for _ in range(50):
            family = SubspaceFamily(spec, tuple(rng.choices(subspaces, k=rng.randint(0, 9))))
            assert reduce_presentation(family).members == reduce_by_closed_formula(family)


def partial_equiv_check(t, fam):
    """Subsystem route: T is a full q-transversal of some subfamily with
    exactly dim T members.  Must agree with the fast test."""
    return t.dim <= len(fam) and any(
        is_q_transversal(t, SubspaceFamily(fam.spec, tuple(fam.members[i] for i in combo)))
        for combo in itertools.combinations(range(len(fam)), t.dim)
    )


def test_partial_equiv_examples():
    assert partial_equiv_check(bottom(GF2_2), fam2(L10, L01))
    assert partial_equiv_check(L11, fam2(L10, L01))
    assert not partial_equiv_check(L10, fam2(V2, V2))


def test_partial_equiv_matches_fast_test():
    for family in families(GF2_2, (0, 1, 2, 3)):
        for t in LAT2.subspaces:
            assert partial_equiv_check(t, family) == \
                is_partial_q_transversal(t, family, with_witness=False).verdict


def test_minimality_examples():
    report = is_minimal_presentation(fam2(L10, L01))
    assert not report.minimal
    assert report.witness_index == 1
    assert report.shrunken_member == bottom(GF2_2)
    assert presentation_matroid(report.replacement) == free_matroid(GF2_2)
    assert is_minimal_presentation(fam2(bottom(GF2_2), bottom(GF2_2))).minimal
    assert is_minimal_presentation(fam2(L10)).minimal


def test_minimal_iff_cyclic_both_directions():
    lattice = LAT2
    for family in families(GF2_2, (1, 2, 3)):
        matroid = presentation_matroid(family)
        report = is_minimal_presentation(family)
        assert report.minimal == all(matroid.is_cyclic(x) for x in family.members)
        if report.minimal:
            # Every proper member-wise shrink changes the matroid.
            for pos, x in enumerate(family.members):
                xi = lattice.idx(x)
                for sub_idx in lattice.below[xi]:
                    if sub_idx == xi:
                        continue
                    shrunk = SubspaceFamily(
                        GF2_2,
                        family.members[:pos]
                        + (lattice.subspaces[sub_idx],)
                        + family.members[pos + 1 :],
                    )
                    assert presentation_matroid(shrunk) != matroid
        else:
            assert presentation_matroid(report.replacement) == matroid
            assert report.shrunken_member.dim < family.members[report.witness_index - 1].dim


def test_minimality_reads_a_given_matroid_as_its_own():
    for spec in (GF2_2, GF3_2):
        for family in families(spec, (0, 1, 2)):
            given = is_minimal_presentation(family, matroid=presentation_matroid(family))
            assert given == is_minimal_presentation(family)


def test_union_of_rank_ones_is_presentation_and_back():
    # Tautological by construction, asserted as a consistency check: the
    # presentation matroid of the loop-space family of a union of rank-1
    # matroids equals that union.
    for loops in itertools.product(LAT2.subspaces, repeat=2):
        u = union([rank_one(x) for x in loops])
        assert presentation_matroid(SubspaceFamily(GF2_2, loops)) == u


def test_family_meet_convention():
    family = fam2(L10, L11)
    assert family_meet(family, ()) == V2
    assert family_meet(family, (1,)) == L10
    assert family_meet(family, (1, 2)) == bottom(GF2_2)


# (q, n, largest family size) for the exhaustive X(J) check.
MEET_SPACES = ((2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 2, 2), (4, 2, 2))


@pytest.mark.parametrize(
    "q,n,size", MEET_SPACES, ids=[f"{q}-{n}-{k}" for q, n, k in MEET_SPACES]
)
def test_family_meets_match_zassenhaus_fold(q, n, size):
    # X(J) as a fold of the Zassenhaus meet, which uses no lattice table;
    # the memo only saves repeating a meet of the same two subspaces.  The
    # closure holds each distinct X(J) once, with J_W = {i : W <= X_i}.
    p, e = prime_power(q)
    spec = VectorSpaceSpec(field_make(p, e), n)
    lattice = get_lattice(spec)
    memo = {}

    def zassenhaus(a, b):
        if (a, b) not in memo:
            memo[a, b] = meet(a, b)
        return memo[a, b]

    for family in families(spec, range(size + 1)):
        assert family.member_indices == tuple(map(lattice.idx, family.members))
        union_of_js = {}
        for mask in range(1 << len(family)):
            js = [i + 1 for i in range(len(family)) if mask >> i & 1]
            expected = top(spec)
            for i in js:
                expected = zassenhaus(expected, family.members[i - 1])
            assert family_meet(family, js) == expected
            union_of_js[expected] = union_of_js.get(expected, 0) | mask
        closure = {lattice.subspaces[w]: j for w, j in family.meet_closure}
        assert len(closure) == len(family.meet_closure)
        assert closure == union_of_js
        for w, j in closure.items():
            assert j == sum(
                1 << i for i, x in enumerate(family.members) if zassenhaus(w, x) == w
            )


def test_family_meet_rejects_indices_outside_the_family():
    for bad in ((0,), (3,), (1, 3)):
        with pytest.raises(OutOfRange):
            family_meet(fam2(L10, L11), bad)


def test_meet_table_refuses_past_the_walk_cap(monkeypatch):
    from qtransversal import InfeasibleScale, subspaces

    # Distinct lines of GF(2)^3 meet pairwise in 0: the k-th distinct line
    # is charged the closure so far, 1, 2, 4, 5 and 6 entries for the first
    # five, and a repeated line is charged nothing.  Four distinct lines
    # fit a cap of 12 exactly, whatever their copies; a fifth is refused.
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 12)
    lines = [line(GF2_3, *v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))]
    lattice = get_lattice(GF2_3)
    order = [0, 1, 0, 2, 1, 3, 2, 3]
    fits = SubspaceFamily(GF2_3, tuple(lines[i] for i in order))
    positions = [sum(1 << p for p, i in enumerate(order) if i == x) for x in range(4)]
    assert fits.meet_closure == (
        (lattice.top_index, 0),
        (lattice.idx(lines[0]), positions[0]),
        (lattice.idx(lines[1]), positions[1]),
        (lattice.idx(bottom(GF2_3)), 2**8 - 1),
        (lattice.idx(lines[2]), positions[2]),
        (lattice.idx(lines[3]), positions[3]),
    )
    # Only the meet 0 fails, with the largest J.
    assert q_hall(fits).witness_J == tuple(range(1, 9))
    big = SubspaceFamily(GF2_3, fits.members + (lines[4],))
    with pytest.raises(InfeasibleScale, match="meet-closure of 9 members passes the cap 12 at member 9"):
        big.meet_closure
    for route in (q_hall, lambda fam: is_partial_q_transversal(lines[0], fam)):
        with pytest.raises(InfeasibleScale):
            route(big)


def test_presentation_matroid_refuses_past_its_walk_charge(monkeypatch):
    from qtransversal import InfeasibleScale, subspaces

    # presentation_matroid reads no meet-closure: each member charges the
    # 5 subspaces of GF(2)^2, so at a cap of 40 eight copies of L10 fit
    # exactly and nine are refused.
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 40)
    assert presentation_matroid(SubspaceFamily(GF2_2, (L10,) * 8)) == rank_one(L10)
    with pytest.raises(
        InfeasibleScale, match="presentation of 9 members over 5 subspaces charges 45 units, past the cap 40"
    ):
        presentation_matroid(SubspaceFamily(GF2_2, (L10,) * 9))


def test_walk_charges_grow_with_the_mask_width(monkeypatch):
    from qtransversal import InfeasibleScale, subspaces

    # A mask AND costs 1 unit up to 2^14 vectors and one more per further
    # 2^14.  GF(421)^2 has 177,241 vectors, so 11 units an AND: a member
    # of the presentation tests its 424 subspaces for 4,664 units, and
    # three distinct lines meet closures of 1, 2 and 4 entries, 77 units.
    unit = subspaces.set_walk_unit
    sizes = ((2, 6), (2, 13), (2, 14), (127, 2), (131, 2))
    assert [unit(VectorSpaceSpec(field_make(p, 1), n)) for p, n in sizes] == [1, 1, 2, 1, 2]
    spec = VectorSpaceSpec(field_make(421, 1), 2)
    assert unit(spec) == 11
    lattice = get_lattice(spec)
    a, b, c = (lattice.subspaces[i] for i in lattice.by_dim[1][:3])
    top = lattice.subspaces[lattice.top_index]
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 2 * 4_664)
    assert presentation_matroid(SubspaceFamily(spec, (a, b))).rank(top) == 2
    with pytest.raises(
        InfeasibleScale,
        match="presentation of 3 members over 424 subspaces charges 13992 units, past the cap 9328",
    ):
        presentation_matroid(SubspaceFamily(spec, (a, b, c)))
    # Copies add no pass, so five members with three distinct fit 77.
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 77)
    assert len(SubspaceFamily(spec, (a, b, a, c, b)).meet_closure) == 5
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 76)
    with pytest.raises(InfeasibleScale, match="meet-closure of 3 members passes the cap 76 at member 3"):
        SubspaceFamily(spec, (a, b, c)).meet_closure
