"""q-transversal tests, presentations, reduction, and minimality."""

import dataclasses
import gc
import itertools

import pytest

from qtransversal import (
    InvariantViolation,
    QTransversalCertificate,
    SubspaceFamily,
    VectorSpaceSpec,
    bottom,
    canonicalize,
    family_meet,
    field_make,
    free_matroid,
    get_lattice,
    is_minimal_presentation,
    is_partial_q_transversal,
    is_q_transversal,
    partial_equiv_check,
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
    verdict = q_hall(fam2(V2, V2))
    assert verdict.witness_J == (1,)
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


def test_infeasible_subsystem_guard():
    from qtransversal import InfeasibleScale

    big = SubspaceFamily(GF2_2, (L10,) * 21)
    with pytest.raises(InfeasibleScale):
        partial_equiv_check(L01, big)
