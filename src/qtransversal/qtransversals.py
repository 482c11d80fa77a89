"""q-transversals: tests, the presentation q-matroid, reduction, minimality.

A family (X_1, ..., X_n) of subspaces presents the q-matroid obtained as
the union of the rank-1 q-matroids with loop spaces X_i; its independent
subspaces are exactly the partial q-transversals of the family.
Unfolding the union gives the closed formula this module builds the
presentation matroid by:

    r(A) = min over J of  n - |J| + dim A - dim(A meet X(J)),

with X(J) the meet of the members in J and X(empty) = V.  The module
offers three routes to the same verdict and treats any disagreement
between them as an InvariantViolation, because the routes are tied
together by proved theorems and a divergence is either a bug or a
counterexample worth reporting:

  * independence in the presentation matroid,
  * the fast 2^n test  dim(T meet X(J)) + |J| <= n  over index sets J,
  * the definitional oracle walking every vector basis of T and running
    the classical avoiding-transversal check on its membership pattern.

The first two read the same meets X(J): r(T) = dim T holds exactly when
the fast test's inequality holds at every J.  So only the oracle is
independent of the fast test here; the union of rank-1 matroids
(qmatroids.union of qmatroids.rank_one), which induces its ranks from a
submodular sum without any X(J), is the reference the tests hold the
formula to.

Partial q-transversals are accepted at every dimension m <= n; a T with
dim T > n fails the fast test at J = empty and the certificate records
that honestly rather than hiding it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

from .classical import (
    SetFamily,
    _mask_to_indices,
    avoiding_transversal_check,
    maximum_matching,
)
from .errors import InfeasibleScale, InvariantViolation
from .qmatroids import QMatroid
from .subspaces import (
    BASIS_CAP,
    Subspace,
    SubspaceFamily,
    count_bases,
    enumerate_bases,
    get_lattice,
    vector_to_string,
)

QHallVerdict = namedtuple("QHallVerdict", "ok witness_J")
MinimalityReport = namedtuple(
    "MinimalityReport", "minimal witness_index shrunken_member replacement"
)


def _member_indices(fam: SubspaceFamily):
    lattice = get_lattice(fam.spec)
    return lattice, [lattice.idx(m) for m in fam.members]


def _meets_by_mask(lattice, member_idx: list[int]) -> list[int]:
    # X(J) for every J as lattice indices; X(empty) = V.
    n = len(member_idx)
    meets = [lattice.top_index] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        meets[mask] = lattice.meet_idx(meets[mask & (mask - 1)], member_idx[low])
    return meets


def family_meet(fam: SubspaceFamily, indices) -> Subspace:
    """X(J): the meet of the selected members; X(empty) = V (1-based J)."""
    lattice, member_idx = _member_indices(fam)
    cur = lattice.top_index
    for i in indices:
        cur = lattice.meet_idx(cur, member_idx[i - 1])
    return lattice.subspaces[cur]


def presentation_matroid(fam: SubspaceFamily) -> QMatroid:
    """The q-matroid whose independent subspaces are the partial
    q-transversals of the family: the union of rank-1 matroids with loop
    spaces X_i, built by the closed formula of the module docstring.
    The empty family presents the rank-0 matroid."""
    lattice, member_idx = _member_indices(fam)
    # n - |J| per distinct X(J): for a given meet only the largest J can
    # reach the minimum.  With no members the one entry is V at cost 0.
    cost = {}
    for mask, xj in enumerate(_meets_by_mask(lattice, member_idx)):
        cost[xj] = min(cost.get(xj, len(fam)), len(fam) - mask.bit_count())
    dims = lattice.dims
    ranks = [
        dims[a] + min(c - dims[row[xj]] for xj, c in cost.items())
        for a, row in enumerate(lattice.meet_table)
    ]
    return QMatroid(lattice, ranks, "presentation")


def q_hall(fam: SubspaceFamily) -> QHallVerdict:
    """Existence of a (full) q-transversal.

    Condition: dim X(J) + |J| <= dim V for every nonempty J; the first
    violating J (masks ascending) is the witness.
    """
    lattice, member_idx = _member_indices(fam)
    meets = _meets_by_mask(lattice, member_idx)
    n = len(member_idx)
    dim_v = fam.spec.dim
    for mask in range(1, 1 << n):
        if lattice.dims[meets[mask]] + mask.bit_count() > dim_v:
            return QHallVerdict(False, _mask_to_indices(mask))
    return QHallVerdict(True, None)


@dataclass(frozen=True)
class QTransversalCertificate:
    """Re-checkable witness for a partial q-transversal verdict.

    False verdicts carry the violating J and the recorded value of
    dim(T meet X(J)); true verdicts carry, for every vector basis of T,
    an injection into family indices avoiding the matched members.
    """

    verdict: bool
    violating_J: tuple[int, ...] | None = None
    violation_meet_dim: int | None = None
    basis_witnesses: tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...] | None = None

    def to_jsonable(self, spec) -> dict:
        out = {"verdict": self.verdict}
        if not self.verdict:
            out["witness_J"] = list(self.violating_J)
            out["meet_dim"] = self.violation_meet_dim
        elif self.basis_witnesses is not None:
            out["basis_witnesses"] = [
                {
                    "basis": [vector_to_string(spec, v) for v in basis],
                    "avoids_via": list(assignment),
                }
                for basis, assignment in self.basis_witnesses
            ]
        return out


def is_partial_q_transversal(
    t: Subspace,
    fam: SubspaceFamily,
    *,
    with_witness: bool = True,
    basis_cap: int = BASIS_CAP,
) -> QTransversalCertificate:
    """Fast test: dim(T meet X(J)) + |J| <= n for every J (X(empty) = V).

    On success and with_witness=True, the certificate carries one
    avoiding injection per vector basis of T, found by matching; the
    theorem guarantees they exist, and a missing one raises.
    """
    lattice, member_idx = _member_indices(fam)
    meets = _meets_by_mask(lattice, member_idx)
    ti = lattice.idx(t)
    n = len(member_idx)
    for mask in range(1 << n):
        md = lattice.dims[lattice.meet_idx(ti, meets[mask])]
        if md + mask.bit_count() > n:
            return QTransversalCertificate(
                False,
                violating_J=_mask_to_indices(mask),
                violation_meet_dim=md,
            )
    if not with_witness:
        return QTransversalCertificate(True)
    member_masks = [lattice.masks[mi] for mi in member_idx]
    # Bases share their vectors and, often, their adjacency patterns; the
    # matching is a deterministic function of the pattern, so each
    # vector's avoid mask and each pattern's match are computed once.
    avoid_of = {}
    match_of = {}
    witnesses = []
    for basis in enumerate_bases(t, basis_cap=basis_cap):
        adj = []
        for v in basis:
            avoid = avoid_of.get(v)
            if avoid is None:
                bit = 1 << lattice.codes[v]
                avoid = sum(1 << i for i in range(n) if not member_masks[i] & bit)
                avoid_of[v] = avoid
            adj.append(avoid)
        adj = tuple(adj)
        assignment = match_of.get(adj)
        if assignment is None:
            match = maximum_matching(adj, n)
            if any(m < 0 for m in match):
                raise InvariantViolation(
                    "fast q-transversal test passed but a basis has no avoiding injection",
                    payload={"T": t.to_rows(), "family": fam.to_rows()},
                )
            assignment = match_of[adj] = tuple(m + 1 for m in match)
        witnesses.append((basis, assignment))
    return QTransversalCertificate(True, basis_witnesses=tuple(witnesses))


def recheck_certificate(
    cert: QTransversalCertificate, t: Subspace, fam: SubspaceFamily
) -> bool:
    """Re-verify a certificate from its data alone.

    A violating J must be strictly increasing within 1..n; every
    assignment must send the dim T vectors of a basis of T injectively
    to indices within 1..n, each avoiding its member.  The bases of T
    are enumerated afresh and their number is checked against the
    closed form count_bases(T); a mismatch raises InvariantViolation.
    """
    n = len(fam)
    if not cert.verdict:
        j = cert.violating_J
        if j is None or list(j) != sorted(set(j)) or not all(1 <= i <= n for i in j):
            return False
        lattice = get_lattice(fam.spec)
        xj = family_meet(fam, j)
        md = lattice.dims[lattice.meet_idx(lattice.idx(t), lattice.idx(xj))]
        return md == cert.violation_meet_dim and md + len(j) > n
    if cert.basis_witnesses is None:
        return is_partial_q_transversal(t, fam, with_witness=False).verdict
    lattice, member_idx = _member_indices(fam)
    member_masks = [lattice.masks[mi] for mi in member_idx]
    bases = set(enumerate_bases(t))
    expected = count_bases(t)
    if len(bases) != expected:
        raise InvariantViolation(
            "basis enumeration disagrees with the closed-form basis count",
            payload={
                "T": t.to_rows(),
                "family": fam.to_rows(),
                "enumerated": len(bases),
                "expected": expected,
            },
        )
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
            if member_masks[i - 1] >> lattice.codes[v] & 1:
                return False
        seen.add(basis)
    return seen == bases


def q_transversal_by_definition(
    t: Subspace, fam: SubspaceFamily, *, basis_cap: int = BASIS_CAP
) -> bool:
    """Definitional oracle: every vector basis of T must be a partial
    avoiding transversal of the family.

    Each basis is turned into a membership pattern over its own vectors
    and handed to the classical avoiding-transversal check.  Exponential
    in dim T; desk scale only.
    """
    lattice, member_idx = _member_indices(fam)
    spec = fam.spec
    for basis in enumerate_bases(t, basis_cap=basis_cap):
        labels = tuple(vector_to_string(spec, v) for v in basis)
        pattern = SetFamily(
            labels,
            tuple(
                frozenset(
                    lbl
                    for lbl, v in zip(labels, basis)
                    if lattice.contains_idx(mi, v)
                )
                for mi in member_idx
            ),
        )
        if not avoiding_transversal_check(labels, pattern):
            return False
    return True


def is_q_transversal(t: Subspace, fam: SubspaceFamily) -> bool:
    """Full q-transversal: dimension equals the family size and T passes
    the partial test (the injections are then bijections)."""
    if t.dim != len(fam):
        return False
    return is_partial_q_transversal(t, fam, with_witness=False).verdict


def reduce_presentation(fam: SubspaceFamily) -> SubspaceFamily:
    """Greedy left-to-right reduction to a presentation with exactly
    rank-many members.

    A member that does not raise the rank of the members kept so far is
    discarded; the union-same-rank proposition guarantees the matroid is
    unchanged, and the result is re-verified against the full family.
    """
    kept: list[Subspace] = []
    current = presentation_matroid(SubspaceFamily(fam.spec, ()))
    for x in fam.members:
        candidate = presentation_matroid(SubspaceFamily(fam.spec, (*kept, x)))
        if candidate.space_rank > current.space_rank:
            kept.append(x)
            current = candidate
    reduced = SubspaceFamily(fam.spec, tuple(kept))
    full = presentation_matroid(fam)
    if current.ranks != full.ranks or len(kept) != full.space_rank:
        raise InvariantViolation(
            "greedy presentation reduction changed the matroid",
            payload={"family": fam.to_rows(), "reduced": reduced.to_rows()},
        )
    return reduced


def partial_equiv_check(t: Subspace, fam: SubspaceFamily) -> bool:
    """Subsystem route: T is a full q-transversal of some subfamily with
    exactly dim T members.  Must agree with the fast test."""
    n = len(fam)
    if n > 20:
        raise InfeasibleScale(f"2^{n} subsystems is beyond desk scale")
    m = t.dim
    if m > n:
        return False
    for combo in itertools.combinations(range(n), m):
        sub = SubspaceFamily(fam.spec, tuple(fam.members[i] for i in combo))
        if is_q_transversal(t, sub):
            return True
    return False


def is_minimal_presentation(fam: SubspaceFamily) -> MinimalityReport:
    """Minimality via cyclicity: the presentation is minimal iff every
    member equals the join of the circuits below it.

    For a non-minimal family the witness shrinks the first non-cyclic
    member to that join; the replacement family is verified to present
    the same matroid before it is emitted.
    """
    matroid = presentation_matroid(fam)
    lattice = matroid.lattice
    for pos, x in enumerate(fam.members):
        shrunken = lattice.subspaces[matroid.circuit_join_idx(lattice.idx(x))]
        if shrunken != x:
            replacement = SubspaceFamily(
                fam.spec,
                fam.members[:pos] + (shrunken,) + fam.members[pos + 1 :],
            )
            if presentation_matroid(replacement) != matroid:
                raise InvariantViolation(
                    "shrinking a non-cyclic member changed the matroid",
                    payload={
                        "family": fam.to_rows(),
                        "index": pos + 1,
                        "shrunken": shrunken.to_rows(),
                    },
                )
            return MinimalityReport(False, pos + 1, shrunken, replacement)
    return MinimalityReport(True, None, None, None)
