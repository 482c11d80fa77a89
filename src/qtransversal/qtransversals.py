"""q-transversals: tests, the presentation q-matroid, reduction, minimality.

A family (X_1, ..., X_n) of subspaces presents the q-matroid obtained as
the union of the rank-1 q-matroids with loop spaces X_i; its independent
subspaces are exactly the partial q-transversals of the family.  By the
q-matroid union theorem its rank function is

    r(A) = min over B <= A of  f(B) + dim A - dim B,

with f(B) = #{i : B not <= X_i} the sum of the rank-1 rank functions.
presentation_matroid builds f from the point masks and takes the minimum
in one walk over the covers, the walk qmatroids.induce runs.  Unfolding
the union over the members' meets gives a closed formula instead:

    r(A) = min over J of  n - |J| + dim A - dim(A meet X(J)),

with X(J) the meet of the members in J and X(empty) = V.  Only the
distinct meets matter: for a meet W, J_W = {i : W <= X_i} is the largest
J with X(J) = W, so the minimum is taken over W alone at cost n - |J_W|.
SubspaceFamily.meet_closure holds every W with J_W, built once on first
use; q_hall, the fast test and reduce_presentation read it there, and no
route walks the 2^n sets J.

The module offers three routes to the same verdict and treats any
disagreement between them as an InvariantViolation, because the routes
are tied together by proved theorems and a divergence is either a bug
or a counterexample worth reporting:

  * independence in the presentation matroid, by the union theorem over
    the covers,
  * the fast test  dim(T meet W) + |J_W| <= n  over the meet-closure,
  * the definitional oracle walking every vector basis of T and matching
    its vectors to the members that do not contain them.

The three are independent: the presentation matroid reads no meet of the
members and the fast test no cover.  The oracle shares one basis walk
with the certificate's injections, and that walk reads the point masks
alone, no meet and no cover.  The closed formula gives r(T) = dim T
exactly when the fast test's inequality holds at every W; a violation
at some J is one at W = X(J) too, since |J| <= |J_W|, so the closure
misses none.  The tests also hold the presentation matroid to the union
of rank-1 matroids (qmatroids.union of qmatroids.rank_one), which checks
the summed table's submodularity first.

Partial q-transversals are accepted at every dimension m <= n; a T with
dim T > n fails the fast test at W = V and the certificate records that
honestly rather than hiding it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from . import subspaces
from .classical import HallVerdict, _mask_to_indices, maximum_matching
from .errors import InfeasibleScale, InvariantViolation, OutOfRange
from .qmatroids import QMatroid, _lower_envelope
from .subspaces import (
    Subspace,
    SubspaceFamily,
    count_bases,
    enumerate_bases,
    vector_to_string,
)

MinimalityReport = namedtuple(
    "MinimalityReport", "minimal witness_index shrunken_member replacement"
)


def family_meet(fam: SubspaceFamily, indices) -> Subspace:
    """X(J): the meet of the selected members; X(empty) = V (1-based J)."""
    lattice = fam.lattice
    members = fam.member_indices
    xj = lattice.top_index
    for i in indices:
        if not 1 <= i <= len(fam):
            raise OutOfRange(f"index {i} outside 1..{len(fam)}")
        xj = lattice.meet_idx(xj, members[i - 1])
    return lattice.subspaces[xj]


def presentation_matroid(fam: SubspaceFamily) -> QMatroid:
    """The q-matroid whose independent subspaces are the partial
    q-transversals of the family: the union of rank-1 matroids with loop
    spaces X_i, by the union theorem of the module docstring.  f(B) =
    #{i : B not <= X_i} is summed from one pass over the point masks per
    member, and f needs no submodularity check, being a sum of rank
    functions.  Each member charges S mask ANDs (S subspaces), each
    subspaces.set_walk_unit units, against subspaces.SET_WALK_CAP and the
    family is refused past it.  The empty family presents the rank-0
    matroid."""
    lattice = fam.lattice
    masks = lattice.masks
    everything = masks[lattice.top_index]
    units = len(fam) * len(lattice) * subspaces.set_walk_unit(fam.spec)
    if units > subspaces.SET_WALK_CAP:
        raise InfeasibleScale(
            f"the presentation of {len(fam)} members over {len(lattice)} subspaces "
            f"charges {units} units, past the cap {subspaces.SET_WALK_CAP}"
        )
    f = [0] * len(lattice)
    for x in fam.member_indices:
        outside = everything & ~masks[x]
        f = [c + (m & outside != 0) for c, m in zip(f, masks)]
    return QMatroid(lattice, _lower_envelope(lattice, f), "presentation")


def q_hall(fam: SubspaceFamily) -> HallVerdict:
    """Existence of a (full) q-transversal.

    Condition: dim X(J) + |J| <= dim V for every nonempty J.  Each meet W
    is tested once at J_W, its largest J; the witness is J_W of the first
    violating W in the closure's insertion order.  Only V can have an
    empty J_W, and dim V + 0 never violates.
    """
    dims = fam.lattice.dims
    dim_v = fam.spec.dim
    for w, j in fam.meet_closure:
        if dims[w] + j.bit_count() > dim_v:
            return HallVerdict(False, _mask_to_indices(j))
    return HallVerdict(True, None)


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


def _instance(t: Subspace, fam: SubspaceFamily) -> dict:
    """The check-q-transversal instance of T and the family, as a failure
    payload that one CLI call replays."""
    return {**fam.spec.to_jsonable(), "family": fam.to_rows(), "subspace": t.to_rows()}


def _avoiding_injections(t: Subspace, fam: SubspaceFamily) -> list:
    """(basis, assignment) per vector basis of T in enumeration order:
    one distinct member per vector, 1-based, that avoids it.  The walk
    stops after the first basis with no such injection, giving it None.

    Bases share their vectors and, often, their adjacency patterns; the
    matching is a deterministic function of the pattern, so each vector's
    avoid mask and each pattern's match are computed once."""
    lattice = fam.lattice
    n = len(fam)
    member_masks = [lattice.masks[mi] for mi in fam.member_indices]
    avoid_of = {}
    match_of = {}
    walk = []
    for basis in enumerate_bases(t):
        adj = []
        for v in basis:
            avoid = avoid_of.get(v)
            if avoid is None:
                bit = 1 << lattice.code(v)
                avoid = sum(1 << i for i in range(n) if not member_masks[i] & bit)
                avoid_of[v] = avoid
            adj.append(avoid)
        adj = tuple(adj)
        assignment = match_of.get(adj)
        if assignment is None:
            match = maximum_matching(adj, n)
            if any(m < 0 for m in match):
                walk.append((basis, None))
                break
            assignment = match_of[adj] = tuple(m + 1 for m in match)
        walk.append((basis, assignment))
    return walk


def is_partial_q_transversal(
    t: Subspace,
    fam: SubspaceFamily,
    *,
    with_witness: bool = True,
) -> QTransversalCertificate:
    """Fast test: dim(T meet X(J)) + |J| <= n for every J (X(empty) = V),
    tested once per meet W of the closure at J_W, its largest J.  A false
    certificate names J_W of the first violating W.

    On success and with_witness=True, the certificate carries one
    avoiding injection per vector basis of T, found by matching; the
    theorem guarantees they exist, and a missing one raises.
    """
    lattice = fam.lattice
    masks, by_mask, dims = lattice.masks, lattice.by_mask, lattice.dims
    t_mask = masks[lattice.idx(t)]
    n = len(fam)
    for w, j in fam.meet_closure:
        md = dims[by_mask[t_mask & masks[w]]]
        if md + j.bit_count() > n:
            return QTransversalCertificate(
                False,
                violating_J=_mask_to_indices(j),
                violation_meet_dim=md,
            )
    if not with_witness:
        return QTransversalCertificate(True)
    walk = _avoiding_injections(t, fam)
    if walk[-1][1] is None:
        raise InvariantViolation(
            "fast q-transversal test passed but a basis has no avoiding injection",
            payload=_instance(t, fam),
        )
    return QTransversalCertificate(True, basis_witnesses=tuple(walk))


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
        lattice = fam.lattice
        xj = family_meet(fam, j)
        md = lattice.dims[lattice.meet_idx(lattice.idx(t), lattice.idx(xj))]
        return md == cert.violation_meet_dim and md + len(j) > n
    if cert.basis_witnesses is None:
        return is_partial_q_transversal(t, fam, with_witness=False).verdict
    lattice = fam.lattice
    member_masks = [lattice.masks[mi] for mi in fam.member_indices]
    bases = list(enumerate_bases(t))
    expected = count_bases(t)
    if len(bases) != expected:
        raise InvariantViolation(
            "basis enumeration disagrees with the closed-form basis count",
            payload={**_instance(t, fam), "enumerated": len(bases), "expected": expected},
        )
    # Certificates list the bases in enumeration order; any other order,
    # repeats included, is accepted when it covers the same set.
    certified = [basis for basis, _ in cert.basis_witnesses]
    if certified != bases and set(certified) != set(bases):
        return False
    code_of = {}  # each distinct vector's code, computed once
    for basis, assignment in cert.basis_witnesses:
        if (
            len(assignment) != t.dim
            or len(set(assignment)) != t.dim
            or not all(1 <= i <= n for i in assignment)
        ):
            return False
        for v, i in zip(basis, assignment):
            code = code_of.get(v)
            if code is None:
                code = code_of[v] = lattice.code(v)
            if member_masks[i - 1] >> code & 1:
                return False
    return True


def q_transversal_by_definition(t: Subspace, fam: SubspaceFamily) -> bool:
    """Definitional oracle: every vector basis of T must be a partial
    avoiding transversal of the family, its vectors matched to distinct
    members that do not contain them.  It walks the bases as the
    certificate does and stops at the first without an injection.
    Exponential in dim T; desk scale only.
    """
    return _avoiding_injections(t, fam)[-1][1] is not None


def is_q_transversal(t: Subspace, fam: SubspaceFamily) -> bool:
    """Full q-transversal: dimension equals the family size and T passes
    the partial test (the injections are then bijections)."""
    if t.dim != len(fam):
        return False
    return is_partial_q_transversal(t, fam, with_witness=False).verdict


def reduce_presentation(fam: SubspaceFamily) -> SubspaceFamily:
    """Greedy left-to-right reduction to a presentation with exactly
    rank-many members.

    A member that does not raise r(V) of the members kept so far is
    discarded.  The kept members have r(V) = len(kept), and one more
    rank-1 matroid raises r(V) by at most 1, so a member raises it
    exactly when the kept members and the member pass q_hall.  The
    union-same-rank proposition guarantees the matroid is unchanged, and
    the reduced family's presentation matroid is re-verified against the
    full family's.
    """
    kept: list[Subspace] = []
    for x in fam.members:
        if q_hall(SubspaceFamily(fam.spec, (*kept, x))).ok:
            kept.append(x)
    reduced = SubspaceFamily(fam.spec, tuple(kept))
    full = presentation_matroid(fam)
    if presentation_matroid(reduced).ranks != full.ranks or len(kept) != full.space_rank:
        raise InvariantViolation(
            "greedy presentation reduction changed the matroid",
            payload={"family": fam.to_rows(), "reduced": reduced.to_rows()},
        )
    return reduced


def is_minimal_presentation(
    fam: SubspaceFamily, *, matroid: QMatroid | None = None
) -> MinimalityReport:
    """Minimality via cyclicity: the presentation is minimal iff every
    member equals the join of the circuits below it.

    For a non-minimal family the witness shrinks the first non-cyclic
    member to that join; the replacement family is verified to present
    the same matroid before it is emitted.  A caller that already holds
    presentation_matroid(fam) passes it as matroid, and it is not built
    again.
    """
    if matroid is None:
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
