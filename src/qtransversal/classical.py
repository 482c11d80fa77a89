"""Set-based transversal theory: Hall, Rado and their avoidance forms.

Families are ordered tuples of subsets of a labeled ground set.  The
decision procedures all return witnesses (a transversal, or a violating
index set J, 1-based) so their verdicts can be re-checked without
trusting the implementation.  Internally subsets travel as bitmasks over
the ground tuple; the public surface speaks labels and frozensets.
One augmenting search decides Hall and Rado and finds every SDR,
partial transversal and injection; avoidance Rado is Rado on the
complemented family, and no check walks the index sets J.

This module is both a standalone implementation of the classical
theorems and the inner engine for the q-analog: the q-side basis walk,
behind the definitional oracle and a certificate's injections, matches
each vector basis through maximum_matching here.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

from .errors import (
    GroundMismatch,
    InvalidRankTable,
    InvariantViolation,
    OutOfRange,
)
from .fields import FieldSpec
from .subspaces import matrix_rank

HallVerdict = namedtuple("HallVerdict", "ok witness_J")


@dataclass(frozen=True)
class SetFamily:
    """An indexed family (A_1, ..., A_n) of subsets of a ground set."""

    ground: tuple[str, ...]
    members: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "ground", _labels(self.ground))
        gset = set(self.ground)
        # A string would be read as the set of its characters.
        if any(isinstance(m, str) for m in self.members):
            raise GroundMismatch("the members must be label collections, not strings")
        object.__setattr__(
            self, "members", tuple(frozenset(m) for m in self.members)
        )
        for m in self.members:
            if not m <= gset:
                raise GroundMismatch(f"member {sorted(m)} is not a subset of the ground")

    def __len__(self):
        return len(self.members)

    def masks(self) -> list[int]:
        pos = {x: i for i, x in enumerate(self.ground)}
        return [sum(1 << pos[x] for x in m) for m in self.members]

    def to_jsonable(self) -> dict:
        return {
            "ground": list(self.ground),
            "members": [sorted(m) for m in self.members],
        }


def _labels(ground) -> tuple:
    """ground as a tuple of distinct labels, else GroundMismatch."""
    # A string would be read as its characters.
    if isinstance(ground, str):
        raise GroundMismatch("the ground must be a label collection, not a string")
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise GroundMismatch("ground labels must be distinct")
    return ground


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    # A shift loop, not subspaces._bits: on the few-bit J masks read here, 0.3 us against 0.9 us.
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _first_failing(members: list[int], width: int, independent) -> tuple[HallVerdict, list[int]]:
    """(verdict, owner) of Rado by matroid intersection: the verdict names
    the first J, in ascending mask order, with rho(A(J)) < |J|, where
    members[u] is the label mask of A_(u+1) and `independent` accepts the
    independent label masks of rho; owner[a] is the member holding label
    a, or -1, when the search stops.

    Members join in order, and the labels they own, `held`, stay
    independent.  Member k's search is breadth-first: a depth-first path
    can leave held dependent.  From a member it visits each unseen label
    a.  An owned a brings in its owner; an unowned a with held | a
    independent ends the search; any other a brings in the owners of its
    circuit, the b with held - b + a independent.  If k's lowest unowned
    label a0 keeps held independent, k takes it with no queue; else a
    search runs and does not test a0 again.

    If the search fails, J is k with the members it reached, whose labels
    span A(J), so g(J) = rho(A(J)) - |J| = -1.  g is submodular and >= 0
    within 1..k-1, so the violators within 1..k minimize g over the sets
    holding k, and meet in the first failing mask.  That is J, as the
    matched labels of a violator J' span A(J'): the search never leaves J'."""
    owner = [-1] * width
    held = 0
    for k in range(len(members)):
        free = members[k] & ~held
        a0 = (free & -free).bit_length() - 1  # -1 if k has no unowned label
        if a0 >= 0 and independent(held | 1 << a0):
            owner[a0] = k
            held |= 1 << a0
        else:
            via = {k: None}  # member -> its step (u, a, b): u takes a, b is freed
            queue, seen, step = [k], 0, None
            for u in queue:
                rest = members[u] & ~seen
                seen |= rest
                while rest:
                    a = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if owner[a] < 0 and a != a0 and independent(held | 1 << a):
                        step = (u, a, a)
                        break
                    circuit = [a] if owner[a] >= 0 else [
                        b for b in range(width)
                        if held >> b & 1 and owner[b] not in via and independent(held ^ 1 << b | 1 << a)
                    ]
                    for b in circuit:
                        if owner[b] not in via:
                            via[owner[b]] = (u, a, b)
                            queue.append(owner[b])
                if step is not None:
                    break
            else:
                return HallVerdict(False, _mask_to_indices(sum(1 << w for w in via))), owner
            while step is not None:
                u, a, b = step
                owner[b] = -1
                owner[a] = u
                held = held & ~(1 << b) | 1 << a
                step = via[u]
        if held.bit_count() != k + 1 or not independent(held):
            raise InvariantViolation(f"member {k + 1}'s search left held = {held:#b} dependent")
    return HallVerdict(True, None), owner


def hall_check(fam: SetFamily) -> HallVerdict:
    """Hall: |A[J]| >= |J| for every J, Rado over the free matroid; witness on failure."""
    return _first_failing(fam.masks(), len(fam.ground), lambda mask: True)[0]


def maximum_matching(adj: list[int], n_right: int) -> list[int]:
    """Left vertices join in order by hall_check's augmenting search.

    adj[u] is a bitmask of right vertices reachable from left vertex u.
    Returns match[u] = right index or -1, deterministically; from the
    first left vertex the search cannot match on, every match is -1.
    """
    match = [-1] * len(adj)
    for v, u in enumerate(_first_failing(adj, n_right, lambda mask: True)[1]):
        if u >= 0:
            match[u] = v
    return match


def find_transversal(fam: SetFamily) -> dict[int, str] | None:
    """A system of distinct representatives, or None.

    Keys are 1-based member indices; presence coincides with hall_check.
    """
    members = fam.masks()
    match = maximum_matching(members, len(fam.ground))
    if any(v < 0 for v in match):
        return None
    return {i + 1: fam.ground[v] for i, v in enumerate(match)}


class ClassicalMatroid:
    """A matroid on a labeled ground set, given by a rank oracle; the rank
    axioms are checked on every ground of at most 6 labels."""

    def __init__(self, ground: tuple[str, ...], rank_fn, provenance: str):
        self.ground = _labels(ground)
        self._ground_set = frozenset(self.ground)
        self._rank_fn = rank_fn
        self.provenance = provenance
        if len(self.ground) <= 6:
            self._verify_axioms()

    @classmethod
    def free(cls, ground) -> "ClassicalMatroid":
        return cls(ground, len, "free")

    @classmethod
    def linear(cls, ground, field: FieldSpec, columns) -> "ClassicalMatroid":
        """Column matroid: rank of a subset is the field rank of its columns."""
        ground = _labels(ground)
        columns = tuple(map(tuple, columns))
        if len({len(col) for col in columns}) > 1:
            raise OutOfRange("all columns must have the same length")
        if len(columns) != len(ground):
            raise GroundMismatch("one column per ground element is required")
        cols = dict(zip(ground, columns))
        width = len(columns[0]) if columns else 0

        def rank_fn(subset):
            rows = [cols[x] for x in sorted(subset)]
            return matrix_rank(field, rows, width) if rows else 0

        return cls(ground, rank_fn, f"linear over GF({field.order})")

    def rank(self, subset) -> int:
        subset = frozenset(subset)
        if not subset <= self._ground_set:
            raise GroundMismatch("subset contains labels outside the ground")
        return self._rank_fn(subset)

    def _verify_axioms(self):
        subsets = [
            frozenset(c)
            for k in range(len(self.ground) + 1)
            for c in itertools.combinations(self.ground, k)
        ]
        r = {s: self._rank_fn(s) for s in subsets}
        for s in subsets:
            if not 0 <= r[s] <= len(s):
                raise InvalidRankTable(f"rank not bounded by cardinality at {sorted(s)}")
        for a in subsets:
            for b in subsets:
                if a <= b and r[a] > r[b]:
                    raise InvalidRankTable("rank is not monotone")
                if r[a | b] + r[a & b] > r[a] + r[b]:
                    raise InvalidRankTable("rank is not submodular")


def rado_check(matroid: ClassicalMatroid, fam: SetFamily) -> HallVerdict:
    """Rado condition: rho(A[J]) >= |J| for every J; witness on failure."""
    if fam.ground != matroid.ground:
        raise GroundMismatch("family and matroid must share one ground tuple")

    def independent(mask):
        subset = frozenset(x for i, x in enumerate(fam.ground) if mask >> i & 1)
        return matroid.rank(subset) == mask.bit_count()
    return _first_failing(fam.masks(), len(fam.ground), independent)[0]


def _complement(fam: SetFamily) -> SetFamily:
    """(S - X_1, ..., S - X_n) over the same ground S."""
    ground = frozenset(fam.ground)
    return SetFamily(fam.ground, tuple(ground - m for m in fam.members))


def avoiding_transversal_check(t, fam: SetFamily) -> bool:
    """Fast test for T being a partial avoiding transversal of (X_1..X_n),
    equivalently |T meet X(J)| + |J| <= n for every J, with X(empty) = S.

    An injection with x_i not in X_i is one with x_i in S - X_i, so this
    is is_partial_transversal on the complemented family."""
    return is_partial_transversal(t, _complement(fam))


def avoiding_transversal_by_injections(t, fam: SetFamily) -> bool:
    """Brute-force oracle: is there an injection i -> x_i with x_i not in X_i
    covering exactly the elements of T?  Exponential, desk scale only."""
    t = sorted(frozenset(t))
    n = len(fam.members)
    if len(t) > n:
        return False
    for assignment in itertools.permutations(range(n), len(t)):
        if all(x not in fam.members[i] for x, i in zip(t, assignment)):
            return True
    return False


def is_partial_transversal(t, fam: SetFamily) -> bool:
    """Is T a partial transversal of (A_1..A_n)?  Matching saturating T."""
    t = sorted(frozenset(t))
    if not set(t) <= set(fam.ground):
        raise GroundMismatch("T contains labels outside the ground")
    adj = [
        sum(1 << i for i, m in enumerate(fam.members) if x in m) for x in t
    ]
    match = maximum_matching(adj, len(fam.members))
    return all(v >= 0 for v in match)


def avoid_rado_check(matroid: ClassicalMatroid, fam: SetFamily) -> HallVerdict:
    """Avoidance Rado: nu*(X(J)) + |J| <= nu*(S) for every J.

    Since rho(S - X) = nu*(S) - nu*(X), this is rado_check on the
    complemented family, condition for condition at every J: the same
    verdict and the same witness."""
    return rado_check(matroid, _complement(fam))
