"""Set-based transversal theory: Hall, Rado, avoidance forms, co-nullity.

Families are ordered tuples of subsets of a labeled ground set.  The
decision procedures all return witnesses (a transversal, or a violating
index set J, 1-based) so their verdicts can be re-checked without
trusting the implementation.  Internally subsets travel as bitmasks over
the ground tuple; the public surface speaks labels and frozensets.
Hall and the avoiding-transversal test are decided by a maximum
matching, and avoidance Rado is Rado on the complemented family, so
only rado_check walks the index sets J: in ascending mask order, stopping
at the first failing one, and raising InfeasibleScale past RANK_WALK_CAP
index sets without a verdict.

This module is both a standalone implementation of the classical
theorems and the inner engine for the q-analog: the definitional
q-transversal oracle reduces each vector basis to a partial-transversal
check here, and the representability construction leans on Rado.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from .errors import GroundMismatch, InfeasibleScale, InvalidRankTable, OutOfRange
from .fields import FieldSpec
from .subspaces import matrix_rank

HallVerdict = namedtuple("HallVerdict", "ok witness_J")

#: Most index sets J rado_check (and avoid_rado_check through it) walks
#: before refusing: about 3 s at the cap with a free matroid (3 us per J)
#: and about 20 s with a 14-column linear one (20 us per J).
RANK_WALK_CAP = 2**20


@dataclass(frozen=True)
class SetFamily:
    """An indexed family (A_1, ..., A_n) of subsets of a ground set."""

    ground: tuple[str, ...]
    members: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "members", tuple(frozenset(m) for m in self.members)
        )
        if len(set(self.ground)) != len(self.ground):
            raise GroundMismatch("ground labels must be distinct")
        gset = set(self.ground)
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


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _subset_table(members: list[int]):
    # A(J), the union of the members in J, for every J in ascending bitmask
    # order of J.  The first half of the members builds a table by doubling
    # (the entry at mask + 2^(i-1) is the entry at mask with member i); each
    # J over the second half, from this generator again, is then combined
    # with every table entry.  So the table holds about 2^(n/2) entries, and
    # a check stops at its first failing J.
    half = (len(members) + 1) // 2
    low = [0]
    yield 0
    for m in members[:half]:
        new = [u | m for u in low]
        yield from new
        low += new
    if half < len(members):
        high = _subset_table(members[half:])
        next(high)
        for h in high:
            yield from [h | u for u in low]


def _j_walk(members: list[int]):
    """(mask of J, A(J)) for every J in ascending mask order.  The walk
    raises InfeasibleScale at the first J past RANK_WALK_CAP, so a check
    that fails sooner still returns its witness."""
    cap = RANK_WALK_CAP
    yield from itertools.islice(enumerate(_subset_table(members)), cap)
    if 1 << len(members) > cap:
        raise InfeasibleScale(
            f"walked {cap} of the 2^{len(members)} index sets J without a verdict"
        )


def hall_check(fam: SetFamily) -> HallVerdict:
    """Hall condition: |A[J]| >= |J| for every J; witness on failure.

    Decided by maximum_matching.  The augmenting search from the first
    unmatched member k reaches labels `seen`, all matched; J = {k} with
    their owners has A[J] = seen, so |A[J]| = |J| - 1.  Every violator
    within members 1..k contains J, and none lies within 1..k-1, so J is
    the first failing J in ascending mask order.  Later augmenting paths
    never enter A[J], so the final match keeps the owners k met."""
    members = fam.masks()
    match = maximum_matching(members, len(fam.ground))
    if -1 not in match:
        return HallVerdict(True, None)
    owner = [-1] * len(fam.ground)
    for u, v in enumerate(match):
        if v >= 0:
            owner[v] = u
    k = match.index(-1)
    _, seen = _augment(members, owner, k, 0)
    j = [k] + [u for v, u in enumerate(owner) if seen >> v & 1]
    return HallVerdict(False, tuple(sorted(u + 1 for u in j)))


def _augment(adj: list[int], owner: list[int], u: int, seen: int) -> tuple[bool, int]:
    # Depth-first augmenting path over element bits, updating owner in
    # place; returns whether one was found and the updated seen.  The
    # search keeps its path on a list, not the call stack, so a long path
    # cannot overflow it.  Each vertex on the path tries its unseen labels
    # in ascending order, the lowest bit of adj & ~seen: labels it tried
    # before are seen by then, so this is the order of a recursive search.
    path = [u]  # left vertices from u to the current one
    via = []  # via[k]: the label by which path[k] reached path[k + 1]
    while path:
        rest = adj[path[-1]] & ~seen
        if not rest:
            path.pop()
            if via:
                via.pop()
            continue
        bit = rest & -rest
        seen |= bit
        v = bit.bit_length() - 1
        via.append(v)
        if owner[v] < 0:
            for w, x in zip(path, via):
                owner[x] = w
            return True, seen
        path.append(owner[v])
    return False, seen


def maximum_matching(adj: list[int], n_right: int) -> list[int]:
    """Left-to-right matching by augmenting paths.

    adj[u] is a bitmask of right vertices reachable from left vertex u.
    Returns match[u] = right index or -1, deterministically.
    """
    owner = [-1] * n_right
    for u in range(len(adj)):
        _augment(adj, owner, u, 0)
    match = [-1] * len(adj)
    for v, u in enumerate(owner):
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
        self.ground = tuple(ground)
        self._rank_fn = rank_fn
        self.provenance = provenance
        if len(self.ground) <= 6:
            self._verify_axioms()

    @classmethod
    def free(cls, ground) -> "ClassicalMatroid":
        ground = tuple(ground)
        return cls(ground, lambda s: len(s), "free")

    @classmethod
    def linear(cls, ground, field: FieldSpec, columns) -> "ClassicalMatroid":
        """Column matroid: rank of a subset is the field rank of its columns."""
        ground = tuple(ground)
        columns = tuple(columns)
        cols = {}
        width = None
        for label, col in zip(ground, columns):
            col = tuple(col)
            if width is None:
                width = len(col)
            elif len(col) != width:
                raise OutOfRange("all columns must have the same length")
            cols[label] = col
        if not len(cols) == len(columns) == len(ground):
            raise GroundMismatch("one column per ground element is required")

        def rank_fn(subset):
            rows = [cols[x] for x in sorted(subset)]
            return matrix_rank(field, rows, width) if rows else 0

        return cls(ground, rank_fn, f"linear over GF({field.order})")

    def rank(self, subset) -> int:
        subset = frozenset(subset)
        if not subset <= set(self.ground):
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

    @cached_property
    def bases(self) -> tuple[frozenset, ...]:
        """All bases, by brute force over subsets."""
        n = len(self.ground)
        if n > 20:
            raise InfeasibleScale(f"basis enumeration over 2^{n} subsets")
        full_rank = self.rank(self.ground)
        out = []
        for combo in itertools.combinations(self.ground, full_rank):
            s = frozenset(combo)
            if self._rank_fn(s) == full_rank:
                out.append(s)
        return tuple(out)


def rado_check(matroid: ClassicalMatroid, fam: SetFamily) -> HallVerdict:
    """Rado condition: rho(A[J]) >= |J| for every J; witness on failure."""
    if fam.ground != matroid.ground:
        raise GroundMismatch("family and matroid must share one ground tuple")
    labels = fam.ground
    for j_mask, u in _j_walk(fam.masks()):
        subset = frozenset(labels[i] for i in range(len(labels)) if u >> i & 1)
        if matroid.rank(subset) < j_mask.bit_count():
            return HallVerdict(False, _mask_to_indices(j_mask))
    return HallVerdict(True, None)


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


def co_nullity(matroid: ClassicalMatroid, x) -> int:
    """nu*(X) = min over bases B of |X meet B|."""
    x = frozenset(x)
    if not x <= set(matroid.ground):
        raise GroundMismatch("subset contains labels outside the ground")
    return min(len(x & b) for b in matroid.bases)


def avoid_rado_check(matroid: ClassicalMatroid, fam: SetFamily) -> HallVerdict:
    """Avoidance Rado: nu*(X(J)) + |J| <= nu*(S) for every J.

    Since rho(S - X) = nu*(S) - nu*(X), this is rado_check on the
    complemented family, condition for condition at every J: the same
    verdict and the same witness."""
    return rado_check(matroid, _complement(fam))
