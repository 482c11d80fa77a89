"""q-matroid rank functions on a materialized subspace lattice.

A QMatroid is a total rank table over the lattice, satisfying the three
rank axioms: 0 <= r(A) <= dim A, monotonicity, and submodularity.
Construction routes are rank-1 from a loop space, induction from a
submodular function, union (induction from the sum of rank functions),
and explicit tables.  Derived notions (circuits, closure, flats,
nullity, fundamental circuits, cyclicity) are computed by full lattice
scans; at desk scale this is the point, since exhaustive theorem checks
need totality.  Bar nullity is the min over bases B of dim(B meet X):
bar_nullity_idx evaluates it at one subspace, and bar_nullity_table
builds every entry once, on first use, for callers that read many.

The axioms are checked on the lattice's covers and diamonds, not on all
pairs (see Lattice.covers and Lattice.diamonds).  The subspace lattice
is graded and modular, and:

- f is monotone iff f(B) <= f(A) on every cover pair B < A, since a
  chain of covers runs from any B <= A up to A;
- f is submodular iff f(Y) + f(Z) >= f(X) + f(Y join Z) whenever Y and
  Z are distinct upper covers of X (a diamond).  For A and B, take
  maximal chains A meet B = a_0 < ... < a_s = A and A meet B = b_0 <
  ... < b_t = B.  By Birkhoff's theorem two chains of a modular lattice
  generate a distributive sublattice; in it x_ij = a_i join b_j has
  dimension dim(A meet B) + i + j and x_(i+1)j meet x_i(j+1) = x_ij, so
  every unit square of the grid is a diamond, and the s*t diamond
  inequalities sum (telescope) to f(A) + f(B) >= f(A meet B) + f(A join B).

Induction and the circuits walk the covers too: every B < A lies below
a lower cover of A.  Independence is hereditary, so a dependent subspace
is a circuit exactly when all its lower covers are independent.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import compress
from operator import add, eq, ne, sub
from typing import Iterable, Mapping, Sequence

from .errors import (
    IncompleteTable,
    InvalidRankTable,
    InvariantViolation,
    NotSubmodular,
    SpecMismatch,
    WrongNullity,
)
from .fields import json_array, json_int
from .subspaces import Lattice, Subspace, VectorSpaceSpec, get_lattice

SubmodularReport = namedtuple("SubmodularReport", "ok failure witness")


class QMatroid:
    """A rank oracle on the full subspace lattice, materialized as a table.

    ranks is stored as given, one int per lattice index; user tables go
    through matroid_from_table, which refuses an entry that is not an int.
    """

    __slots__ = ("lattice", "ranks", "provenance", "_bases", "_circuits", "_bar_nullity")

    def __init__(self, lattice: Lattice, ranks: Iterable[int], provenance: str = "table"):
        ranks = tuple(ranks)
        if len(ranks) != len(lattice):
            raise IncompleteTable(
                f"rank table has {len(ranks)} entries for a lattice of size {len(lattice)}"
            )
        self.lattice = lattice
        self.ranks = ranks
        self.provenance = provenance
        self._bases = None
        self._circuits = None
        self._bar_nullity = None

    @property
    def spec(self) -> VectorSpaceSpec:
        return self.lattice.spec

    @property
    def space_rank(self) -> int:
        """Rank of the whole matroid, r(V)."""
        return self.ranks[self.lattice.top_index]

    def rank(self, a: Subspace) -> int:
        return self.ranks[self.lattice.idx(a)]

    def independent(self, a: Subspace) -> bool:
        return self.independent_idx(self.lattice.idx(a))

    def independent_idx(self, i: int) -> bool:
        return self.ranks[i] == self.lattice.dims[i]

    def nullity(self, x: Subspace) -> int:
        i = self.lattice.idx(x)
        return self.lattice.dims[i] - self.ranks[i]

    def bases_idx(self) -> tuple[int, ...]:
        """Indices of the maximal independent subspaces (matroid bases)."""
        if self._bases is None:
            dims = self.lattice.dims
            independent = list(compress(range(len(dims)), map(eq, self.ranks, dims)))
            # Indices ascend with dimension, so the last independent
            # subspace has the largest dimension, and the bases are the
            # independent ones from the first index of that dimension on.
            first = self.lattice.by_dim[dims[independent[-1]]][0]
            self._bases = tuple(independent[bisect_left(independent, first):])
        return self._bases

    def bases(self) -> tuple[Subspace, ...]:
        return tuple(self.lattice.subspaces[i] for i in self.bases_idx())

    def bar_nullity(self, x: Subspace) -> int:
        """min over matroid bases B of dim(B meet X)."""
        return self.bar_nullity_idx(self.lattice.idx(x))

    def bar_nullity_idx(self, xi: int) -> int:
        """bar_nullity_table()[xi], evaluated at that one subspace: the
        min over bases B of dim(B meet X)."""
        lat = self.lattice
        return min(lat.dims[lat.meet_idx(b, xi)] for b in self.bases_idx())

    def bar_nullity_table(self) -> tuple[int, ...]:
        """Bar nullity of every subspace, indexed like the lattice: the
        elementwise min over bases B of dim(B meet X), built on first use."""
        if self._bar_nullity is None:
            lat = self.lattice
            rows = [lat.meet_row(b) for b in self.bases_idx()]
            # Lattice indices ascend with dimension, so the least index
            # among the meets B meet X is one of least dimension.  The
            # repeated first row keeps min's arguments a sequence.
            self._bar_nullity = tuple(map(lat.dims.__getitem__, map(min, *rows, rows[0])))
        return self._bar_nullity

    def circuits(self) -> tuple[Subspace, ...]:
        """All minimal dependent subspaces, in enumeration order: the
        dependent subspaces whose lower covers are all independent (see
        the module docstring), read in one pass over the covers."""
        if self._circuits is None:
            dependent = list(map(ne, self.ranks, self.lattice.dims))
            minimal = dependent[:]
            for lo, hi in zip(*self.lattice.covers):
                if dependent[lo]:
                    minimal[hi] = False
            self._circuits = tuple(compress(range(len(minimal)), minimal))
        return tuple(self.lattice.subspaces[i] for i in self._circuits)

    def circuits_idx(self) -> tuple[int, ...]:
        if self._circuits is None:
            self.circuits()
        return self._circuits

    def closure(self, a: Subspace) -> Subspace:
        """Largest B >= A with r(B) = r(A), built from 1-dim probes."""
        lat = self.lattice
        ai = lat.idx(a)
        ra = self.ranks[ai]
        cur = ai
        for atom in lat.by_dim[1]:
            if self.ranks[lat.join_idx(ai, atom)] == ra:
                cur = lat.join_idx(cur, atom)
        return lat.subspaces[cur]

    def is_flat(self, x: Subspace) -> bool:
        return self.closure(x) == x

    def loop_space(self) -> Subspace:
        """Closure of the bottom element: the largest rank-0 subspace."""
        return self.closure(self.lattice.subspaces[self.lattice.bottom_index])

    def circuit_join_idx(self, xi: int) -> int:
        """Index of the join of the circuits below subspace xi (empty join = bottom)."""
        lat = self.lattice
        cur = lat.bottom_index
        for c in self.circuits_idx():
            if lat.leq_idx(c, xi):
                cur = lat.join_idx(cur, c)
        return cur

    def is_cyclic(self, x: Subspace) -> bool:
        """True iff x equals the join of the circuits below it."""
        xi = self.lattice.idx(x)
        return self.circuit_join_idx(xi) == xi

    def fundamental_circuit(self, s: Subspace) -> Subspace:
        """The unique circuit below a nullity-1 subspace.

        Computed as the meet of the nullity-1 subspaces of s; the
        nullity dichotomy (n(T) = 1 iff C <= T, else 0) is re-verified
        on every call and a failure raises instead of being smoothed over.
        """
        lat = self.lattice
        si = lat.idx(s)
        nullity = lat.dims[si] - self.ranks[si]
        if nullity != 1:
            raise WrongNullity(f"fundamental circuit needs nullity 1, got {nullity}")
        ones = [t for t in lat.below[si] if lat.dims[t] - self.ranks[t] == 1]
        ci = ones[0]
        for t in ones[1:]:
            ci = lat.meet_idx(ci, t)
        for t in lat.below[si]:
            nt = lat.dims[t] - self.ranks[t]
            expected = 1 if lat.leq_idx(ci, t) else 0
            if nt != expected:
                raise InvariantViolation(
                    "fundamental-circuit dichotomy failed",
                    payload={"S": s.to_rows(), "T": lat.subspaces[t].to_rows()},
                )
        return lat.subspaces[ci]

    def __eq__(self, other):
        if not isinstance(other, QMatroid):
            return NotImplemented
        return self.spec == other.spec and self.ranks == other.ranks

    def __hash__(self):
        return hash((self.spec, self.ranks))

    def __repr__(self):
        return f"QMatroid({self.spec!r}, rank {self.space_rank}, {self.provenance})"

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "provenance": self.provenance,
            "rank_table": [
                {"subspace": s.to_rows(), "rank": r}
                for s, r in zip(self.lattice.subspaces, self.ranks)
            ],
        }

    @classmethod
    def from_jsonable(cls, lattice: Lattice, block: Mapping) -> QMatroid:
        """The validated q-matroid of a serialized rank table, which must
        cover every subspace of the lattice (else IncompleteTable) and list
        each once, with no other entry (else InvalidRankTable)."""
        entries = json_array(block["rank_table"], "rank_table")
        table = {tuple(json_array(e["subspace"], "subspace")): json_int(e["rank"], "rank")
                 for e in entries}
        ranks = []
        for s in lattice.subspaces:
            rows = tuple(s.to_rows())
            if rows not in table:
                raise IncompleteTable(f"rank table misses subspace {list(rows)}")
            ranks.append(table[rows])
        if len(entries) != len(ranks):
            raise InvalidRankTable(f"{len(entries)} rank table entries for {len(ranks)} subspaces")
        return matroid_from_table(lattice, ranks, block.get("provenance", "table"))


class _IntTable:
    """A table already converted to a list of one int per lattice index:
    _dense_values unwraps it instead of converting it again."""

    __slots__ = ("ints",)

    def __init__(self, ints: list[int]):
        self.ints = ints


def _dense_values(lattice: Lattice, values) -> list[int]:
    """values, a sequence of one int per lattice index, as a list; a bool
    or float entry raises InvalidRankTable, a dict TypeError."""
    if type(values) is _IntTable:
        return values.ints
    if not isinstance(values, Sequence):
        raise TypeError("a value table is a sequence of one int per lattice index")
    values = list(values)
    if not {int}.issuperset(map(type, values)):
        raise InvalidRankTable("value table entries must be ints")
    if len(values) != len(lattice):
        raise IncompleteTable(
            f"value table has {len(values)} entries for a lattice of size {len(lattice)}"
        )
    return values


def check_submodular(lattice: Lattice, values) -> SubmodularReport:
    """Check the three submodular-function axioms over the whole lattice.

    The verdict comes from the local theorem: f(0) = 0, f(B) <= f(A) on
    every cover pair, and f(Y) + f(Z) >= f(X) + f(Y join Z) on every
    diamond.  For any A and B, maximal chains from A meet B up to A and
    up to B generate a distributive sublattice whose unit squares are
    diamonds, and their inequalities telescope to the one for A and B
    (module docstring).  A failing table names the axiom and its first
    failing bottom, cover pair or diamond's pair (Y, Z), in the order the
    lattice holds them, re-read from the masks: a pair that does not
    violate the axiom raises InvariantViolation.
    """
    f = _dense_values(lattice, values)
    subspaces = lattice.subspaces
    if f[lattice.bottom_index] != 0:
        return SubmodularReport(False, "bottom", (subspaces[lattice.bottom_index],))
    for lo, hi in zip(*lattice.covers):
        if f[lo] > f[hi]:
            if not lattice.leq_idx(lo, hi):
                raise _misnamed(lattice, f)
            return SubmodularReport(False, "monotone", (subspaces[lo], subspaces[hi]))
    for x, y, z, w in zip(*lattice.diamonds):
        if f[x] + f[w] > f[y] + f[z]:
            if lattice.meet_idx(y, z) != x or lattice.join_idx(y, z) != w:
                raise _misnamed(lattice, f)
            return SubmodularReport(False, "submodular", (subspaces[y], subspaces[z]))
    return SubmodularReport(True, None, None)


def _misnamed(lattice: Lattice, f: list[int]) -> InvariantViolation:
    return InvariantViolation(
        "a cover or diamond names a pair that does not violate the axiom",
        payload={"spec": lattice.spec.to_jsonable(), "values": list(f)},
    )


def check_rank_axioms(lattice: Lattice, ranks: Sequence[int]) -> SubmodularReport:
    """Check boundedness, monotonicity and submodularity of a rank table."""
    r = _dense_values(lattice, ranks)
    for i in range(len(lattice)):
        if not 0 <= r[i] <= lattice.dims[i]:
            return SubmodularReport(False, "bounded", (lattice.subspaces[i],))
    return check_submodular(lattice, _IntTable(r))


def _lower_envelope(lattice: Lattice, f: Sequence[int]):
    """r(A) = min over B <= A of f(B) + dim A - dim B, for every A, computed
    along the covers: with h(A) = min over B <= A of f(B) - dim B, every
    B < A lies below a lower cover of A, so h(A) = min(f(A) - dim A, h(C)
    for the lower covers C of A), and r(A) = dim A + h(A)."""
    dims = lattice.dims
    h = list(map(sub, f, dims))
    for lo, hi in zip(*lattice.covers):
        if h[lo] < h[hi]:
            h[hi] = h[lo]
    return map(add, dims, h)


def induce(lattice: Lattice, values, provenance: str = "induced") -> QMatroid:
    """The q-matroid induced by a submodular function f: r(A) = min over
    B <= A of f(B) + dim A - dim B, one walk over the covers.
    """
    f = _dense_values(lattice, values)
    report = check_submodular(lattice, _IntTable(f))
    if not report.ok:
        raise NotSubmodular(f"{report.failure} axiom fails at {report.witness}")
    return QMatroid(lattice, _lower_envelope(lattice, f), provenance)


def rank_one(loop_space: Subspace) -> QMatroid:
    """The rank-1 q-matroid with the given loop space.

    r(A) = 0 when A <= L, else 1; a loop space equal to V gives the
    rank-0 matroid.
    """
    lattice = get_lattice(loop_space.spec)
    li = lattice.idx(loop_space)
    ranks = [0 if lattice.leq_idx(i, li) else 1 for i in range(len(lattice))]
    return QMatroid(lattice, ranks, f"rank-1 loops={loop_space.to_rows()}")


def free_matroid(spec: VectorSpaceSpec) -> QMatroid:
    lattice = get_lattice(spec)
    return QMatroid(lattice, lattice.dims, "free")


def zero_matroid(spec: VectorSpaceSpec) -> QMatroid:
    lattice = get_lattice(spec)
    return QMatroid(lattice, (0,) * len(lattice), "zero")


def union(members: Sequence[QMatroid]) -> QMatroid:
    """Union of q-matroids: induce from the sum of their rank functions.

    Multi-way unions are computed in one induction step.
    """
    if not members:
        raise SpecMismatch("union needs at least one matroid")
    lattice = members[0].lattice
    summed = members[0].ranks
    for m in members[1:]:
        if m.spec != lattice.spec:
            raise SpecMismatch("union members live on different spaces")
        summed = map(add, summed, m.ranks)
    return induce(lattice, _IntTable(list(summed)), "union")


def matroid_from_table(lattice: Lattice, values, provenance: str = "table") -> QMatroid:
    ranks = _dense_values(lattice, values)
    report = check_rank_axioms(lattice, _IntTable(ranks))
    if not report.ok:
        raise InvalidRankTable(
            f"rank table violates the {report.failure} axiom at {report.witness}"
        )
    return QMatroid(lattice, ranks, provenance)
