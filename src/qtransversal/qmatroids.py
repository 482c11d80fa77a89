"""q-matroid rank functions on a materialized subspace lattice.

A QMatroid is a total rank table over the lattice, satisfying the three
rank axioms: 0 <= r(A) <= dim A, monotonicity, and submodularity.
Construction routes are rank-1 from a loop space, induction from a
submodular function, union (induction from the sum of rank functions),
and explicit tables.  Derived notions (circuits, closure, flats,
nullity, bar nullity, fundamental circuits, cyclicity) are computed by
full lattice scans; at desk scale this is the point, since exhaustive
theorem checks need totality.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, Sequence

from .errors import (
    IncompleteTable,
    InvalidRankTable,
    InvariantViolation,
    NotSubmodular,
    SpecMismatch,
    WrongNullity,
)
from .subspaces import Lattice, Subspace, VectorSpaceSpec, get_lattice

SubmodularReport = namedtuple("SubmodularReport", "ok failure witness")
AxiomReport = namedtuple("AxiomReport", "ok failure witness")


class QMatroid:
    """A rank oracle on the full subspace lattice, materialized as a table."""

    __slots__ = ("lattice", "ranks", "provenance", "_bases", "_circuits")

    def __init__(self, lattice: Lattice, ranks: Iterable[int], provenance: str = "table"):
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != len(lattice):
            raise IncompleteTable(
                f"rank table has {len(ranks)} entries for a lattice of size {len(lattice)}"
            )
        self.lattice = lattice
        self.ranks = ranks
        self.provenance = provenance
        self._bases = None
        self._circuits = None

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
        i = self.lattice.idx(a)
        return self.ranks[i] == self.lattice.dims[i]

    def independent_idx(self, i: int) -> bool:
        return self.ranks[i] == self.lattice.dims[i]

    def nullity(self, x: Subspace) -> int:
        i = self.lattice.idx(x)
        return self.lattice.dims[i] - self.ranks[i]

    def bases_idx(self) -> tuple[int, ...]:
        """Indices of the maximal independent subspaces (matroid bases)."""
        if self._bases is None:
            independent = [i for i in range(len(self.lattice)) if self.independent_idx(i)]
            best = max(self.lattice.dims[i] for i in independent)
            self._bases = tuple(i for i in independent if self.lattice.dims[i] == best)
        return self._bases

    def bases(self) -> tuple[Subspace, ...]:
        return tuple(self.lattice.subspaces[i] for i in self.bases_idx())

    def bar_nullity(self, x: Subspace) -> int:
        """min over matroid bases B of dim(B meet X)."""
        return self.bar_nullity_idx(self.lattice.idx(x))

    def bar_nullity_idx(self, xi: int) -> int:
        lat = self.lattice
        return min(lat.dims[lat.meet_idx(b, xi)] for b in self.bases_idx())

    def circuits(self) -> tuple[Subspace, ...]:
        """All minimal dependent subspaces, in enumeration order."""
        if self._circuits is None:
            lat = self.lattice
            out = []
            for i in range(len(lat)):
                if self.independent_idx(i):
                    continue
                if all(
                    self.independent_idx(j) for j in lat.below[i] if j != i
                ):
                    out.append(i)
            self._circuits = tuple(out)
        return tuple(self.lattice.subspaces[i] for i in self._circuits)

    def circuits_idx(self) -> tuple[int, ...]:
        self.circuits()
        return self._circuits

    def closure(self, a: Subspace) -> Subspace:
        """Largest B >= A with r(B) = r(A), built from 1-dim probes."""
        lat = self.lattice
        ai = lat.idx(a)
        ra = self.ranks[ai]
        cur = ai
        for atom in lat.atoms:
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
        if self.lattice.dims[si] - self.ranks[si] != 1:
            raise WrongNullity(
                f"fundamental circuit needs nullity 1, got {self.lattice.dims[si] - self.ranks[si]}"
            )
        ones = [
            t
            for t in lat.below[si]
            if lat.dims[t] - self.ranks[t] == 1
        ]
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


def _dense_values(lattice: Lattice, values) -> list[int]:
    if isinstance(values, Mapping):
        out = []
        for s in lattice.subspaces:
            if s not in values:
                raise IncompleteTable(f"no value for subspace {s.to_rows()}")
            out.append(int(values[s]))
        return out
    values = [int(v) for v in values]
    if len(values) != len(lattice):
        raise IncompleteTable(
            f"value table has {len(values)} entries for a lattice of size {len(lattice)}"
        )
    return values


def check_submodular(lattice: Lattice, values) -> SubmodularReport:
    """Check the three submodular-function axioms over the whole lattice.

    On failure the report carries which axiom broke and the witnessing
    subspace (or pair).
    """
    f = _dense_values(lattice, values)
    if f[lattice.bottom_index] != 0:
        return SubmodularReport(False, "bottom", (lattice.subspaces[lattice.bottom_index],))
    size = len(lattice)
    for i in range(size):
        for j in lattice.below[i]:
            if f[j] > f[i]:
                return SubmodularReport(
                    False, "monotone", (lattice.subspaces[j], lattice.subspaces[i])
                )
    for i in range(size):
        for j in range(i + 1, size):
            if (
                f[lattice.meet_idx(i, j)] + f[lattice.join_idx(i, j)]
                > f[i] + f[j]
            ):
                return SubmodularReport(
                    False, "submodular", (lattice.subspaces[i], lattice.subspaces[j])
                )
    return SubmodularReport(True, None, None)


def check_rank_axioms(lattice: Lattice, ranks: Sequence[int]) -> AxiomReport:
    """Check boundedness, monotonicity and submodularity of a rank table."""
    r = _dense_values(lattice, ranks)
    for i in range(len(lattice)):
        if not 0 <= r[i] <= lattice.dims[i]:
            return AxiomReport(False, "bounded", (lattice.subspaces[i],))
    sub = check_submodular(lattice, r)
    if not sub.ok:
        return AxiomReport(False, sub.failure, sub.witness)
    return AxiomReport(True, None, None)


def induce(lattice: Lattice, values, provenance: str = "induced") -> QMatroid:
    """The q-matroid induced by a submodular function.

    r(A) = min over B <= A of f(B) + dim A - dim B.
    """
    report = check_submodular(lattice, values)
    if not report.ok:
        raise NotSubmodular(f"{report.failure} axiom fails at {report.witness}")
    f = _dense_values(lattice, values)
    dims = lattice.dims
    ranks = [
        min(f[b] + dims[i] - dims[b] for b in lattice.below[i])
        for i in range(len(lattice))
    ]
    return QMatroid(lattice, ranks, provenance)


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


def union(members: Sequence[QMatroid], provenance: str = "union") -> QMatroid:
    """Union of q-matroids: induce from the sum of their rank functions.

    Multi-way unions are computed in one induction step.
    """
    if not members:
        raise SpecMismatch("union needs at least one matroid")
    lattice = members[0].lattice
    for m in members[1:]:
        if m.spec != lattice.spec:
            raise SpecMismatch("union members live on different spaces")
    summed = [sum(m.ranks[i] for m in members) for i in range(len(lattice))]
    return induce(lattice, summed, provenance)


def matroid_from_table(
    lattice: Lattice, values, provenance: str = "table", validate: bool = True
) -> QMatroid:
    ranks = _dense_values(lattice, values)
    if validate:
        report = check_rank_axioms(lattice, ranks)
        if not report.ok:
            raise InvalidRankTable(
                f"rank table violates the {report.failure} axiom at {report.witness}"
            )
    return QMatroid(lattice, ranks, provenance)
