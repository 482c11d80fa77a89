"""The lattice of subspaces of GF(q)^n.

A Subspace is identified with the reduced row-echelon form (RREF) of
any of its bases: pivot entries are 1, pivot columns strictly increase,
and every other entry in a pivot column vanishes.  Two subspaces are
equal exactly when these matrices are identical, which makes Subspace a
hashable key for rank tables and certificate maps.  Vectors and matrix
entries are field element codes (see fields.py), so everything stays in
exact integer arithmetic.

Enumeration order is fixed everywhere: ascending dimension, then
lexicographic on the flattened RREF entries.  Scale guards are module
constants, read when their guard runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    DimensionMismatch,
    InfeasibleScale,
    OutOfRange,
    SpecMismatch,
)
from .fields import FieldSpec, field_make, json_array, json_int, prime_power

#: Largest q^n the vector-level enumerators will walk.
VECTOR_CAP = 2**20
#: Largest single-dimension block of subspaces materialized at once.
SUBSPACE_BLOCK_CAP = 10**6
#: Largest number of vector bases enumerate_bases will yield.
BASIS_CAP = 10**6
#: Most units of set walking over one family, each mask AND charged
#: set_walk_unit(spec) = 1 + q^n // 2^14 units for its q^n-bit point masks.
#: SubspaceFamily.meet_closure charges each member the size of the closure
#: it meets, about 280 ns a unit with 1,000 members of GF(2)^6 and 410 ns
#: with 5,900, whose J masks are 5,900 bits wide, so 6.9 s and 23 MiB at
#: the cap.  presentation_matroid charges each member the S subspaces it
#: tests, about 115 ns a unit on GF(2)^6, GF(3)^5 and GF(7)^4, so 2 s and at
#: most 30 MiB at the cap; GF(421)^2 pays 11 units an AND of its 177,241-bit
#: masks, 1.8 to 2.3 us, so 165 to 210 ns a unit (2-vCPU Xeon VM, Python
#: 3.11).  Lattice.meet_levels charges its S^2 ANDs (S subspaces) before it
#: builds: GF(2)^6 pays 7,980,625 units and builds in about 2 s and 7 MiB;
#: GF(2)^7 would pay 853,340,944 for some 850 MB of levels and is refused.
SET_WALK_CAP = 2**24
#: Largest lattice, charged before building with one unit per subspace,
#: cover pair and diamond (closed-form counts), each 2^14 + q^n bits: a
#: join's fixed cost (about 1.5 us) plus the q^n-bit masks it intersects.
#: GF(8)^4 (4.0e10), GF(31)^3 (4.7e10) and GF(2)^7 (5.6e10) build, with covers,
#: diamonds and check_submodular, in 2.9 to 4.5 s at 68 to 170 MiB RSS; the
#: refused GF(37)^3 (1.4e11) takes 12 s (fresh processes, 2-vCPU Xeon VM).
LATTICE_CAP = 2**36


def refuse_beyond_vector_cap(q: int, n: int) -> None:
    """InfeasibleScale if GF(q)^n has more than VECTOR_CAP vectors; q^n is
    not computed for a huge n, so a huge space is refused at once."""
    if q ** min(n, VECTOR_CAP.bit_length()) > VECTOR_CAP:
        raise InfeasibleScale(f"GF({q})^{n} has more vectors than the vector cap {VECTOR_CAP}")


def set_walk_unit(spec: VectorSpaceSpec) -> int:
    """What SET_WALK_CAP charges one AND of spec's q^n-bit point masks:
    one unit, plus one per whole 2^14 vectors of mask width."""
    return 1 + spec.num_vectors // 2**14


@dataclass(frozen=True)
class VectorSpaceSpec:
    """The ambient space V = GF(q)^dim."""

    field: FieldSpec
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise OutOfRange(f"ambient dimension must be a positive integer, got {self.dim!r}")

    @property
    def num_vectors(self) -> int:
        return self.field.order**self.dim

    def to_jsonable(self) -> dict:
        out = {"q": self.field.order, "dim": self.dim}
        out.update(self.field.to_jsonable())
        return out

    @classmethod
    def from_jsonable(cls, doc) -> VectorSpaceSpec:
        """The space a record, scan config or CLI instance names by "q" and "dim"."""
        p, e = prime_power(json_int(doc["q"], "q"))
        return cls(field_make(p, e), json_int(doc["dim"], "dim"))

    def __repr__(self):
        q = self.field.order
        return f"VectorSpaceSpec(GF({q})^{self.dim})"


def rref(field: FieldSpec, rows, ncols: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row-echelon form over the field.

    Returns (rows, pivot_columns) with zero rows dropped.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        if mat[r][c] != 1:
            inv = field.inv_code(mat[r][c])
            mat[r] = [field.mul_codes(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [
                    field.sub_codes(a, field.mul_codes(f, b))
                    for a, b in zip(mat[i], mat[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def matrix_rank(field: FieldSpec, rows, ncols: int) -> int:
    return len(rref(field, rows, ncols)[0])


@dataclass(frozen=True)
class Subspace:
    """A subspace of V, stored as the RREF of one (hence any) basis.

    The bottom element has zero rows; the ambient space has dim rows.
    """

    spec: VectorSpaceSpec
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.spec.dim
        q = self.spec.field.order
        last_pivot = -1
        pivots = []
        for row in self.rows:
            if len(row) != n:
                raise DimensionMismatch(f"row of length {len(row)} in GF({q})^{n}")
            if any(not 0 <= v < q for v in row):
                raise OutOfRange("row entries must be field element codes")
            pivot = next((j for j, v in enumerate(row) if v), None)
            if pivot is None:
                raise ValueError("zero rows are not part of a canonical basis")
            if pivot <= last_pivot or row[pivot] != 1:
                raise ValueError("rows are not in reduced row-echelon form")
            last_pivot = pivot
            pivots.append(pivot)
        pivot_set = set(pivots)
        for i, row in enumerate(self.rows):
            for j in pivot_set:
                if j != pivots[i] and row[j]:
                    raise ValueError("rows are not in reduced row-echelon form")

    def __hash__(self):
        # Equal subspaces have equal rows, so the rows alone make a valid
        # hash, and hashing them skips the spec.
        return hash(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def to_rows(self) -> list[str]:
        return [vector_to_string(self.spec, row) for row in self.rows]

    def __repr__(self):
        return f"Subspace({self.to_rows()!r})"


def bottom(spec: VectorSpaceSpec) -> Subspace:
    return Subspace(spec, ())


def top(spec: VectorSpaceSpec) -> Subspace:
    n = spec.dim
    return Subspace(spec, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def canonicalize(spec: VectorSpaceSpec, vectors) -> Subspace:
    """Subspace spanned by the given vectors (tuples of field codes)."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != spec.dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {spec.dim}"
            )
        if any(not isinstance(c, int) or not 0 <= c < spec.field.order for c in v):
            raise OutOfRange("vector entries must be field element codes")
    rows, _ = rref(spec.field, vectors, spec.dim)
    return Subspace(spec, rows)


def _require_same_spec(a: Subspace, b: Subspace) -> None:
    if a.spec != b.spec:
        raise SpecMismatch("subspaces live in different ambient spaces")


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both, i.e. the span of their union."""
    _require_same_spec(a, b)
    rows, _ = rref(a.spec.field, a.rows + b.rows, a.spec.dim)
    return Subspace(a.spec, rows)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed by the Zassenhaus null-space construction."""
    _require_same_spec(a, b)
    spec = a.spec
    n = spec.dim
    zero = (0,) * n
    stacked = [row + row for row in a.rows] + [row + zero for row in b.rows]
    reduced, _ = rref(spec.field, stacked, 2 * n)
    inter = [row[n:] for row in reduced if not any(row[:n])]
    return canonicalize(spec, inter)


def contains_vector(s: Subspace, vector) -> bool:
    """Membership test by elimination against the canonical basis."""
    field = s.spec.field
    v = list(vector)
    if len(v) != s.spec.dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    for row in s.rows:
        pivot = next(j for j, x in enumerate(row) if x)
        c = v[pivot]
        if c:
            v = [field.sub_codes(x, field.mul_codes(c, y)) for x, y in zip(v, row)]
    return not any(v)


def leq(a: Subspace, b: Subspace) -> bool:
    """True iff a is a subspace of b."""
    _require_same_spec(a, b)
    return all(contains_vector(b, row) for row in a.rows)


def subspace_vectors(s: Subspace) -> tuple[tuple[int, ...], ...]:
    """Every vector of the subspace, sorted; q^dim of them."""
    field = s.spec.field
    n = s.spec.dim
    vecs = []
    for coeffs in itertools.product(range(field.order), repeat=s.dim):
        v = [0] * n
        for c, row in zip(coeffs, s.rows):
            if c:
                v = [field.add_codes(x, field.mul_codes(c, y)) for x, y in zip(v, row)]
        vecs.append(tuple(v))
    vecs.sort()
    return tuple(vecs)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exactly."""
    if q < 2:
        raise OutOfRange(f"q must be at least 2, got {q}")
    if n < 0 or k < 0 or k > n:
        raise OutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    result = 1
    for i in range(k):
        # Each partial product is itself a Gaussian binomial, so the
        # stepwise integer division is exact.
        result = result * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return result


def _rref_block(field: FieldSpec, n: int, k: int):
    """All k x n RREF matrices over the field, one per k-dim subspace."""
    q = field.order
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free_pos)):
            mat = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                mat[i][pc] = 1
            for (i, j), v in zip(free_pos, vals):
                mat[i][j] = v
            yield tuple(tuple(row) for row in mat)


def enumerate_subspaces(spec: VectorSpaceSpec):
    """Stream the subspaces of V, each exactly once.

    Order is deterministic: ascending dimension, then lexicographic
    RREF.  Counts per dimension equal the Gaussian binomial.
    """
    q = spec.field.order
    refuse_beyond_vector_cap(q, spec.dim)
    for k in range(spec.dim + 1):
        count = gaussian_binomial(spec.dim, k, q)
        if count > SUBSPACE_BLOCK_CAP:
            raise InfeasibleScale(
                f"{count} subspaces of dimension {k} exceed the block cap {SUBSPACE_BLOCK_CAP}"
            )
        for rows in sorted(_rref_block(spec.field, spec.dim, k)):
            yield Subspace(spec, rows)


def count_bases(t: Subspace) -> int:
    """Number of unordered vector bases of a subspace, exactly."""
    q = t.spec.field.order
    r = t.dim
    ordered = 1
    for i in range(r):
        ordered *= q**r - q**i
    return ordered // math.factorial(r)


def enumerate_bases(t: Subspace):
    """Stream every unordered vector basis of t, deterministically.

    A basis is a sorted tuple of t.dim linearly independent vectors, and
    the bases come in lexicographic order.  The guard compares the
    number of bases, count_bases(t), with BASIS_CAP.

    The walk runs in t's pivot coordinates: the vector of t with
    coefficients c = (v[p_1], ..., v[p_r]) on its RREF rows carries c
    at its pivot columns p_i, and vectors agree before the first pivot
    where their coefficients differ, so lexicographic order on the
    vectors equals that on their coefficients.  The sorted vectors of t
    are therefore numbered by the vector codes of the coordinate lattice
    of GF(q)^r.  Each basis grows one code at a time, in ascending
    order: a later code extends a prefix when its bit is clear in the
    mask of the prefix's span; an inner node joins that span with the
    code's atom.  Dependent prefixes are skipped, not filtered afterwards.

    The coordinate lattice is built after the guard.  Only a raised
    BASIS_CAP reaches one above LATTICE_CAP (GF(2)^8 has about 1.3 * 10^14
    bases); there get_lattice raises InfeasibleScale.
    """
    r = t.dim
    if r == 0:
        yield ()
        return
    total = count_bases(t)
    if total > BASIS_CAP:
        raise InfeasibleScale(f"{total} vector bases exceed the basis cap {BASIS_CAP}")
    coords = get_lattice(VectorSpaceSpec(t.spec.field, r))
    # Bit 0, the zero vector, is in every span and never a candidate.
    yield from _extend_bases(
        subspace_vectors(t), coords.masks, coords.join_idx, coords.atom_of,
        (), coords.bottom_index, 1, r,
    )


def _extend_bases(vectors, masks, join_idx, atom_of, prefix, span, start, left):
    # A module-level generator: a nested one that recursed through its
    # closure would leave a function-cell reference cycle per call.
    inside = masks[span]
    if left == 1:  # the last vector: yield here, not from one generator per basis
        for k in range(start, len(vectors)):
            if not inside >> k & 1:
                yield prefix + (vectors[k],)
        return
    for k in range(start, len(vectors)):
        if not inside >> k & 1:
            yield from _extend_bases(
                vectors, masks, join_idx, atom_of, prefix + (vectors[k],),
                join_idx(span, atom_of[k]), k + 1, left - 1,
            )


class _lazy:
    """functools.cached_property without the class-wide lock Python 3.11
    takes on every first access: about 0.5 us per attribute (2-vCPU Xeon
    VM), on families a scan builds by the thousand at some 25 us each.
    Two threads may both compute a value; the values are equal."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)  # stored in the instance, it shadows self
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class SubspaceFamily:
    """An ordered tuple (X_1, ..., X_n) of subspaces of one space, holding
    the lattice indices of its members and the closure of their meets
    X(J), each meet once with the largest J that reaches it."""

    spec: VectorSpaceSpec
    members: tuple[Subspace, ...]

    def __post_init__(self):
        for m in self.members:
            if m.spec != self.spec:
                raise SpecMismatch("family members live in different ambient spaces")

    def __len__(self):
        return len(self.members)

    def to_rows(self) -> list[list[str]]:
        return [m.to_rows() for m in self.members]

    @_lazy
    def lattice(self) -> Lattice:
        return get_lattice(self.spec)

    @_lazy
    def member_indices(self) -> tuple[int, ...]:
        """The lattice index of each member, in family order."""
        return tuple(map(self.lattice.idx, self.members))

    @_lazy
    def meet_closure(self) -> tuple[tuple[int, int], ...]:
        """Every distinct meet X(J) once, as (lattice index of W, bitmask
        of J_W) pairs in insertion order, starting with V; bit i-1 stands
        for member i, X(empty) = V, and J_W = {i : W <= X_i} is the largest
        J with X(J) = W.  Each distinct member X, in order of first
        occurrence, ORs J | P into the entry of the meet of X with each
        entry (W, J) so far, where P masks the positions of X, so every
        entry holds the union of the J that meet to it: at most min(S, 2^n)
        entries (S subspaces), built in one pass per distinct member.  A
        repeat of X would add no meet, so the meets still come in the order
        they first appear as J runs through the bitmasks ascending.  While
        they grow the entries are keyed by point mask, so that each meet is
        one AND of masks, and they are indexed once at the end.  Each pass
        charges the closure it meets, set_walk_unit units an entry, against
        SET_WALK_CAP and is refused past it.  Members are looked up here,
        not through member_indices: one attribute less per family."""
        lattice = self.lattice
        masks = lattice.masks
        positions = {}
        for i, m in enumerate(self.members):
            mi = masks[lattice.idx(m)]
            positions[mi] = positions.get(mi, 0) | 1 << i
        closure = {masks[lattice.top_index]: 0}
        unit = set_walk_unit(self.spec)
        charged = 0
        for mi, bits in positions.items():
            charged += len(closure) * unit
            if charged > SET_WALK_CAP:
                raise InfeasibleScale(
                    f"the meet-closure of {len(self.members)} members passes "
                    f"the cap {SET_WALK_CAP} at member {(bits & -bits).bit_length()}, "
                    f"with {len(closure)} distinct meets"
                )
            for w, j in list(closure.items()):
                w &= mi
                closure[w] = closure.get(w, 0) | j | bits
        by_mask = lattice.by_mask
        return tuple((by_mask[w], j) for w, j in closure.items())


# -- serialization helpers ------------------------------------------------


def vector_to_string(spec: VectorSpaceSpec, vector) -> str:
    return spec.field.format_codes(vector)


def vector_from_string(spec: VectorSpaceSpec, text: str) -> tuple[int, ...]:
    return spec.field.parse_codes(text, spec.dim)


def subspace_from_rows(spec: VectorSpaceSpec, rows) -> Subspace:
    return canonicalize(spec, [vector_from_string(spec, r) for r in json_array(rows, "rows")])


def family_from_rows(spec: VectorSpaceSpec, member_rows) -> SubspaceFamily:
    return SubspaceFamily(
        spec, tuple(subspace_from_rows(spec, rows) for rows in json_array(member_rows, "family"))
    )


# -- the materialized lattice ---------------------------------------------


def _orthogonal_complement(s: Subspace) -> Subspace:
    """The subspace orthogonal to s under the standard dot product.

    Its basis is read off the RREF: one vector per free column f, with
    a 1 at f and minus row r's entry at f in row r's pivot column.
    """
    field = s.spec.field
    n = s.spec.dim
    pivots = [next(j for j, x in enumerate(row) if x) for row in s.rows]
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        w = [0] * n
        w[f] = 1
        for p, row in zip(pivots, s.rows):
            w[p] = field.neg_code(row[f])
        basis.append(w)
    return canonicalize(s.spec, basis)


def _spread_adder(p: int, digits: int):
    """Vector addition for GF(p^e)^n on spread codes.

    A vector code written in base p has n*e digits, one per GF(p)
    coordinate, and vector addition adds them digit by digit mod p.  The
    spread code puts each digit in its own slot of ``width`` bits, wide
    enough that the sum of two slots and a bias cannot carry into the
    next slot: adding the bias 2^(width-1) - p sets a slot's top bit
    exactly when the slot's sum is at least p, and those slots lose p.
    Returns (spreads, add): the spread code of every vector code, in
    code order, and the addition.
    """
    width = (2 * p - 2).bit_length() + 1
    shift = width - 1
    bias = sum(((1 << shift) - p) << (width * i) for i in range(digits))
    high = sum(1 << (width * i + shift) for i in range(digits))
    spreads = [0]
    for _ in range(digits):
        spreads = [s << width | d for s in spreads for d in range(p)]

    def add(a: int, b: int) -> int:
        s = a + b
        return s - ((s + bias & high) >> shift) * p

    return spreads, add


def _levels(values: bytes, top: int) -> list[int]:
    """[m_0, ..., m_top]: bit i of m_d is set iff values[i] <= d.  The
    values, one byte per lattice index, are read last index first as
    binary digits, one translate and one parse per level."""
    digits = values[::-1]
    return [int(digits.translate(b"1" * (d + 1) + b"0" * (255 - d)), 2) for d in range(top + 1)]


def _rank_key(ranks) -> tuple[int, ...]:
    """A rank table as its levels: bit A of entry k - 1 is set iff
    r(A) >= k, for k = 1..max r.  Tables with equal keys are equal."""
    full = (1 << len(ranks)) - 1
    return tuple(full ^ m for m in _levels(bytes(ranks), max(ranks) - 1))


def _bits(mask: int):
    """The positions of mask's set bits, ascending."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class Lattice:
    """Fully materialized subspace lattice, its order read from point masks.

    Subspaces are indexed in enumeration order (ascending dimension), so
    index 0 is the bottom element, the last index is the ambient space,
    and a smaller index never has a larger dimension.  Each subspace's
    point set is held one way: an int bitmask ``masks[i]`` whose bit
    ``code(v)`` is set exactly when the vector v lies in subspace i; a
    vector's code is its base-q number, which numbers the q^n vectors of
    V in lexicographic order.  ``by_rows`` indexes the subspaces by their
    RREF rows, ``by_mask`` by their masks.

    Every order query is read from the masks.  A subspace's parent is the
    span of its RREF rows less the last, and its points are the parent's
    points plus the multiples of that last row, which are the points of
    the atom the row spans; so each mask grows from two smaller ones.
    The meet is the intersection of point sets, ``masks[i] & masks[j]``,
    looked up in ``by_mask``; j lies below i exactly when its mask is a
    subset of i's.  The join comes by duality under the standard dot
    product, which is nondegenerate over every GF(q): U + W = (U-perp
    meet W-perp)-perp.  ``perp[i]`` indexes the complement of subspace i.
    Only the atoms' complements are read off their RREF; every other
    subspace's is the meet of its parent's and its last row's.
    ``atom_of[c]`` indexes the atom through the nonzero vector of code c.

    The masks, both indexes, ``perp`` and ``atom_of`` are built eagerly;
    none of them is S x S (S subspaces).  Four tables of the lattice
    itself are built on first use and kept: the cover columns
    (``covers``), which the axiom checks, induction, the presentation
    matroid and circuits walk; the diamonds (``diamonds``), which the
    axiom checks walk; ``below``, which only fundamental circuits read;
    and the q-Rado scan's ``meet_levels``, S x S x (n + 1) bits.  Nothing
    a caller asks about one subspace or family is kept: ``meet_row``
    builds its row anew.
    """

    def __init__(self, spec: VectorSpaceSpec):
        field = spec.field
        q = field.order
        n = spec.dim
        refuse_beyond_vector_cap(q, n)
        # A k-dim subspace has [n-k 1]_q upper covers, and each pair of
        # them spans one diamond.
        units = 0
        for k in range(n + 1):
            ups = (q ** (n - k) - 1) // (q - 1)
            units += gaussian_binomial(n, k, q) * (1 + ups + math.comb(ups, 2))
        work = units * (2**14 + spec.num_vectors)
        if work > LATTICE_CAP:
            raise InfeasibleScale(
                f"lattice of {units} subspaces, cover pairs and diamonds on "
                f"{spec.num_vectors}-bit masks ({work}) exceeds the cap {LATTICE_CAP}"
            )
        self.spec = spec
        self.subspaces: tuple[Subspace, ...] = tuple(enumerate_subspaces(spec))
        self.by_rows: dict[tuple, int] = {s.rows: i for i, s in enumerate(self.subspaces)}
        self.dims: tuple[int, ...] = tuple(s.dim for s in self.subspaces)
        self.bottom_index = 0
        self.top_index = len(self.subspaces) - 1
        self.by_dim: dict[int, tuple[int, ...]] = {
            k: tuple(i for i, d in enumerate(self.dims) if d == k)
            for k in range(n + 1)
        }
        # (parent, atom of the last row) for every subspace but the bottom.
        by_rows = self.by_rows
        grown = [(by_rows[s.rows[:-1]], by_rows[s.rows[-1:]]) for s in self.subspaces[1:]]
        spreads, add = _spread_adder(field.p, n * field.e)
        # A mask is written as binary digits, the last vector code's first,
        # and parsed once: linear in q^n, where summing 1 << code over the
        # points copies the growing int at every step.
        width = len(spreads)
        digit_of = {s: width - 1 - c for c, s in enumerate(spreads)}
        zeros = b"0" * width
        points = [[0]]  # spread codes; the bottom holds the zero vector
        # The zero vector lies in every atom; its entry is never read.
        atom_of = [self.bottom_index] * width
        for i, (parent, atom) in enumerate(grown, 1):
            if parent == self.bottom_index:
                row = self.subspaces[i].rows[0]
                line = [self.code(field.mul_codes(c, x) for x in row) for c in range(q)]
                for c in line[1:]:
                    atom_of[c] = i
                points.append([spreads[c] for c in line])
            else:
                points.append([add(u, w) for w in points[atom] for u in points[parent]])
        masks = []
        for pts in points:
            digits = bytearray(zeros)
            for s in pts:
                digits[digit_of[s]] = 49  # ord("1")
            masks.append(int(digits, 2))
        self.masks: tuple[int, ...] = tuple(masks)
        self.by_mask: dict[int, int] = {m: i for i, m in enumerate(masks)}
        self.atom_of: tuple[int, ...] = tuple(atom_of)
        perp = [self.top_index]
        for i, (parent, atom) in enumerate(grown, 1):
            if parent == self.bottom_index:
                perp.append(by_rows[_orthogonal_complement(self.subspaces[i]).rows])
            else:
                perp.append(self.by_mask[masks[perp[parent]] & masks[perp[atom]]])
        self.perp: tuple[int, ...] = tuple(perp)

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Every cover pair as two index columns (lower, upper), the upper
        one dimension above the lower, ordered by upper and then lower: a
        walk down the columns meets all lower covers of a subspace before
        it meets that subspace as a lower one.

        The upper covers of j are its joins with the atoms outside it, and
        each point outside j lies in exactly one of them, so the walk joins
        j with the atom of the lowest point not yet covered and drops the
        new cover's points: one join per cover pair."""
        masks, atom_of, join_idx = self.masks, self.atom_of, self.join_idx
        everything = masks[self.top_index]
        lowers = [[] for _ in self.subspaces]
        for j, mask in enumerate(masks):
            rest = everything & ~mask
            while rest:
                up = join_idx(j, atom_of[(rest & -rest).bit_length() - 1])
                lowers[up].append(j)
                rest &= ~masks[up]
        lower, upper = zip(*((j, i) for i, row in enumerate(lowers) for j in row))
        return lower, upper

    @cached_property
    def below(self) -> tuple[tuple[int, ...], ...]:
        """below[i]: every subspace below subspace i, i itself included, in
        index order; i with the subspaces below each lower cover of i."""
        below = [{i} for i in range(len(self))]
        for lo, hi in zip(*self.covers):
            below[hi] |= below[lo]
        return tuple(tuple(sorted(b)) for b in below)

    @cached_property
    def diamonds(self) -> tuple[tuple[int, ...], ...]:
        """Every diamond as four index columns (x, y, z, w): y < z are two
        distinct upper covers of x and w = y join z, so y meet z = x and
        the dimensions are d, d+1, d+1, d+2.  Ordered by x, y, then z."""
        upper_covers = [[] for _ in self.subspaces]
        for lo, hi in zip(*self.covers):
            upper_covers[lo].append(hi)
        # Column by column: a list of 4-tuples zipped into columns would
        # hold about 80 more bytes a diamond while the columns are built.
        xs = tuple(x for x, ups in enumerate(upper_covers) for _ in range(math.comb(len(ups), 2)))
        ys = tuple(y for ups in upper_covers for y, _ in itertools.combinations(ups, 2))
        zs = tuple(z for ups in upper_covers for _, z in itertools.combinations(ups, 2))
        return xs, ys, zs, tuple(map(self.join_idx, ys, zs))

    @cached_property
    def meet_levels(self) -> tuple[list[int], ...]:
        """meet_levels[X][d] for every subspace X and d = 0..n: bit A is
        set iff dim(A meet X) <= d, read once from meet_row(X).  Its S^2
        mask ANDs (S subspaces) are charged against SET_WALK_CAP,
        set_walk_unit units each, and refused before any is made."""
        dims, n = self.dims, self.spec.dim
        work = len(dims) ** 2 * set_walk_unit(self.spec)
        if work > SET_WALK_CAP:
            raise InfeasibleScale(
                f"the meet levels of {len(dims)} subspaces ({work} units of mask ANDs) "
                f"exceed the cap {SET_WALK_CAP}"
            )
        rows = (bytes(map(dims.__getitem__, self.meet_row(x))) for x in range(len(dims)))
        return tuple(_levels(row, n) for row in rows)

    def codim_levels(self, t: int) -> list[int]:
        """C_X[t] for every subspace X: bit A is set iff dim A - dim(A meet
        X) >= t, the union over d of the dimension-d subspaces in
        meet_levels[X][d - t].  Indices ascend with dimension, so the
        dimension-d subspaces are one run of bits."""
        of_dim = [((1 << len(block)) - 1) << block[0] for block in self.by_dim.values()]
        # The dimension classes are disjoint: their sum is their union.
        return [sum(of_dim[d] & row[d - t] for d in range(t, len(of_dim))) for row in self.meet_levels]

    def __len__(self):
        return len(self.subspaces)

    def idx(self, s: Subspace) -> int:
        i = self.by_rows.get(s.rows)
        # Rows alone do not name the space.  A subspace's spec is most
        # often this lattice's own object, which skips the dataclass ==.
        if i is None or (s.spec is not self.spec and s.spec != self.spec):
            raise SpecMismatch("subspace does not belong to this lattice")
        return i

    def leq_idx(self, i: int, j: int) -> bool:
        mi = self.masks[i]
        return mi & self.masks[j] == mi

    def meet_idx(self, i: int, j: int) -> int:
        masks = self.masks
        return self.by_mask[masks[i] & masks[j]]

    def join_idx(self, i: int, j: int) -> int:
        masks, perp = self.masks, self.perp
        return perp[self.by_mask[masks[perp[i]] & masks[perp[j]]]]

    def meet_row(self, i: int) -> tuple[int, ...]:
        """The index of the meet of subspace i with every subspace, in index
        order, computed from the masks on every call."""
        by_mask, mi = self.by_mask, self.masks[i]
        return tuple([by_mask[mi & m] for m in self.masks])

    def code(self, vector) -> int:
        """The vector's base-q number, its first entry the most significant;
        the entries are not checked."""
        q = self.spec.field.order
        c = 0
        for x in vector:
            c = c * q + x
        return c

    def contains_idx(self, i: int, vector) -> bool:
        v = tuple(vector)
        if len(v) != self.spec.dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        q = self.spec.field.order
        if not all(isinstance(x, int) and 0 <= x < q for x in v):
            raise OutOfRange(f"vector entries must be field element codes 0..{q - 1}")
        return self.masks[i] >> self.code(v) & 1 == 1


# Bounded, so that an evicted lattice is freed: a scan or certify run meets nine.
@lru_cache(maxsize=16)
def get_lattice(spec: VectorSpaceSpec) -> Lattice:
    return Lattice(spec)
