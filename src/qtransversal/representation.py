"""Representable q-matroids and the aligned-family construction.

A representation is a matrix G over an extension field K of the base
field; the rank of a subspace with basis matrix X is the K-rank of
G X^T.  Entries of G live in K while the subspaces stay over GF(q), so
base field codes are lifted through the canonical subfield embedding
(for a prime base field the embedding is the identity on constants; for
a proper base extension the base generator is sent to the least root of
the base modulus in K, in code order).

The rank is read from an echelon form of the column images G v of the
canonical basis rows v of X.  Dropping the last row of an RREF basis
leaves the RREF basis of a subspace one dimension lower, its parent, so
a subspace's echelon form is its parent's plus one reduced image: one
image and one reduction step per subspace.  A walk over many subspaces
(verify_representation, represent) shares one memo of echelon forms,
keyed by basis rows, for the length of that walk only.

For a family of coordinate subspaces X_i = <b_j : j in L_i> the
construction uses a k x n matrix over GF(q^(n^k)) with

    G[i][j] = 0                if j in L_i,
              alpha^(j * n^i)  otherwise  (rows i = 0..k-1, columns j = 1..n),

where alpha is the class of x, an element of degree n^k over GF(q).
The exponents j * n^i are the base-n digit encodings of the tuples
(e_1..e_k), all distinct, so the powers of alpha that appear in the
Lagrange expansion of the k x k minors stay linearly independent over
GF(q) and the determinant argument goes through.  Every constructed
representation is verified against the presentation matroid of the
induced family; a failure at the guaranteed degree would contradict the
theorem and raises instead of being smoothed over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InfeasibleScale,
    InvariantViolation,
    OutOfRange,
    SpecMismatch,
)
from .fields import FieldSpec, field_make, json_array, json_int, modulus_from_string
from .qmatroids import QMatroid
from .qtransversals import presentation_matroid
from .subspaces import (
    Subspace,
    SubspaceFamily,
    VectorSpaceSpec,
    canonicalize,
    get_lattice,
)

#: Largest extension field (element count) the embeddings will scan.
EMBED_SCAN_CAP = 2**20


def subfield_embedding(base: FieldSpec, ext: FieldSpec) -> tuple[int, ...]:
    """Code table of the canonical embedding GF(p^e) -> GF(p^(e*d)).

    Prime base fields embed as constants.  Otherwise the base generator
    is mapped to the least root (in code order) of the base modulus in
    the extension, and the map extends linearly over the coefficients.
    """
    if ext.p != base.p:
        raise SpecMismatch("extension must have the same characteristic")
    if ext.e % base.e:
        raise SpecMismatch(
            f"GF({base.p}^{base.e}) is not a subfield of GF({ext.p}^{ext.e})"
        )
    if base.e == 1:
        return tuple(range(base.p))
    if ext.order > EMBED_SCAN_CAP:
        raise InfeasibleScale(
            f"root scan over {ext.order} elements exceeds the cap {EMBED_SCAN_CAP}"
        )
    root = None
    for cand in range(ext.order):
        acc = 0
        for coeff in reversed(base.modulus):
            acc = ext.add_codes(ext.mul_codes(acc, cand), coeff)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise SpecMismatch("base modulus has no root in the extension")
    table = []
    for code in range(base.order):
        lifted = 0
        power = 1
        for digit in base.decode(code):
            if digit:
                lifted = ext.add_codes(lifted, ext.mul_codes(digit, power))
            power = ext.mul_codes(power, root)
        table.append(lifted)
    return tuple(table)


@dataclass(frozen=True)
class QRepresentation:
    """A matrix over an extension field representing a q-matroid on base_spec."""

    base_spec: VectorSpaceSpec
    ext: FieldSpec
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        matrix = tuple(tuple(json_int(v, "matrix entry") for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if self.ext.p != self.base_spec.field.p:
            raise SpecMismatch("representation field has the wrong characteristic")
        if self.ext.e % self.base_spec.field.e:
            raise SpecMismatch("representation field does not extend the base field")
        for row in matrix:
            if len(row) != self.base_spec.dim:
                raise SpecMismatch("matrix width must equal the ambient dimension")
            if any(not 0 <= v < self.ext.order for v in row):
                raise OutOfRange("matrix entries must be extension field codes")

    @cached_property
    def embedding(self) -> tuple[int, ...]:
        return subfield_embedding(self.base_spec.field, self.ext)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The n columns of G, each as a tuple of its k entries."""
        return tuple(zip(*self.matrix))

    def to_jsonable(self) -> dict:
        return {
            "base": self.base_spec.to_jsonable(),
            "ext": self.ext.to_jsonable(),
            "matrix": [self.ext.format_codes(row) for row in self.matrix],
        }

    @classmethod
    def from_jsonable(cls, base_spec: VectorSpaceSpec, block: dict) -> QRepresentation:
        """The representation a serialized block holds over base_spec; a
        matrix row of other than dim elements raises DimensionMismatch."""
        info = block["ext"]
        ext = field_make(
            json_int(info["p"], "p"), json_int(info["e"], "e"), modulus_from_string(info["modulus"])
        )
        rows = json_array(block["matrix"], "matrix")
        return cls(base_spec, ext, tuple(ext.parse_codes(row, base_spec.dim) for row in rows))


def _image(rep: QRepresentation, row: tuple[int, ...]) -> list[int]:
    """G v for a nonzero base vector v: the sum of emb(v_j) col_j over v_j != 0."""
    ext = rep.ext
    emb = rep.embedding
    image = None
    for v, col in zip(row, rep.columns):
        if not v:
            continue
        c = emb[v]
        if c != 1:
            col = [ext.mul_codes(c, g) if g else 0 for g in col]
        if image is None:
            image = list(col)
        else:
            image = [ext.add_codes(a, g) if g else a for a, g in zip(image, col)]
    return image


def _echelon(rep: QRepresentation, rows: tuple, echelons: dict) -> tuple:
    """Echelon form of the images of a nonempty RREF basis, as (pivot, row) pairs.

    Each row is 1 at its pivot and 0 at the pivots of the rows before
    it.  The form of rows[:-1] comes from the memo or by recursion; the
    last row's image is reduced against it and kept when nonzero.
    """
    form = echelons.get(rows)
    if form is not None:
        return form
    form = _echelon(rep, rows[:-1], echelons) if len(rows) > 1 else ()
    if len(form) < len(rep.matrix):
        ext = rep.ext
        image = _image(rep, rows[-1])
        for pivot, e in form:
            f = image[pivot]
            if f:
                image = [
                    ext.sub_codes(a, ext.mul_codes(f, b)) if b else a
                    for a, b in zip(image, e)
                ]
        pivot = next((c for c, a in enumerate(image) if a), None)
        if pivot is not None:
            f = image[pivot]
            if f != 1:
                inv = ext.inv_code(f)
                image = [ext.mul_codes(inv, a) if a else 0 for a in image]
            form = form + ((pivot, tuple(image)),)
    echelons[rows] = form
    return form


def represented_rank(
    rep: QRepresentation, x: Subspace, echelons: dict | None = None
) -> int:
    """Rank of G X^T over the extension field, X the canonical basis of x.

    The rank is the length of the echelon form of the images G v of
    x's basis rows, grown from the form of x's parent (its basis less
    the last row).  Pass one echelons dict to every call of a walk to
    share those forms; without one a fresh dict is used, with the same
    result.
    """
    if x.spec != rep.base_spec:
        raise SpecMismatch("subspace does not live on the representation's base space")
    if not rep.matrix or x.dim == 0:
        return 0
    return len(_echelon(rep, x.rows, {} if echelons is None else echelons))


def represent(rep: QRepresentation) -> QMatroid:
    """Materialize the represented q-matroid's full rank table."""
    lattice = get_lattice(rep.base_spec)
    echelons = {}
    ranks = [represented_rank(rep, s, echelons) for s in lattice.subspaces]
    return QMatroid(lattice, ranks, "represented")


def verify_representation(
    rep: QRepresentation, matroid: QMatroid
) -> tuple[bool, Subspace | None]:
    """Compare represented ranks with a matroid's table on every subspace.

    Returns (True, None) or (False, first disagreeing subspace) in
    enumeration order.  One memo of echelon forms serves the whole walk.
    """
    if matroid.spec != rep.base_spec:
        raise SpecMismatch("matroid and representation live on different spaces")
    echelons = {}
    for s, r in zip(matroid.lattice.subspaces, matroid.ranks):
        if represented_rank(rep, s, echelons) != r:
            return False, s
    return True, None


@dataclass(frozen=True)
class AlignedFamily:
    """A family of coordinate subspaces, given by 1-based column index sets."""

    spec: VectorSpaceSpec
    index_sets: tuple[frozenset, ...]

    def __post_init__(self):
        sets = tuple(frozenset(json_int(i, "index") for i in s) for s in self.index_sets)
        object.__setattr__(self, "index_sets", sets)
        for s in sets:
            if any(not 1 <= i <= self.spec.dim for i in s):
                raise OutOfRange("index sets must be subsets of {1..n}")

    def induced_family(self) -> SubspaceFamily:
        n = self.spec.dim
        members = []
        for s in self.index_sets:
            vectors = [
                tuple(1 if j == i - 1 else 0 for j in range(n)) for i in sorted(s)
            ]
            members.append(canonicalize(self.spec, vectors))
        return SubspaceFamily(self.spec, tuple(members))


def aligned_from_family(fam: SubspaceFamily) -> AlignedFamily | None:
    """Recover index sets when every member is a coordinate subspace."""
    sets = []
    for member in fam.members:
        idx = set()
        for row in member.rows:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            if len(nonzero) != 1 or nonzero[0][1] != 1:
                return None
            idx.add(nonzero[0][0] + 1)
        sets.append(frozenset(idx))
    return AlignedFamily(fam.spec, tuple(sets))


def build_aligned_representation(
    fam: AlignedFamily, *, minimize_degree: bool = False
) -> QRepresentation:
    """Construct and verify a representation of an aligned family.

    The guaranteed extension degree is n^k.  With minimize_degree the
    degrees 1, 2, ... are tried first and the first one whose
    verification passes is kept; smaller degrees may fail, which is
    expected and skipped, but a failure at n^k itself raises.
    """
    spec = fam.spec
    n = spec.dim
    k = len(fam.index_sets)
    base = spec.field
    target = presentation_matroid(fam.induced_family())
    guaranteed = n**k
    degrees = range(1, guaranteed + 1) if minimize_degree else (guaranteed,)
    for degree in degrees:
        ext = field_make(base.p, base.e * degree)
        # The class of x generates the whole extension over any subfield;
        # when the "extension" is the base field itself fall back to 1.
        alpha = ext.p if ext.e >= 2 else 1
        rows = []
        for i in range(k):
            row = []
            for j in range(1, n + 1):
                if j in fam.index_sets[i]:
                    row.append(0)
                else:
                    row.append(ext.pow_code(alpha, j * n**i))
            rows.append(tuple(row))
        rep = QRepresentation(spec, ext, tuple(rows))
        ok, bad = verify_representation(rep, target)
        if ok:
            return rep
        if degree == guaranteed:
            raise InvariantViolation(
                "aligned construction failed verification at the guaranteed degree",
                payload={
                    "index_sets": [sorted(s) for s in fam.index_sets],
                    "degree": degree,
                    "first_disagreement": bad.to_rows(),
                },
            )
    raise AssertionError("unreachable")


def find_representation(
    matroid: QMatroid,
    *,
    max_ext_degree: int,
    attempts_per_degree: int = 200,
    seed: int = 0,
) -> QRepresentation | None:
    """Randomized matrix search, reproducible from the seed.

    Tries degrees 1..max_ext_degree with rank-many rows; returns the
    first verified representation or None.  A None is inconclusive, the
    search is bounded.
    """
    base = matroid.spec.field
    n = matroid.spec.dim
    rows = matroid.space_rank
    rng = random.Random(seed)
    for degree in range(1, max_ext_degree + 1):
        ext = field_make(base.p, base.e * degree)
        for _ in range(attempts_per_degree):
            matrix = tuple(
                tuple(rng.randrange(ext.order) for _ in range(n)) for _ in range(rows)
            )
            rep = QRepresentation(matroid.spec, ext, matrix)
            ok, _ = verify_representation(rep, matroid)
            if ok:
                return rep
            if rows == 0:
                break  # the empty matrix either fits or never will
    return None
