"""Instance scanners for the three open conjectures.

Each scanner walks a deterministic stream of family multisets, each
once with its orderings' instance numbers (exhaustive in the fixed
enumeration order, or seeded-random), evaluates both sides of the
conjectured equivalence with the library's independent routes, and
emits machine-checkable counterexample certificates.  Reports are
deterministic: equal configurations produce identical reports, and
wall-clock time is kept out of the canonical serialization.  The
reverify_* replays decode a record with the decoders the CLI uses.

The q-Rado scan decides a (matroid, family) pair from four integers.
Each pool matroid is read once per call into indep (bit X set iff X is
independent) and viol (bit k*S + X set iff barnu(X) + k > barnu(V), S
subspaces); each family into tmask (bit T set iff T has dimension |fam|
and the fast test passes it) and jmask (bit |J_W|*S + W for every meet W
of the family, J_W its largest J).  The left side holds iff indep & tmask
!= 0, the right side iff viol & jmask == 0.  The pool's masks are
transposed once per dimension, one int per bit with bit i for pool
matroid i, so a family meets the whole pool in one OR per set bit of
tmask and of jmask.  Both sides are unchanged when the members are
reordered, so a family's masks and join are computed once per multiset
of members.  Only a pair whose sides mismatch is replayed, with each
ordered family of its multiset, through the witness route, which must
agree; so does reverify_q_rado.

Both the pool and viol are read from meet-level bitsets: L_X[d] has bit
A set iff dim(A meet X) <= d, read from X's meet row once per call and
dimension.  barnu(X) > t exactly when no basis B has X in L_B[t], so
viol is one OR over the bases per k.

The default matroid pool is the free matroid, every rank-1 matroid and
every union of two of them, compared by rank levels (bit A of level k
set iff r(A) >= k).  Every candidate's levels come in closed form, as
a few ANDs of the meet-level bitsets; their distinct keys size the pool
before the guard admits it, and decide which candidates are built and
checked against their keys.

Readings pinned here (also echoed in the report notes):

  * q-Rado is checked with J ranging over all index subsets including
    the empty one, where it is vacuous.
  * Minimal-presentation uniqueness compares presentations of the same
    matroid as unordered multisets of members, within one family size;
    presentations of different sizes are trivially distinct (any
    minimal presentation can be padded, e.g. (V) and (V, V) both
    present the rank-0 matroid minimally), so cross-size variety is
    reported as information, not as a counterexample.  The scan
    decides each multiset of members once: union is commutative, so
    every ordering presents the same matroid and has the same cyclic
    members; a multiset is recorded at its first ordering's instance.
  * A representation search that comes up empty is inconclusive, never
    a counterexample; the search is bounded.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter, ne

from .classical import _mask_to_indices
from .errors import InfeasibleScale, InvariantViolation, OutOfRange, SpecMismatch
from .fields import json_int, prime_power
from .qmatroids import QMatroid, free_matroid, rank_one, union
from .qtransversals import (
    is_minimal_presentation,
    is_partial_q_transversal,
    presentation_matroid,
)
from .representation import (
    aligned_from_family,
    build_aligned_representation,
    find_representation,
    verify_representation,
    QRepresentation,
)
from .subspaces import (
    SubspaceFamily,
    VectorSpaceSpec,
    _bits,
    _levels,
    _rank_key,
    family_from_rows,
    gaussian_binomial,
    get_lattice,
    refuse_beyond_vector_cap,
)

#: Largest number of instances an exhaustive scan will walk.
SCAN_INSTANCE_CAP = 200_000

# Binary digits _pool_join writes out at once: a block of pool rows.
_JOIN_BLOCK_CHARS = 1 << 20

UNIQUENESS_NOTE = (
    "minimal presentations are compared as unordered multisets of members, "
    "within one family size; padding makes cross-size variety trivial and it "
    "is reported separately"
)
INCONCLUSIVE_NOTE = (
    "a not-found status is inconclusive: the matrix search is bounded and "
    "says nothing about non-representability"
)


@dataclass(frozen=True)
class ScanConfig:
    """Bounds and mode for one scan; random mode needs an explicit seed."""

    q: int
    max_dim: int
    max_family: int
    mode: str = "exhaustive"
    seed: int | None = None
    count: int | None = None

    def __post_init__(self):
        for name in ("q", "max_dim", "max_family"):
            json_int(getattr(self, name), name)
        if self.seed is not None:
            json_int(self.seed, "seed")
        prime_power(self.q)
        if self.max_dim < 1:
            raise OutOfRange("max_dim must be at least 1")
        if self.max_family < 0:
            raise OutOfRange("max_family must be non-negative")
        if self.mode not in ("exhaustive", "random"):
            raise OutOfRange(f"unknown scan mode {self.mode!r}")
        if self.mode == "random" and (
            self.seed is None or type(self.count) is not int or self.count < 1
        ):
            raise OutOfRange("random mode requires an explicit seed and a positive count")

    def space(self, dim: int) -> VectorSpaceSpec:
        return VectorSpaceSpec.from_jsonable({"q": self.q, "dim": dim})

    def to_jsonable(self) -> dict:
        out = {
            "q": self.q,
            "max_dim": self.max_dim,
            "max_family": self.max_family,
            "mode": self.mode,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.mode == "random":
            out["count"] = self.count
        return out

    @classmethod
    def from_jsonable(cls, block) -> ScanConfig:
        """The config a CLI scan block or a report's "config" holds; other
        keys, such as "kind" or a stale "shards", are ignored."""
        return cls(
            q=block["q"],
            max_dim=block["max_dim"],
            max_family=block["max_family"],
            mode=block.get("mode", "exhaustive"),
            seed=block.get("seed"),
            count=block.get("count"),
        )


@dataclass
class ScanReport:
    """Outcome of a scan; serialization is deterministic by default."""

    kind: str
    config: dict
    instances_checked: int
    counterexamples: list
    details: dict = field(default_factory=dict)
    notes: tuple = ()
    elapsed_seconds: float = 0.0

    def to_jsonable(self, include_timing: bool = False) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "details": self.details,
            "notes": list(self.notes),
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def _subspace_count(cfg: ScanConfig, dim: int) -> int:
    """S, the subspaces of GF(q)^dim; a space beyond VECTOR_CAP, whose
    lattice the scan could not build, is refused before they are counted."""
    refuse_beyond_vector_cap(cfg.q, dim)
    return sum(gaussian_binomial(dim, k, cfg.q) for k in range(dim + 1))


def _families_per_dim(
    cfg: ScanConfig, draws: dict | None, cap, *, multisets: bool = False, unit: int = 1
) -> dict[int, int]:
    """Families the stream yields at each dimension it visits, exactly, or
    with multisets their distinct multisets of members: S^k families or
    C(S + k - 1, k) multisets of k members (S subspaces), or a random
    stream's draws or groups.  Each is charged unit instances, and the
    count is refused as soon as that charge passes cap, so neither a huge
    max_dim nor a huge max_family is summed out first."""
    if cfg.mode == "random":
        counts = Counter()
        for (dim, _), group in draws.items():
            counts[dim] += 1 if multisets else len(group)
        _refuse_beyond(cap, sum(counts.values()) * unit)
        return counts
    counts, charged = {}, 0
    for dim in range(1, cfg.max_dim + 1):
        size = _subspace_count(cfg, dim)
        counts[dim] = 0
        for k in range(cfg.max_family + 1):
            n = math.comb(size + k - 1, k) if multisets else size**k
            counts[dim] += n
            charged += n * unit
            if charged > cap:
                raise InfeasibleScale(
                    f"scan would walk at least {charged} instances, beyond the cap {cap}"
                )
    return counts


def _refuse_beyond(cap: int, total: int) -> None:
    if total > cap:
        raise InfeasibleScale(
            f"scan would walk about {total} instances, beyond the cap {cap}"
        )


def _random_draws(cfg: ScanConfig):
    """A random stream's (dimension, member indices) draws in order;
    indices count subspaces in lattice order, counted for a dimension
    when it is first drawn."""
    rng = random.Random(cfg.seed)
    sizes = {}
    for _ in range(cfg.count):
        dim = rng.randint(1, cfg.max_dim)
        size = rng.randint(0, cfg.max_family)
        subspaces = sizes.get(dim) or sizes.setdefault(dim, _subspace_count(cfg, dim))
        yield dim, tuple(rng.randrange(subspaces) for _ in range(size))


def _grouped_draws(cfg: ScanConfig, cap: int) -> dict | None:
    """A random stream's (draw number, members), grouped by (dimension,
    sorted members) in order of first visit; None for an exhaustive one.
    Every scan walks each draw, so more than cap draws are refused first."""
    if cfg.mode != "random":
        return None
    _refuse_beyond(cap, cfg.count)
    draws: dict[tuple, list] = {}
    for i, (dim, members) in enumerate(_random_draws(cfg)):
        draws.setdefault((dim, tuple(sorted(members))), []).append((i, members))
    return draws


def _multiset_stream(cfg: ScanConfig, draws: dict | None, weights: dict[int, int] | None = None):
    """(lattice, multiset, orderings) per sorted multiset of member indices,
    in order of first visit; orderings yields each visited ordered family's
    (instance, members), ascending, a family of dimension d counting
    weights[d] instances (1 without).  Exhaustively an instance is the
    members' base-S value plus the families before its dimension and size
    (S subspaces), times the weight; a random draw's, the draws' weight before it."""
    weight = (weights or {}).get
    start = 0
    if cfg.mode == "exhaustive":
        for dim in range(1, cfg.max_dim + 1):
            lattice = get_lattice(cfg.space(dim))
            size, w = len(lattice), weight(dim, 1)
            for k in range(cfg.max_family + 1):
                for multiset in itertools.combinations_with_replacement(range(size), k):
                    yield lattice, multiset, _orderings(multiset, size, start, w)
                start += size**k * w
    else:
        starts = array("q", [0]) * (cfg.count + 1)
        for (dim, _), group in draws.items():
            for i, _ in group:
                starts[i + 1] = weight(dim, 1)
        starts = array("q", itertools.accumulate(starts))
        for (dim, multiset), group in draws.items():
            yield get_lattice(cfg.space(dim)), multiset, ((starts[i], m) for i, m in group)


def _orderings(multiset: tuple[int, ...], base: int, start: int, weight: int):
    """(start + weight * value, members) for each distinct ordering of the
    sorted multiset, ascending; value reads the members as base digits."""
    if not multiset:
        yield start, ()
    for m in dict.fromkeys(multiset):
        i = multiset.index(m)
        rest = multiset[:i] + multiset[i + 1 :]
        offset = m * weight * base ** len(rest)
        for instance, members in _orderings(rest, base, start + offset, weight):
            yield instance, (m, *members)


def _family(lattice, members: tuple[int, ...]) -> SubspaceFamily:
    return SubspaceFamily(lattice.spec, tuple(lattice.subspaces[i] for i in members))


def _pool_keys(lattice):
    """(build, members, key) for every candidate of the default pool, in
    its order, key its _rank_key and members the lattice indices of the
    family it presents: the free matroid ("free", dim V zero subspaces),
    rank_one(X_i) ("rank_one", (i,)), and then the union of rank_one(X_i)
    and rank_one(X_j) ("union", (i, j)) for every pair i <= j.  With
    c_X(A) = dim A - dim(A meet X), the free matroid's levels are dim's,
    rank_one(X)'s one level is c_X(A) >= 1 (none when X = V), and a pair's
    table is the closed form

        r(A) = min(2, 1 + c_i(A), 1 + c_j(A), c_(X_i meet X_j)(A)),

    the presentation formula of qtransversals at n = 2 (J = empty, {i},
    {j}, {i, j}).  With m the meet of X_i and X_j, level 1 is c_m(A) >= 1
    (A not below m), and level 2 is c_i(A) >= 1, c_j(A) >= 1 and
    c_m(A) >= 2.  The set of A with c_X(A) >= t is the union over d of
    the dimension-d subspaces in lattice.meet_levels[X][d - t]
    (Lattice.codim_levels)."""
    size = len(lattice)
    c1, c2 = lattice.codim_levels(1), lattice.codim_levels(2)
    yield "free", (0,) * lattice.spec.dim, _rank_key(lattice.dims)
    for i in range(size):
        yield "rank_one", (i,), (c1[i],) if c1[i] else ()
    # Union is commutative: (j, i) repeats (i, j), which came earlier.
    for i in range(size):
        meets = lattice.meet_row(i)
        c1_i = c1[i]
        for j in range(i, size):
            m = meets[j]
            two = c1_i & c1[j] & c2[m]
            yield "union", (i, j), (c1[m], two) if two else (c1[m],) if c1[m] else ()


def default_matroid_source(lattice) -> list[QMatroid]:
    """Free matroid, every rank-1 matroid, and every union of two rank-1
    matroids, deduplicated by rank table in enumeration order.

    Tables are compared by their keys from _pool_keys; only a new table
    is built, and its _rank_key must equal the key, else
    InvariantViolation with the candidate's family as a build-matroid
    instance."""
    out, seen, singles = [], set(), []
    for build, members, key in _pool_keys(lattice):
        if build == "rank_one":
            singles.append(rank_one(lattice.subspaces[members[0]]))
        if key in seen:
            continue
        seen.add(key)
        if build == "free":
            m = free_matroid(lattice.spec)
        elif build == "rank_one":
            m = singles[-1]
        else:
            m = union([singles[i] for i in members])
        if _rank_key(m.ranks) != key:
            raise InvariantViolation(
                f"closed-form rank levels and the {build} route disagree",
                payload={
                    **lattice.spec.to_jsonable(),
                    "family": [lattice.subspaces[i].to_rows() for i in members],
                },
            )
        out.append(m)
    return out


def _q_rado_sides(matroid: QMatroid, fam: SubspaceFamily):
    """Evaluate both sides of the q-Rado equivalence with witnesses.

    The left side is the first independent T of dimension |fam| (lattice
    order) that is a partial q-transversal; the right side's witness is
    the mask of J_W for the first meet W of fam.meet_closure with
    barnu(W) + |J_W| > barnu(V).  Some J violates exactly when some W
    does, since |J| <= |J_W| for W = X(J) and the test grows with |J|.
    The scan calls this only for a pair whose mask verdicts mismatch; it
    is the oracle for those verdicts.
    """
    lattice = matroid.lattice
    n = len(fam)
    ranks = matroid.ranks
    lhs_witness = None
    for ti in lattice.by_dim.get(n, ()):
        if ranks[ti] != n:  # T has dimension n, so independent means rank n
            continue
        t = lattice.subspaces[ti]
        if is_partial_q_transversal(t, fam, with_witness=False).verdict:
            lhs_witness = t
            break
    barn_v = matroid.bar_nullity_idx(lattice.top_index)
    barn = matroid.bar_nullity_table()
    rhs_witness = None
    for w, j in fam.meet_closure:
        if barn[w] + j.bit_count() > barn_v:
            rhs_witness = j
            break
    return lhs_witness, rhs_witness


def _matroid_masks(matroid: QMatroid, max_family: int) -> tuple[int, int]:
    """The matroid's half of every q-Rado pair with at most max_family
    members: (indep, viol), where bit i of indep is set iff subspace i is
    independent, and bit k*S + x of viol (S subspaces) iff
    barnu(x) + k > barnu(V), for k = 0..max_family.

    barnu(X) > t exactly when no basis B meets X in t or fewer
    dimensions, so viol's block k is the complement of the union of
    L_B[barnu(V) - k] over the bases (lattice.meet_levels), and all of it
    when barnu(V) < k."""
    lattice = matroid.lattice
    levels = lattice.meet_levels
    size = len(lattice)
    full = (1 << size) - 1
    # r(X) != dim X is False, 0, exactly at the independent subspaces.
    indep = _levels(bytes(map(ne, matroid.ranks, lattice.dims)), 0)[0]
    bases = matroid.bases_idx()
    barn_v = matroid.bar_nullity_idx(lattice.top_index)
    viol = 0
    for k in range(max_family, -1, -1):
        met = 0
        if k <= barn_v:
            for b in bases:
                met |= levels[b][barn_v - k]
        viol = viol << size | full ^ met
    return indep, viol


def _family_masks(fam: SubspaceFamily) -> tuple[int, int]:
    """The family's half of every q-Rado pair: (tmask, jmask), where bit
    i of tmask is set iff subspace i has dimension |fam| and is a partial
    q-transversal of fam, and jmask has bit |J_W|*S + W for every meet W
    of fam.meet_closure.  viol's bits at a subspace grow with k, so the
    largest J per meet decides every J that meets to it."""
    lattice = fam.lattice
    subspaces = lattice.subspaces
    size = len(lattice)
    tmask = 0
    for ti in lattice.by_dim.get(len(fam), ()):
        if is_partial_q_transversal(subspaces[ti], fam, with_witness=False).verdict:
            tmask |= 1 << ti
    jmask = 0
    for w, j in fam.meet_closure:
        jmask |= 1 << (j.bit_count() * size + w)
    return tmask, jmask


def _pool_join(pool_masks, size: int, max_family: int) -> tuple[int, list[int], list[int]]:
    """The pool's masks transposed for _q_rado_mismatches: (every, tcols,
    jcols), where every has one bit per pool matroid, bit i of tcols[T]
    is set iff T is independent in pool matroid i, and bit i of jcols[b]
    iff bit b of matroid i's viol, for b < (max_family + 1)*S (S = size
    subspaces).  pool_masks is read once, in blocks of rows: each row
    indep | viol << S is written as binary text, last row first, and
    column b of the block is every row's character at its bit b.  About
    _JOIN_BLOCK_CHARS characters are held at once, never one per
    (matroid, bit)."""
    width = (max_family + 2) * size
    cols = [0] * width
    step = max(1, _JOIN_BLOCK_CHARS // width)
    rows = iter(pool_masks)
    start = 0
    while block := list(itertools.islice(rows, step)):
        text = "".join(format(indep | viol << size, f"0{width}b") for indep, viol in reversed(block))
        for b in range(width):
            cols[b] |= int(text[width - 1 - b :: width], 2) << start
        start += len(block)
    return (1 << start) - 1, cols[:size], cols[size:]


def _q_rado_mismatches(join, family_masks) -> list[tuple[int, bool]]:
    """(position, lhs) of every pool matroid whose pair with the family
    has mismatching sides, ascending, from the pool's _pool_join: lhs
    (some independent T of dimension |fam| is a partial q-transversal)
    holds for the matroids in the OR of tcols over tmask's bits, and rhs
    (no J has barnu(X(J)) + |J| > barnu(V)) fails for those in the OR of
    jcols over jmask's bits; the sides mismatch where both or neither
    hold, the complement of the XOR."""
    every, tcols, jcols = join
    tmask, jmask = family_masks
    lhs = 0
    for t in _bits(tmask):
        lhs |= tcols[t]
    violated = 0
    for b in _bits(jmask):
        violated |= jcols[b]
    return [(i, lhs >> i & 1 == 1) for i in _bits(every & ~(lhs ^ violated))]


def _default_pool_build(cfg: ScanConfig, dim: int) -> int:
    """Candidate tables default_matroid_source computes before
    deduplicating: the free one, S rank-1 ones and S(S+1)/2 closed-form
    pair tables (S subspaces); union then runs on the kept pairs alone."""
    s = _subspace_count(cfg, dim)
    return 1 + s + s * (s + 1) // 2


def _q_rado_pools(cfg: ScanConfig, draws, matroid_source, cap: int) -> tuple[dict[int, list], int]:
    """The pool of every dimension the stream visits and the (matroid,
    family) pairs the scan walks, guarded on those pairs plus, for the
    default source, the candidate tables its build computes.  A pool
    matroid off its dimension's space raises SpecMismatch.

    A default pool is charged before it is built: its candidate tables,
    one instance each, before a key is read (GF(2)^6 has some 4M), then
    the pairs, from the distinct keys of _pool_keys.  GF(2)^5's 30,973
    matroids are counted in 0.1 s and built in about 26 s (2-vCPU Xeon
    VM).  A custom source is charged its pairs once it is built.  The
    families are counted first, and refused as soon as they alone pass cap.
    """
    families = _families_per_dim(cfg, draws, cap)
    built = 0
    if matroid_source is None:
        built = sum(_default_pool_build(cfg, dim) for dim in families)
        _refuse_beyond(cap, built)
        pairs = sum(
            families[dim] * len({key for *_, key in _pool_keys(get_lattice(cfg.space(dim)))})
            for dim in families
        )
        _refuse_beyond(cap, built + pairs)
    source = matroid_source or default_matroid_source
    pools = {}
    for dim in sorted(families):
        spec = cfg.space(dim)
        pools[dim] = list(source(get_lattice(spec)))
        for i, m in enumerate(pools[dim]):
            if m.lattice.spec != spec:
                raise SpecMismatch(
                    f"pool matroid {i} of dimension {dim} lives on {m.lattice.spec!r}, "
                    f"not on {spec!r}"
                )
    pairs = sum(families[dim] * len(pools[dim]) for dim in pools)
    _refuse_beyond(cap, built + pairs)
    return pools, pairs


def scan_q_rado(
    cfg: ScanConfig, matroid_source=None, *, instance_cap: int = SCAN_INSTANCE_CAP
) -> ScanReport:
    """Scan (matroid, family) pairs for q-Rado mismatches.

    Each pool matroid's (indep, viol) is built once per call and the pool
    transposed by _pool_join once per dimension; a family's (tmask,
    jmask) is joined to it by _q_rado_mismatches.  Both sides of q-Rado
    are unchanged when the members are reordered, so the masks and the
    join run once per multiset of members.  Each pair of a mismatching
    multiset's ordered families is replayed through _q_rado_sides, which
    names its witnesses and must agree; records are sorted by instance.
    """
    start = time.monotonic()
    draws = _grouped_draws(cfg, instance_cap)
    pools, pairs = _q_rado_pools(cfg, draws, matroid_source, instance_cap)
    joins = {}
    for dim, pool in pools.items():
        masks = (_matroid_masks(m, cfg.max_family) for m in pool)
        joins[dim] = _pool_join(masks, _subspace_count(cfg, dim), cfg.max_family)
    counterexamples = []
    weights = {dim: len(pool) for dim, pool in pools.items()}
    for lattice, multiset, orderings in _multiset_stream(cfg, draws, weights):
        dim = lattice.spec.dim
        mismatches = _q_rado_mismatches(joins[dim], _family_masks(_family(lattice, multiset)))
        if not mismatches:
            continue
        for instance, members in orderings:
            fam = _family(lattice, members)
            for i, lhs in mismatches:
                matroid = pools[dim][i]
                rhs = not lhs
                lhs_t, rhs_j = _q_rado_sides(matroid, fam)
                if (lhs_t is not None, rhs_j is None) != (lhs, rhs):
                    raise InvariantViolation(
                        "q-Rado mask verdicts and witness route disagree",
                        payload={"family": fam.to_rows(), "matroid": matroid.to_jsonable()},
                    )
                record = {
                    "instance_index": instance + i,
                    "q": cfg.q,
                    "dim": dim,
                    "family": fam.to_rows(),
                    "matroid": matroid.to_jsonable(),
                    "lhs_has_independent_transversal": lhs,
                    "rhs_condition_holds": rhs,
                }
                if lhs_t is not None:
                    record["lhs_witness_T"] = lhs_t.to_rows()
                if rhs_j is not None:
                    record["rhs_witness_J"] = list(_mask_to_indices(rhs_j))
                counterexamples.append(record)
    counterexamples.sort(key=itemgetter("instance_index"))
    return ScanReport(
        kind="q-rado",
        config=cfg.to_jsonable(),
        instances_checked=pairs,
        counterexamples=counterexamples,
        details={"matroids_per_dim": {str(d): len(pool) for d, pool in pools.items()}},
        notes=("J ranges over all index subsets including the empty one",),
        elapsed_seconds=time.monotonic() - start,
    )


def reverify_q_rado(record: dict) -> bool:
    """Recompute both sides of a q-Rado counterexample from its
    serialization, by the masks and by the witness route; true only if
    both routes give the recorded, mismatching sides."""
    spec = VectorSpaceSpec.from_jsonable(record)
    fam = family_from_rows(spec, record["family"])
    matroid = QMatroid.from_jsonable(fam.lattice, record["matroid"])
    lhs_t, rhs_j = _q_rado_sides(matroid, fam)
    sides = (lhs_t is not None, rhs_j is None)
    join = _pool_join([_matroid_masks(matroid, len(fam))], len(fam.lattice), len(fam))
    masks = [(lhs, not lhs) for _, lhs in _q_rado_mismatches(join, _family_masks(fam))]
    recorded = (record["lhs_has_independent_transversal"], record["rhs_condition_holds"])
    return masks == [sides] == [recorded]


def _uniqueness_ranks(fam: SubspaceFamily) -> tuple | None:
    """None if fam is not a minimal presentation, else its presentation
    matroid's rank table."""
    matroid = presentation_matroid(fam)
    if not is_minimal_presentation(fam, matroid=matroid).minimal:
        return None
    return matroid.ranks


def scan_minimal_uniqueness(
    cfg: ScanConfig, *, instance_cap: int = SCAN_INSTANCE_CAP
) -> ScanReport:
    """Group family multisets by presentation matroid, each decided once
    and kept at its first ordering's instance, and look for two distinct
    minimal presentations of the same size.  The guard charges the
    multisets it decides; instances_checked counts the ordered families."""
    draws = _grouped_draws(cfg, instance_cap)
    _families_per_dim(cfg, draws, instance_cap, multisets=True)
    families = sum(_families_per_dim(cfg, draws, math.inf).values())
    start = time.monotonic()
    groups: dict[tuple, dict] = {}
    cross_size: dict[tuple, set] = {}
    # Multisets come in order of first visit, so groups keep ascending instances.
    for lattice, multiset, orderings in _multiset_stream(cfg, draws):
        ranks = _uniqueness_ranks(_family(lattice, multiset))
        if ranks is None:
            continue
        dim = lattice.spec.dim
        groups.setdefault((dim, ranks, len(multiset)), {})[multiset] = next(orderings)[0]
        cross_size.setdefault((dim, ranks), set()).add(len(multiset))
    counterexamples = []
    for (dim, ranks, size), entry in groups.items():
        if len(entry) > 1:
            subspaces = get_lattice(cfg.space(dim)).subspaces
            counterexamples.append(
                {
                    "instance_index": next(iter(entry.values())),
                    "q": cfg.q,
                    "dim": dim,
                    "family_size": size,
                    "presentations": [
                        {
                            "members": sorted(subspaces[m].to_rows() for m in multiset),
                            "instance_index": i,
                        }
                        for multiset, i in entry.items()
                    ],
                }
            )
    multi_size = sum(1 for sizes in cross_size.values() if len(sizes) > 1)
    return ScanReport(
        kind="minimal-uniqueness",
        config=cfg.to_jsonable(),
        instances_checked=families,
        counterexamples=counterexamples,
        details={
            "matroid_groups": len(cross_size),
            "minimal_presentations_found": sum(len(e) for e in groups.values()),
            "matroids_with_minimal_presentations_at_several_sizes": multi_size,
        },
        notes=(UNIQUENESS_NOTE,),
        elapsed_seconds=time.monotonic() - start,
    )


def reverify_minimal_uniqueness(record: dict) -> bool:
    """At least two presentations, each of family_size members, must be
    minimal, present the same matroid, and differ as multisets."""
    spec = VectorSpaceSpec.from_jsonable(record)
    fams = [family_from_rows(spec, entry["members"]) for entry in record["presentations"]]
    if len(fams) < 2 or any(len(f) != record["family_size"] for f in fams):
        return False
    if len({presentation_matroid(f).ranks for f in fams}) != 1:
        return False
    multisets = {tuple(sorted(tuple(m.to_rows()) for m in f.members)) for f in fams}
    return len(multisets) == len(fams) and all(is_minimal_presentation(f).minimal for f in fams)


def scan_representability(
    cfg: ScanConfig,
    max_ext_degree: int,
    attempts_per_degree: int = 200,
    *,
    instance_cap: int = SCAN_INSTANCE_CAP,
) -> ScanReport:
    """Search for a representation of every presentation matroid in range.

    Aligned families use the guaranteed construction; the rest get a
    seeded random matrix search over extensions of degree up to
    max_ext_degree.
    """
    if max_ext_degree < 1:
        raise OutOfRange("max_ext_degree must be at least 1")
    if attempts_per_degree < 1:
        raise OutOfRange("attempts_per_degree must be at least 1")
    draws = _grouped_draws(cfg, instance_cap)
    families = sum(_families_per_dim(cfg, draws, instance_cap, unit=attempts_per_degree).values())
    start = time.monotonic()
    instances = []
    seed_base = cfg.seed if cfg.seed is not None else 0
    for idx, lattice, members in sorted(
        (idx, lattice, members)
        for lattice, _, orderings in _multiset_stream(cfg, draws)
        for idx, members in orderings
    ):
        fam = _family(lattice, members)
        aligned = aligned_from_family(fam)
        entry = {
            "instance_index": idx,
            "q": cfg.q,
            "dim": fam.spec.dim,
            "family": fam.to_rows(),
            "aligned": aligned is not None,
        }
        rep: QRepresentation | None
        if aligned is not None:
            rep = build_aligned_representation(aligned)
            entry["method"] = "aligned-construction"
        else:
            rep = find_representation(
                presentation_matroid(fam),
                max_ext_degree=max_ext_degree,
                attempts_per_degree=attempts_per_degree,
                seed=seed_base * 1_000_003 + idx,
            )
            entry["method"] = "random-search"
        if rep is None:
            entry["status"] = "not-found"
        else:
            entry["status"] = "found"
            entry["representation"] = rep.to_jsonable()
            entry["ext_degree_over_base"] = rep.ext.e // fam.spec.field.e
        instances.append(entry)
    found = sum(1 for r in instances if r["status"] == "found")
    return ScanReport(
        kind="representability",
        config={
            **cfg.to_jsonable(),
            "max_ext_degree": max_ext_degree,
            "attempts_per_degree": attempts_per_degree,
        },
        instances_checked=families,
        counterexamples=[],
        details={
            "found": found,
            "not_found": [r for r in instances if r["status"] == "not-found"],
            "instances": instances,
        },
        notes=(INCONCLUSIVE_NOTE,),
        elapsed_seconds=time.monotonic() - start,
    )


def reverify_representation_entry(entry: dict) -> bool:
    """Replay a found-representation entry: the matrix must verify against
    the presentation matroid of the recorded family."""
    if entry["status"] != "found":
        return True
    spec = VectorSpaceSpec.from_jsonable(entry)
    fam = family_from_rows(spec, entry["family"])
    rep = QRepresentation.from_jsonable(spec, entry["representation"])
    ok, _ = verify_representation(rep, presentation_matroid(fam))
    return ok



#: Every scan kind: (scan, replay of one record it emits, the integer
#: parameters the scan takes beyond its ScanConfig).  The functions are
#: named, and read from this module when called, so that one rebound here
#: by a test or a tracer is the one run.
SCAN_KINDS = {
    "q-rado": ("scan_q_rado", "reverify_q_rado", ()),
    "minimal-uniqueness": ("scan_minimal_uniqueness", "reverify_minimal_uniqueness", ()),
    "representability": (
        "scan_representability",
        "reverify_representation_entry",
        ("max_ext_degree", "attempts_per_degree"),
    ),
}
