"""Instance scanners for the three open conjectures.

Each scanner walks a deterministic instance stream (exhaustive in the
fixed enumeration order, or seeded-random), evaluates both sides of the
conjectured equivalence with the library's independent routes, and
emits machine-checkable counterexample certificates.  Reports are
deterministic: equal configurations produce identical reports, shards
merge to the unsharded result, and wall-clock time is kept out of the
canonical serialization.

Readings pinned here (also echoed in the report notes):

  * q-Rado is checked with J ranging over all index subsets including
    the empty one, where it is vacuous.
  * Minimal-presentation uniqueness compares presentations of the same
    matroid as unordered multisets of members, within one family size;
    presentations of different sizes are trivially distinct (any
    minimal presentation can be padded, e.g. (V) and (V, V) both
    present the rank-0 matroid minimally), so cross-size variety is
    reported as information, not as a counterexample.
  * A representation search that comes up empty is inconclusive, never
    a counterexample; the search is bounded.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .errors import InfeasibleScale, OutOfRange
from .fields import field_make, modulus_from_string, prime_power
from .qmatroids import QMatroid, free_matroid, matroid_from_table, rank_one, union
from .qtransversals import (
    _meets_by_mask,
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
    family_from_rows,
    gaussian_binomial,
    get_lattice,
)

#: Largest number of instances an exhaustive scan will walk.
SCAN_INSTANCE_CAP = 200_000

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
    shards: int = 1

    def __post_init__(self):
        prime_power(self.q)
        if self.max_dim < 1:
            raise OutOfRange("max_dim must be at least 1")
        if self.max_family < 0:
            raise OutOfRange("max_family must be non-negative")
        if self.mode not in ("exhaustive", "random"):
            raise OutOfRange(f"unknown scan mode {self.mode!r}")
        if self.mode == "random" and (self.seed is None or not self.count):
            raise OutOfRange("random mode requires an explicit seed and count")
        if self.shards < 1:
            raise OutOfRange("shards must be at least 1")

    def space(self, dim: int) -> VectorSpaceSpec:
        p, e = prime_power(self.q)
        return VectorSpaceSpec(field_make(p, e), dim)

    def to_jsonable(self) -> dict:
        out = {
            "q": self.q,
            "max_dim": self.max_dim,
            "max_family": self.max_family,
            "mode": self.mode,
            "shards": self.shards,
        }
        if self.mode == "random":
            out["seed"] = self.seed
            out["count"] = self.count
        return out


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


def _family_count(cfg: ScanConfig) -> int:
    """Exact number of instances the family stream will yield."""
    if cfg.mode == "random":
        return cfg.count
    total = 0
    for dim in range(1, cfg.max_dim + 1):
        size = sum(gaussian_binomial(dim, k, cfg.q) for k in range(dim + 1))
        total += sum(size**s for s in range(cfg.max_family + 1))
    return total


def _guard_scale(cfg: ScanConfig, weight_per_family: int, cap: int) -> None:
    total = _family_count(cfg) * max(1, weight_per_family)
    if total > cap:
        raise InfeasibleScale(
            f"scan would walk about {total} instances, beyond the cap {cap}"
        )


def _family_stream(cfg: ScanConfig):
    """Deterministic (index, family) pairs covering the configured ranges."""
    idx = 0
    if cfg.mode == "exhaustive":
        for dim in range(1, cfg.max_dim + 1):
            lattice = get_lattice(cfg.space(dim))
            for size in range(cfg.max_family + 1):
                for members in itertools.product(lattice.subspaces, repeat=size):
                    yield idx, SubspaceFamily(lattice.spec, members)
                    idx += 1
    else:
        rng = random.Random(cfg.seed)
        lattices = {
            dim: get_lattice(cfg.space(dim)) for dim in range(1, cfg.max_dim + 1)
        }
        for _ in range(cfg.count):
            lattice = lattices[rng.randint(1, cfg.max_dim)]
            size = rng.randint(0, cfg.max_family)
            members = tuple(
                lattice.subspaces[rng.randrange(len(lattice.subspaces))]
                for _ in range(size)
            )
            yield idx, SubspaceFamily(lattice.spec, members)
            idx += 1


def default_matroid_source(lattice) -> list[QMatroid]:
    """Free matroid, every rank-1 matroid, and every union of two rank-1
    matroids, deduplicated by rank table in enumeration order."""
    out = []
    seen = set()

    def push(m):
        if m.ranks not in seen:
            seen.add(m.ranks)
            out.append(m)

    push(free_matroid(lattice.spec))
    singles = [rank_one(s) for s in lattice.subspaces]
    for m in singles:
        push(m)
    # Union is commutative: (b, a) repeats (a, b), which came earlier.
    for i, a in enumerate(singles):
        for b in singles[i:]:
            push(union([a, b]))
    return out


def _q_rado_sides(matroid: QMatroid, fam: SubspaceFamily):
    """Evaluate both sides of the q-Rado equivalence with witnesses."""
    lattice = matroid.lattice
    n = len(fam)
    lhs_witness = None
    for ti in lattice.by_dim.get(n, ()):
        t = lattice.subspaces[ti]
        if not matroid.independent_idx(ti):
            continue
        if is_partial_q_transversal(t, fam, with_witness=False).verdict:
            lhs_witness = t
            break
    meets = _meets_by_mask(lattice, [lattice.idx(m) for m in fam.members])
    barn_v = matroid.bar_nullity_idx(lattice.top_index)
    rhs_witness = None
    for mask, xj in enumerate(meets):
        if matroid.bar_nullity_idx(xj) + mask.bit_count() > barn_v:
            rhs_witness = mask
            break
    return lhs_witness, rhs_witness


def scan_q_rado(
    cfg: ScanConfig, matroid_source=None, *, instance_cap: int = SCAN_INSTANCE_CAP
) -> ScanReport:
    """Scan (matroid, family) pairs for q-Rado mismatches."""
    source = matroid_source or default_matroid_source
    # The default pool is bounded by 1 + S + S^2 matroids per dimension.
    pool_bound = max(
        1 + s + s * s
        for s in (
            sum(gaussian_binomial(d, k, cfg.q) for k in range(d + 1))
            for d in range(1, cfg.max_dim + 1)
        )
    )
    _guard_scale(cfg, pool_bound if matroid_source is None else 1, instance_cap)
    start = time.monotonic()
    counterexamples = []
    checked = 0
    matroids_by_dim: dict[int, list[QMatroid]] = {}
    for shard in range(cfg.shards):
        pair_idx = 0
        for _, fam in _family_stream(cfg):
            dim = fam.spec.dim
            if dim not in matroids_by_dim:
                matroids_by_dim[dim] = list(source(get_lattice(fam.spec)))
            for matroid in matroids_by_dim[dim]:
                this = pair_idx
                pair_idx += 1
                if this % cfg.shards != shard:
                    continue
                checked += 1
                lhs_t, rhs_j = _q_rado_sides(matroid, fam)
                lhs = lhs_t is not None
                rhs = rhs_j is None
                if lhs != rhs:
                    record = {
                        "instance_index": this,
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
                        record["rhs_witness_J"] = [
                            i + 1 for i in range(len(fam)) if rhs_j >> i & 1
                        ]
                    counterexamples.append(record)
    counterexamples.sort(key=lambda r: r["instance_index"])
    return ScanReport(
        kind="q-rado",
        config=cfg.to_jsonable(),
        instances_checked=checked,
        counterexamples=counterexamples,
        details={"matroids_per_dim": {str(d): len(v) for d, v in sorted(matroids_by_dim.items())}},
        notes=("J ranges over all index subsets including the empty one",),
        elapsed_seconds=time.monotonic() - start,
    )


def reverify_q_rado(record: dict) -> bool:
    """Recompute both sides of a q-Rado counterexample from its serialization."""
    p, e = prime_power(record["q"])
    spec = VectorSpaceSpec(field_make(p, e), record["dim"])
    fam = family_from_rows(spec, record["family"])
    lattice = get_lattice(spec)
    table = {
        tuple(entry["subspace"]): entry["rank"]
        for entry in record["matroid"]["rank_table"]
    }
    ranks = [table[tuple(s.to_rows())] for s in lattice.subspaces]
    matroid = matroid_from_table(lattice, ranks, record["matroid"]["provenance"])
    lhs_t, rhs_j = _q_rado_sides(matroid, fam)
    lhs = lhs_t is not None
    rhs = rhs_j is None
    return (
        lhs == record["lhs_has_independent_transversal"]
        and rhs == record["rhs_condition_holds"]
        and lhs != rhs
    )


def scan_minimal_uniqueness(
    cfg: ScanConfig, *, instance_cap: int = SCAN_INSTANCE_CAP
) -> ScanReport:
    """Group families by presentation matroid and look for two distinct
    minimal presentations of the same size."""
    _guard_scale(cfg, 1, instance_cap)
    start = time.monotonic()
    checked = 0
    groups: dict[tuple, dict] = {}
    cross_size: dict[tuple, set] = {}
    for shard in range(cfg.shards):
        for idx, fam in _family_stream(cfg):
            if idx % cfg.shards != shard:
                continue
            checked += 1
            if not is_minimal_presentation(fam).minimal:
                continue
            matroid = presentation_matroid(fam)
            multiset = tuple(sorted(tuple(m.to_rows()) for m in fam.members))
            key = (fam.spec.dim, matroid.ranks, len(fam))
            entry = groups.setdefault(key, {})
            prev = entry.get(multiset)
            if prev is None or idx < prev:
                entry[multiset] = idx
            cross_size.setdefault((fam.spec.dim, matroid.ranks), set()).add(len(fam))
    counterexamples = []
    for (dim, ranks, size), entry in sorted(
        groups.items(), key=lambda kv: min(kv[1].values())
    ):
        if len(entry) > 1:
            presentations = sorted(entry.items(), key=lambda kv: kv[1])
            counterexamples.append(
                {
                    "instance_index": presentations[0][1],
                    "q": cfg.q,
                    "dim": dim,
                    "family_size": size,
                    "presentations": [
                        {"members": [list(rows) for rows in multiset], "instance_index": i}
                        for multiset, i in presentations
                    ],
                }
            )
    multi_size = sum(1 for sizes in cross_size.values() if len(sizes) > 1)
    return ScanReport(
        kind="minimal-uniqueness",
        config=cfg.to_jsonable(),
        instances_checked=checked,
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
    """Both presentations must be minimal, present the same matroid, and
    differ as multisets."""
    p, e = prime_power(record["q"])
    spec = VectorSpaceSpec(field_make(p, e), record["dim"])
    fams = [
        family_from_rows(spec, entry["members"])
        for entry in record["presentations"]
    ]
    tables = {presentation_matroid(f).ranks for f in fams}
    if len(tables) != 1:
        return False
    if not all(is_minimal_presentation(f).minimal for f in fams):
        return False
    multisets = {tuple(sorted(tuple(m.to_rows()) for m in f.members)) for f in fams}
    return len(multisets) == len(fams)


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
    _guard_scale(cfg, attempts_per_degree, instance_cap)
    start = time.monotonic()
    checked = 0
    instances = []
    seed_base = cfg.seed if cfg.seed is not None else 0
    for shard in range(cfg.shards):
        for idx, fam in _family_stream(cfg):
            if idx % cfg.shards != shard:
                continue
            checked += 1
            matroid = presentation_matroid(fam)
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
                    matroid,
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
    instances.sort(key=lambda r: r["instance_index"])
    found = sum(1 for r in instances if r["status"] == "found")
    return ScanReport(
        kind="representability",
        config={
            **cfg.to_jsonable(),
            "max_ext_degree": max_ext_degree,
            "attempts_per_degree": attempts_per_degree,
        },
        instances_checked=checked,
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
    p, e = prime_power(entry["q"])
    spec = VectorSpaceSpec(field_make(p, e), entry["dim"])
    fam = family_from_rows(spec, entry["family"])
    ext_info = entry["representation"]["ext"]
    ext = field_make(ext_info["p"], ext_info["e"], modulus_from_string(ext_info["modulus"]))
    matrix = tuple(
        tuple(
            ext.parse_code(row[i * ext.e : (i + 1) * ext.e])
            for i in range(spec.dim)
        )
        for row in entry["representation"]["matrix"]
    )
    rep = QRepresentation(spec, ext, matrix)
    ok, _ = verify_representation(rep, presentation_matroid(fam))
    return ok
