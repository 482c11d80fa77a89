"""Conjecture scanners: determinism, golden reports, certificate soundness."""

import hashlib
import json

import pytest

from qtransversal import (
    DimensionMismatch,
    IncompleteTable,
    InfeasibleScale,
    OutOfRange,
    SpecMismatch,
    ScanConfig,
    ScanReport,
    scan_minimal_uniqueness,
    scan_q_rado,
    scan_representability,
)
from qtransversal.conjectures import (
    SCAN_INSTANCE_CAP,
    SCAN_KINDS,
    UNIQUENESS_NOTE,
    default_matroid_source,
    reverify_minimal_uniqueness,
    reverify_q_rado,
    reverify_representation_entry,
)
from qtransversal import VectorSpaceSpec, field_make, get_lattice

CFG = ScanConfig(q=2, max_dim=2, max_family=2)


def canonical(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


def test_config_validation():
    with pytest.raises(OutOfRange):
        ScanConfig(q=6, max_dim=2, max_family=2)
    with pytest.raises(OutOfRange):
        ScanConfig(q=2, max_dim=0, max_family=2)
    with pytest.raises(OutOfRange):
        ScanConfig(q=2, max_dim=2, max_family=-1)
    with pytest.raises(OutOfRange):
        ScanConfig(q=2, max_dim=2, max_family=2, mode="random")  # no seed
    with pytest.raises(OutOfRange):
        ScanConfig(q=2, max_dim=2, max_family=2, mode="bogus")


def test_q_rado_scan_no_counterexamples_at_desk_scale():
    report = scan_q_rado(CFG)
    assert report.counterexamples == []
    assert report.instances_checked == 200
    # families: 7 at dim 1 and 31 at dim 2; matroid pools: 2 and 6.
    assert report.details["matroids_per_dim"] == {"1": 2, "2": 6}


def test_q_rado_free_matroid_reduces_to_q_hall():
    from qtransversal import SubspaceFamily, free_matroid, q_hall
    from qtransversal.conjectures import _q_rado_sides
    import itertools

    spec = VectorSpaceSpec(field_make(2, 1), 2)
    lattice = get_lattice(spec)
    free = free_matroid(spec)
    for n in range(3):
        for members in itertools.product(lattice.subspaces, repeat=n):
            fam = SubspaceFamily(spec, members)
            lhs_t, rhs_j = _q_rado_sides(free, fam)
            assert (lhs_t is not None) == (rhs_j is None) == q_hall(fam).ok


def test_q_rado_sides_match_per_pair_oracle():
    # The witness route reads the bar-nullity table and the family's meet
    # closure; the oracle recomputes every meet per pair and walks every J.
    # The verdicts must agree; the route's J must violate and be the
    # largest J with its meet, {i : X(J) <= X_i}.
    from qtransversal import SubspaceFamily, is_partial_q_transversal
    from qtransversal.conjectures import _q_rado_sides
    from qtransversal.qtransversals import family_meet
    import itertools

    def oracle(matroid, fam):
        lattice = matroid.lattice
        n = len(fam)
        lhs = next(
            (
                lattice.subspaces[ti]
                for ti in lattice.by_dim.get(n, ())
                if matroid.independent_idx(ti)
                and is_partial_q_transversal(
                    lattice.subspaces[ti], fam, with_witness=False
                ).verdict
            ),
            None,
        )

        def barn(xi):
            return min(lattice.dims[lattice.meet_idx(b, xi)] for b in matroid.bases_idx())

        barn_v = barn(lattice.top_index)
        rhs = next(
            (
                mask
                for mask in range(1 << n)
                if barn(meet_of(fam, mask)) + mask.bit_count() > barn_v
            ),
            None,
        )
        return lhs, rhs, barn, barn_v

    def meet_of(fam, mask):
        return fam.lattice.idx(family_meet(fam, [i + 1 for i in range(len(fam)) if mask >> i & 1]))

    pairs = 0
    for p, e, dim in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2)):
        lattice = get_lattice(VectorSpaceSpec(field_make(p, e), dim))
        pool = default_matroid_source(lattice)
        for size in range(3):
            for members in itertools.product(lattice.subspaces, repeat=size):
                fam = SubspaceFamily(lattice.spec, members)
                for matroid in pool:
                    lhs_t, rhs_j = _q_rado_sides(matroid, fam)
                    lhs, rhs, barn, barn_v = oracle(matroid, fam)
                    assert lhs_t == lhs
                    assert (rhs_j is None) == (rhs is None)
                    if rhs_j is not None:
                        w = meet_of(fam, rhs_j)
                        assert barn(w) + rhs_j.bit_count() > barn_v
                        assert rhs_j == sum(
                            1 << i
                            for i, x in enumerate(fam.member_indices)
                            if lattice.leq_idx(w, x)
                        )
                    pairs += 1
    assert pairs == 2 * 7 + 6 * 31 + 32 * 273 + 7 * 43


def test_scan_determinism():
    a = scan_q_rado(CFG)
    b = scan_q_rado(CFG)
    assert canonical(a) == canonical(b)
    c = scan_minimal_uniqueness(CFG)
    d = scan_minimal_uniqueness(CFG)
    assert canonical(c) == canonical(d)


# sha256 of canonical(report), pinned so that a refactor of the scan
# engine cannot change a report unnoticed; each was taken from a release
# that still echoed a "shards" key in the config, with that key removed,
# and the representability one with the "seed" its config now records.
GOLDEN_REPORT_SHA256 = {
    "q-rado": "2ff5575fdaf1a7f6e90075943b3911d8fc1c50b498a02aac2803fd2bf464dab1",
    "minimal-uniqueness": "b834bef1656f5d8df70cfb435278df1f7b754923311a5b405896a5ee21a3668c",
    "representability": "256981caec9012dce18a60de3b91d5d18be4f85777b7d8f34db2e6834b391b77",
}


def test_reports_match_golden_digests():
    reports = {
        "q-rado": scan_q_rado(CFG),
        "minimal-uniqueness": scan_minimal_uniqueness(CFG),
        "representability": scan_representability(
            ScanConfig(q=2, max_dim=1, max_family=2, seed=5),
            max_ext_degree=2,
            attempts_per_degree=30,
        ),
    }
    digests = {
        kind: hashlib.sha256(canonical(report).encode()).hexdigest()
        for kind, report in reports.items()
    }
    assert digests == GOLDEN_REPORT_SHA256
    # No scan kind lands without a pinned digest.
    assert reports.keys() == SCAN_KINDS.keys()


def test_minimal_uniqueness_scan():
    report = scan_minimal_uniqueness(CFG)
    assert report.counterexamples == []
    assert report.instances_checked == 38
    # The cross-size padding variety exists and is reported as info only.
    assert report.details["matroids_with_minimal_presentations_at_several_sizes"] > 0
    assert any("multiset" in note for note in report.notes)


def test_representability_scan_all_found():
    report = scan_representability(CFG, max_ext_degree=4, attempts_per_degree=60)
    assert report.instances_checked == 38
    assert report.counterexamples == []
    assert report.details["found"] == 38
    assert report.details["not_found"] == []
    for entry in report.details["instances"]:
        assert reverify_representation_entry(entry)
    assert any("inconclusive" in note for note in report.notes)


@pytest.mark.parametrize("attempts", [0, -5])
def test_representability_scan_requires_positive_attempts(attempts):
    # A search that never ran must not be reported as inconclusive.
    with pytest.raises(OutOfRange):
        scan_representability(
            ScanConfig(q=2, max_dim=2, max_family=1), max_ext_degree=2, attempts_per_degree=attempts
        )


def test_representability_scan_requires_a_positive_degree():
    with pytest.raises(OutOfRange, match="max_ext_degree"):
        scan_representability(ScanConfig(q=2, max_dim=1, max_family=1), max_ext_degree=0)


def test_representability_scan_deterministic_with_seed():
    cfg = ScanConfig(q=2, max_dim=1, max_family=2, seed=5)
    a = scan_representability(cfg, max_ext_degree=2, attempts_per_degree=30)
    b = scan_representability(cfg, max_ext_degree=2, attempts_per_degree=30)
    assert canonical(a) == canonical(b)


def test_representability_report_records_its_seed():
    # The exhaustive search is seeded too, so the report's config must
    # name the seed for a replay from it to reproduce the report.
    def scan(cfg):
        return scan_representability(cfg, max_ext_degree=2, attempts_per_degree=3)

    seeded = scan(ScanConfig(q=2, max_dim=2, max_family=2, seed=5))
    unseeded = scan(ScanConfig(q=2, max_dim=2, max_family=2))
    assert seeded.config["seed"] == 5
    assert "seed" not in unseeded.config
    assert canonical(seeded) != canonical(unseeded)
    block = seeded.to_jsonable()["config"]
    replay = scan_representability(
        ScanConfig.from_jsonable(block),
        max_ext_degree=block["max_ext_degree"],
        attempts_per_degree=block["attempts_per_degree"],
    )
    assert canonical(replay) == canonical(seeded)


def test_random_mode_reproducible():
    cfg = ScanConfig(q=2, max_dim=2, max_family=2, mode="random", seed=99, count=40)
    a = scan_q_rado(cfg)
    b = scan_q_rado(cfg)
    assert canonical(a) == canonical(b)
    assert a.instances_checked > 0


def test_reverify_rejects_tampered_q_rado_record():
    # Manufacture a fake record out of a consistent instance; it must fail.
    from qtransversal import SubspaceFamily, free_matroid

    spec = VectorSpaceSpec(field_make(2, 1), 2)
    fam = SubspaceFamily(spec, (get_lattice(spec).subspaces[1],))
    record = {
        "q": 2,
        "dim": 2,
        "family": fam.to_rows(),
        "matroid": free_matroid(spec).to_jsonable(),
        "lhs_has_independent_transversal": True,
        "rhs_condition_holds": False,
    }
    assert not reverify_q_rado(record)  # both sides are actually true


def found_gf2_1_entry():
    """The found entry of the family (0) on GF(2)^1: one matrix row "1"."""
    report = scan_representability(
        ScanConfig(q=2, max_dim=1, max_family=1), max_ext_degree=1, attempts_per_degree=5
    )
    entry = report.details["instances"][1]
    assert entry["family"] == [[]] and entry["representation"]["matrix"] == ["1"]
    return entry


def test_reverify_representation_rejects_extra_digits():
    entry = found_gf2_1_entry()
    assert reverify_representation_entry(entry)
    entry["representation"]["matrix"] = ["11111"]
    with pytest.raises(DimensionMismatch):
        reverify_representation_entry(entry)


def test_reverify_q_rado_names_a_missing_subspace():
    from qtransversal import free_matroid

    spec = VectorSpaceSpec(field_make(2, 1), 2)
    matroid = free_matroid(spec).to_jsonable()
    dropped = matroid["rank_table"].pop(2)["subspace"]
    record = {
        "q": 2,
        "dim": 2,
        "family": [["10"]],
        "matroid": matroid,
        "lhs_has_independent_transversal": True,
        "rhs_condition_holds": False,
    }
    with pytest.raises(IncompleteTable) as raised:
        reverify_q_rado(record)
    assert str(raised.value) == f"rank table misses subspace {dropped}"


def test_reverify_minimal_uniqueness_on_synthetic_pair():
    # A genuine same-matroid same-size pair that differs as multisets would
    # re-verify; a fabricated pair with different matroids must not.
    spec = VectorSpaceSpec(field_make(2, 1), 2)
    lattice = get_lattice(spec)
    l10 = lattice.subspaces[2]
    record = {
        "q": 2,
        "dim": 2,
        "family_size": 1,
        "presentations": [
            {"members": [l10.to_rows()]},
            {"members": [lattice.subspaces[1].to_rows()]},
        ],
    }
    assert not reverify_minimal_uniqueness(record)  # different matroids


def test_reverify_minimal_uniqueness_checks_minimality_and_multisets(monkeypatch):
    from qtransversal import conjectures
    from qtransversal.qtransversals import MinimalityReport

    # (0, 0) and (<10>, <01>) both present the free matroid of GF(2)^2;
    # only the first is minimal (either line of the second shrinks to 0).
    def record(*families, q=2, dim=2, size=2):
        presentations = [{"members": f} for f in families]
        return {"q": q, "dim": dim, "family_size": size, "presentations": presentations}

    zeros, lines = [[], []], [["10"], ["01"]]
    assert not reverify_minimal_uniqueness(record(zeros, lines))  # not minimal
    assert not reverify_minimal_uniqueness(record(zeros, zeros))  # one multiset
    assert not reverify_minimal_uniqueness(record(zeros))  # one presentation
    # (V) and (V, V) both present GF(2)^1's matroid minimally, at two
    # sizes, which is padding and not a counterexample at either size.
    for size in (1, 2):
        assert not reverify_minimal_uniqueness(record([["1"]], [["1"], ["1"]], dim=1, size=size))
    # With minimality granted, two multisets presenting one matroid replay.
    minimal = MinimalityReport(True, None, None, None)
    monkeypatch.setattr(conjectures, "is_minimal_presentation", lambda fam: minimal)
    assert reverify_minimal_uniqueness(record(zeros, lines))
    assert not reverify_minimal_uniqueness(record(lines, [["01"], ["10"]]))
    assert not reverify_minimal_uniqueness(record(zeros))
    assert not reverify_minimal_uniqueness(record(zeros, lines, size=1))


def test_scans_handle_q3_and_oversized_families():
    report = scan_q_rado(ScanConfig(q=2, max_dim=1, max_family=3))
    assert report.counterexamples == []  # family size above dim V is fine
    report = scan_q_rado(ScanConfig(q=3, max_dim=2, max_family=1))
    assert report.counterexamples == []
    report = scan_minimal_uniqueness(ScanConfig(q=3, max_dim=2, max_family=2))
    assert report.counterexamples == []
    assert report.details["minimal_presentations_found"] > 0


def test_scan_scale_guard():
    with pytest.raises(InfeasibleScale):
        scan_q_rado(ScanConfig(q=2, max_dim=4, max_family=3))
    with pytest.raises(InfeasibleScale):
        scan_minimal_uniqueness(ScanConfig(q=2, max_dim=2, max_family=2), instance_cap=10)


def test_scan_config_refuses_a_seed_that_is_not_an_int():
    # The report echoes its config: a seed of 1.5 or true would be echoed too.
    for seed in (1.5, True, "1"):
        with pytest.raises(OutOfRange, match="seed"):
            ScanConfig(q=2, max_dim=2, max_family=1, mode="random", seed=seed, count=3)


def test_uniqueness_guard_charges_the_multisets_it_decides(monkeypatch):
    # (2, 3, 3) walks 4,540 ordered families and decides 10 + 56 + 969 =
    # 1,035 multisets of members, one presentation matroid each.
    from qtransversal import conjectures

    decided = []
    real = conjectures._uniqueness_ranks
    monkeypatch.setattr(conjectures, "_uniqueness_ranks", lambda fam: decided.append(fam) or real(fam))
    cfg = ScanConfig(q=2, max_dim=3, max_family=3)
    assert scan_minimal_uniqueness(cfg, instance_cap=1_035).instances_checked == 4_540
    assert len(decided) == 1_035
    with pytest.raises(InfeasibleScale):
        scan_minimal_uniqueness(cfg, instance_cap=1_034)


def test_meet_levels_are_charged_before_they_are_built(monkeypatch):
    # GF(2)^4 has 67 subspaces, so its meet levels cost 67^2 mask ANDs of
    # one unit each; the custom source's scan reads them.
    from qtransversal import free_matroid, subspaces

    lattice = get_lattice(VectorSpaceSpec(field_make(2, 1), 4))
    cfg = ScanConfig(q=2, max_dim=4, max_family=0)

    def source(lat):
        return [free_matroid(lat.spec)]

    lattice.__dict__.pop("meet_levels", None)  # not built yet
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 67**2 - 1)
    with pytest.raises(InfeasibleScale, match="meet levels of 67 subspaces"):
        scan_q_rado(cfg, source)
    assert "meet_levels" not in lattice.__dict__
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 67**2)
    assert scan_q_rado(cfg, source).instances_checked == 4


def test_default_matroid_source_is_deduplicated():
    lattice = get_lattice(VectorSpaceSpec(field_make(2, 1), 2))
    pool = default_matroid_source(lattice)
    tables = [m.ranks for m in pool]
    assert len(tables) == len(set(tables)) == 6
    kinds = {m.provenance.split(" ")[0].split(":")[0] for m in pool}
    assert "free" in kinds


# -- the minimal-uniqueness scan against its per-family loop ---------------


def ordered_uniqueness_oracle(cfg):
    """The scan as one per-family loop: every ordered family is built from
    subspaces and decided on its own, with no memo.  It reads
    presentation_matroid and is_minimal_presentation off the conjectures
    module at call time, so a test's patch reaches it as it reaches the scan."""
    import itertools
    import random

    from qtransversal import SubspaceFamily, conjectures

    def stream():
        if cfg.mode == "exhaustive":
            for dim in range(1, cfg.max_dim + 1):
                lattice = get_lattice(cfg.space(dim))
                for size in range(cfg.max_family + 1):
                    for members in itertools.product(lattice.subspaces, repeat=size):
                        yield SubspaceFamily(lattice.spec, members)
        else:
            rng = random.Random(cfg.seed)
            lattices = {d: get_lattice(cfg.space(d)) for d in range(1, cfg.max_dim + 1)}
            for _ in range(cfg.count):
                lattice = lattices[rng.randint(1, cfg.max_dim)]
                size = rng.randint(0, cfg.max_family)
                members = tuple(
                    lattice.subspaces[rng.randrange(len(lattice.subspaces))]
                    for _ in range(size)
                )
                yield SubspaceFamily(lattice.spec, members)

    checked = 0
    groups, cross_size = {}, {}
    for idx, fam in enumerate(stream()):
        checked += 1
        if not conjectures.is_minimal_presentation(fam).minimal:
            continue
        matroid = conjectures.presentation_matroid(fam)
        multiset = tuple(sorted(tuple(m.to_rows()) for m in fam.members))
        key = (fam.spec.dim, matroid.ranks, len(fam))
        groups.setdefault(key, {}).setdefault(multiset, idx)
        cross_size.setdefault((fam.spec.dim, matroid.ranks), set()).add(len(fam))
    counterexamples = [
        {
            "instance_index": next(iter(entry.values())),
            "q": cfg.q,
            "dim": dim,
            "family_size": size,
            "presentations": [
                {"members": [list(rows) for rows in multiset], "instance_index": i}
                for multiset, i in entry.items()
            ],
        }
        for (dim, _, size), entry in groups.items()
        if len(entry) > 1
    ]
    return ScanReport(
        kind="minimal-uniqueness",
        config=cfg.to_jsonable(),
        instances_checked=checked,
        counterexamples=counterexamples,
        details={
            "matroid_groups": len(cross_size),
            "minimal_presentations_found": sum(len(e) for e in groups.values()),
            "matroids_with_minimal_presentations_at_several_sizes": sum(
                1 for sizes in cross_size.values() if len(sizes) > 1
            ),
        },
        notes=(UNIQUENESS_NOTE,),
    )


UNIQUENESS_ORACLE_CONFIGS = (
    ScanConfig(q=2, max_dim=3, max_family=3),
    ScanConfig(q=3, max_dim=2, max_family=3),
    ScanConfig(q=4, max_dim=2, max_family=2),
    ScanConfig(q=2, max_dim=4, max_family=3, mode="random", seed=4, count=600),
    ScanConfig(q=3, max_dim=3, max_family=3, mode="random", seed=13, count=400),
)


@pytest.mark.parametrize("cfg", UNIQUENESS_ORACLE_CONFIGS, ids=str)
def test_minimal_uniqueness_matches_ordered_oracle(cfg):
    report = scan_minimal_uniqueness(cfg)
    assert canonical(report) == canonical(ordered_uniqueness_oracle(cfg))


class CoarseMatroid:
    """A presentation matroid whose rank table reads as its space rank
    alone, so distinct multisets collide in one group; everything else,
    equality included, is the real matroid's."""

    def __init__(self, real):
        self.real = real
        self.ranks = (real.space_rank,)

    def __getattr__(self, name):
        return getattr(self.real, name)

    def __eq__(self, other):
        return self.real == other

    __hash__ = None


def test_minimal_uniqueness_counterexamples_match_oracle_under_collisions(monkeypatch):
    from qtransversal import conjectures

    real = conjectures.presentation_matroid
    monkeypatch.setattr(conjectures, "presentation_matroid", lambda fam: CoarseMatroid(real(fam)))
    for cfg in (
        ScanConfig(q=2, max_dim=3, max_family=3),
        ScanConfig(q=3, max_dim=3, max_family=3, mode="random", seed=13, count=400),
    ):
        report = scan_minimal_uniqueness(cfg)
        oracle = ordered_uniqueness_oracle(cfg)
        assert len(report.counterexamples) > 1
        assert report.counterexamples == oracle.counterexamples
        assert canonical(report) == canonical(oracle)


def test_minimal_uniqueness_decides_each_multiset_once(monkeypatch):
    from qtransversal import conjectures

    calls = {"is_minimal_presentation": 0, "presentation_matroid": 0}

    def counted(name):
        fn = getattr(conjectures, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(conjectures, name, counted(name))
    report = scan_minimal_uniqueness(ScanConfig(q=2, max_dim=3, max_family=3))
    assert report.instances_checked == 4_540
    # Multisets of at most 3 of S subspaces: sum of C(S + k - 1, k) for
    # k <= 3, over S = 2, 5, 16; the scan builds each matroid once.
    assert calls == {"is_minimal_presentation": 1_035, "presentation_matroid": 1_035}


def test_each_scan_draws_its_random_stream_once(monkeypatch):
    # The guard's per-dimension counts and the multiset stream both read
    # one grouped draw.
    from qtransversal import conjectures

    calls = []
    real = conjectures._random_draws

    def counted(cfg):
        calls.append(cfg.seed)
        return real(cfg)

    monkeypatch.setattr(conjectures, "_random_draws", counted)
    cfg = ScanConfig(q=2, max_dim=2, max_family=2, mode="random", seed=4, count=30)
    scans = [
        scan_q_rado,
        scan_minimal_uniqueness,
        lambda cfg: scan_representability(cfg, max_ext_degree=1, attempts_per_degree=1),
    ]
    for scan in scans:
        calls.clear()
        assert scan(cfg).instances_checked > 0
        assert calls == [4]


def test_random_scans_refuse_a_huge_count_before_drawing(monkeypatch):
    # Every scan walks each draw, so a count beyond the cap is refused
    # before the stream is drawn or grouped.
    from qtransversal import conjectures

    real = conjectures._random_draws

    def bounded(cfg):
        for i, draw in enumerate(real(cfg)):
            assert i < 5, "the stream was drawn past its guard"
            yield draw

    monkeypatch.setattr(conjectures, "_random_draws", bounded)
    cfg = ScanConfig(q=2, max_dim=2, max_family=2, mode="random", seed=4, count=10**9)
    scans = [
        scan_q_rado,
        scan_minimal_uniqueness,
        lambda cfg: scan_representability(cfg, max_ext_degree=1, attempts_per_degree=1),
    ]
    for scan in scans:
        with pytest.raises(InfeasibleScale):
            scan(cfg)


# -- the q-Rado guard --------------------------------------------------------


def test_q_rado_guard_counts_true_pairs():
    # The pool bound 1 + S + S^2 put this at 428,358; it is 38,258 pairs.
    report = scan_q_rado(ScanConfig(q=2, max_dim=4, max_family=1))
    assert report.instances_checked == 38_258
    assert report.details["matroids_per_dim"] == {"1": 2, "2": 6, "3": 32, "4": 554}
    # The default pools' builds make 6 + 21 + 153 + 2,346 matroids on top.
    with pytest.raises(InfeasibleScale):
        scan_q_rado(ScanConfig(q=2, max_dim=4, max_family=1), instance_cap=38_258 + 2_525)


@pytest.mark.parametrize(
    "cfg",
    [
        ScanConfig(q=2, max_dim=4, max_family=1),
        ScanConfig(q=2, max_dim=3, max_family=2),
        ScanConfig(q=3, max_dim=3, max_family=1),
        ScanConfig(q=4, max_dim=2, max_family=2),
        ScanConfig(q=2, max_dim=4, max_family=2, mode="random", seed=5, count=40),
    ],
    ids=["2-4-1", "2-3-2", "3-3-1", "4-2-2", "random-2-4-2"],
)
def test_q_rado_guard_is_exact_and_refuses_before_building(monkeypatch, cfg):
    # The default pool's charge is its candidate tables plus the pairs,
    # counted from the keys: the scan runs at exactly that cap, and one
    # below it is refused before any matroid is built.
    from qtransversal import conjectures

    report = scan_q_rado(cfg)
    candidates = sum(conjectures._default_pool_build(cfg, int(d)) for d in report.details["matroids_per_dim"])
    exact = candidates + report.instances_checked
    assert scan_q_rado(cfg, instance_cap=exact).to_jsonable() == report.to_jsonable()

    def unbuilt(*args):
        raise AssertionError("a pool matroid was built")

    for name in ("free_matroid", "rank_one", "union"):
        monkeypatch.setattr(conjectures, name, unbuilt)
    with pytest.raises(InfeasibleScale, match=f"about {exact} instances"):
        scan_q_rado(cfg, instance_cap=exact - 1)


def test_q_rado_refusal_names_the_counted_pairs():
    # 73,026 candidate tables on GF(2)^1..5, and 11,653,133 pairs: the
    # 375 families of GF(2)^5 meet its 30,973 pool matroids, and 37,672 +
    # 544 + 36 + 6 pairs come from the smaller spaces.
    with pytest.raises(InfeasibleScale, match="about 11726159 instances"):
        scan_q_rado(ScanConfig(q=2, max_dim=5, max_family=1))


def test_q_rado_guard_charges_a_custom_source_its_size():
    from qtransversal import free_matroid, rank_one

    def source(lattice):
        return [free_matroid(lattice.spec), rank_one(lattice.subspaces[0]), rank_one(lattice.subspaces[-1])]

    # CFG walks 7 + 31 families, so 114 pairs with three matroids each.
    with pytest.raises(InfeasibleScale):
        scan_q_rado(CFG, source, instance_cap=113)
    assert scan_q_rado(CFG, source, instance_cap=114).instances_checked == 114


@pytest.mark.parametrize(
    "cfg, cap",
    [
        # 375 families on GF(2)^5 times 30,973 matroids.
        (ScanConfig(q=2, max_dim=5, max_family=1), SCAN_INSTANCE_CAP),
        # The GF(2)^6 pool alone builds about 4M matroids.
        (ScanConfig(q=2, max_dim=6, max_family=0), SCAN_INSTANCE_CAP),
        (ScanConfig(q=2, max_dim=6, max_family=3, mode="random", seed=1, count=10), SCAN_INSTANCE_CAP),
        # 19 of the 100 draws land on GF(2)^5.
        (ScanConfig(q=2, max_dim=5, max_family=1, mode="random", seed=1, count=100), SCAN_INSTANCE_CAP),
        # 31,567 pairs, and 73,026 candidate tables.
        (ScanConfig(q=2, max_dim=5, max_family=0), 100_000),
    ],
    ids=["2-5-1", "2-6-0", "random-2-6-3", "random-2-5-1", "2-5-0"],
)
def test_q_rado_guard_refuses_before_building_a_large_pool(monkeypatch, cfg, cap):
    from qtransversal import conjectures

    def no_pool(lattice):
        raise AssertionError(f"pool of {lattice.spec} built")

    monkeypatch.setattr(conjectures, "default_matroid_source", no_pool)
    with pytest.raises(InfeasibleScale):
        scan_q_rado(cfg, instance_cap=cap)


@pytest.mark.parametrize("p, e, dim", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3)])
def test_default_pool_holds_its_guard_floor(monkeypatch, p, e, dim):
    from qtransversal import conjectures, free_matroid, rank_one, union

    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), dim))
    cfg = ScanConfig(q=p**e, max_dim=dim, max_family=0)
    singles = {x: rank_one(x) for x in lattice.subspaces}
    named = [free_matroid(lattice.spec), *singles.values()]
    named += [union([singles[x]] * 2) for x in lattice.subspaces if x.dim <= dim - 2]
    pairs = [
        union([singles[x], singles[y]])
        for i, x in enumerate(lattice.subspaces)
        for y in lattice.subspaces[i + 1:]
        if min(x.dim, y.dim) - lattice.dims[lattice.meet_idx(lattice.idx(x), lattice.idx(y))] >= 2
    ]
    made = dict.fromkeys(("free_matroid", "rank_one", "_pool_keys", "union"), 0)

    def counted(name):
        fn = getattr(conjectures, name)

        def wrapper(*args):
            made[name] += 1
            return fn(*args)

        return wrapper

    def counted_keys(lat, keys=conjectures._pool_keys):
        for item in keys(lat):
            made["_pool_keys"] += 1
            yield item

    for name in ("free_matroid", "rank_one", "union"):
        monkeypatch.setattr(conjectures, name, counted(name))
    monkeypatch.setattr(conjectures, "_pool_keys", counted_keys)
    pool = default_matroid_source(lattice)
    assert {m.ranks for m in named + pairs} <= {m.ranks for m in pool}
    assert len({m.ranks for m in pairs}) == len(pairs)
    # The build charge counts candidate tables, each read as one key: the
    # free one, S rank-1 ones and S(S+1)/2 closed-form pair keys.  The free
    # matroid is built once, rank_one once per subspace, and union once
    # per kept pair table.
    s = len(lattice)
    assert made["_pool_keys"] == conjectures._default_pool_build(cfg, dim) == 1 + s + s * (s + 1) // 2
    assert (made["free_matroid"], made["rank_one"]) == (1, s)
    assert made["union"] == sum(m.provenance == "union" for m in pool)


# -- the default pool against the all-pairs union route ----------------------


def reference_pool(lattice):
    """The default pool as every pair's union, built and then deduplicated
    by rank table in enumeration order."""
    from qtransversal import free_matroid, rank_one, union

    out, seen = [], set()
    singles = [rank_one(s) for s in lattice.subspaces]
    candidates = [free_matroid(lattice.spec), *singles]
    candidates += [union([a, b]) for i, a in enumerate(singles) for b in singles[i:]]
    for m in candidates:
        if m.ranks not in seen:
            seen.add(m.ranks)
            out.append(m)
    return out


POOL_SPACES = [(2, 1, d) for d in range(1, 5)] + [(3, 1, d) for d in range(1, 4)] + [(2, 2, 1), (2, 2, 2)]


@pytest.mark.parametrize("p, e, dim", POOL_SPACES)
def test_default_pool_matches_the_all_pairs_union_pool(p, e, dim):
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), dim))
    pool = [(m.ranks, m.provenance) for m in default_matroid_source(lattice)]
    assert pool == [(m.ranks, m.provenance) for m in reference_pool(lattice)]


@pytest.mark.parametrize("p, e, dim", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_two_loop_tables_match_presentation_and_union(p, e, dim):
    from qtransversal import SubspaceFamily, presentation_matroid, rank_one, union
    from test_differential import two_loop_tables

    # The tuple-route oracle that the pool's keys are compared with.
    lattice = get_lattice(VectorSpaceSpec(field_make(p, e), dim))
    xs = lattice.subspaces
    tables = list(two_loop_tables(lattice))
    assert [(i, j) for i, j, _ in tables] == [(i, j) for i in range(len(xs)) for j in range(i, len(xs))]
    for i, j, table in tables:
        assert table == presentation_matroid(SubspaceFamily(lattice.spec, (xs[i], xs[j]))).ranks
        assert table == union([rank_one(xs[i]), rank_one(xs[j])]).ranks


def test_default_pool_raises_when_union_disagrees_with_the_closed_form(monkeypatch, tmp_path, capsys):
    from qtransversal import InvariantViolation, conjectures, free_matroid, rank_one, union
    from qtransversal.cli import main
    from test_differential import two_loop_tables

    # union of a pair returns its first member's table: the first pair
    # whose closed-form table is new must then raise, naming the pair.
    lattice = get_lattice(VectorSpaceSpec(field_make(2, 1), 3))
    seen = {free_matroid(lattice.spec).ranks} | {rank_one(x).ranks for x in lattice.subspaces}
    i, j, table = next(t for t in two_loop_tables(lattice) if t[2] not in seen)
    monkeypatch.setattr(conjectures, "union", lambda members: union(members[:1]))
    with pytest.raises(InvariantViolation) as raised:
        default_matroid_source(lattice)
    x, y = lattice.subspaces[i], lattice.subspaces[j]
    payload = raised.value.payload
    assert payload == {**lattice.spec.to_jsonable(), "family": [x.to_rows(), y.to_rows()]}
    # The payload replays as a build-matroid instance: the pair's matroid.
    (tmp_path / "pair.json").write_text(json.dumps(payload))
    assert main(["build-matroid", str(tmp_path / "pair.json")]) == 0
    built = json.loads(capsys.readouterr().out)["matroid"]["rank_table"]
    assert tuple(entry["rank"] for entry in built) == table


def test_q_rado_guard_charges_random_draws_exactly():
    from qtransversal import free_matroid

    def source(lattice):
        # dim copies of the free matroid: a draw's pairs depend on its dimension.
        return [free_matroid(lattice.spec)] * lattice.spec.dim

    cfg = ScanConfig(q=2, max_dim=3, max_family=2, mode="random", seed=7, count=40)
    walked = scan_q_rado(cfg, source).instances_checked
    with pytest.raises(InfeasibleScale):
        scan_q_rado(cfg, source, instance_cap=walked - 1)
    assert scan_q_rado(cfg, source, instance_cap=walked).instances_checked == walked


def test_q_rado_random_builds_and_lists_only_visited_dimensions():
    built = []

    def source(lattice):
        built.append(lattice.spec.dim)
        return default_matroid_source(lattice)

    cfg = ScanConfig(q=2, max_dim=3, max_family=1, mode="random", seed=1, count=1)
    report = scan_q_rado(cfg, source)
    assert report.instances_checked == sum(report.details["matroids_per_dim"].values())
    assert [int(d) for d in report.details["matroids_per_dim"]] == built
    assert len(built) == 1


def test_q_rado_counterexample_record_names_its_dimension(monkeypatch):
    from qtransversal import SubspaceFamily, conjectures, free_matroid

    # The family (V) on GF(2)^2 has no transversal; dropping the right
    # side's witness J for the free matroid makes that one pair a q-Rado
    # mismatch, forced in both the mask decision and the witness route
    # that the scan and the replay consult.
    spec = VectorSpaceSpec(field_make(2, 1), 2)
    lattice = get_lattice(spec)
    free = free_matroid(spec)
    top = SubspaceFamily(spec, (lattice.subspaces[lattice.top_index],))
    free_indep = conjectures._matroid_masks(free, 1)[0]
    top_masks = conjectures._family_masks(top)
    real_mismatches = conjectures._q_rado_mismatches
    real_sides = conjectures._q_rado_sides

    def forced_mismatches(join, family_masks):
        found = real_mismatches(join, family_masks)
        if family_masks != top_masks:
            return found
        # Matroid i's indep, read back from bit i of the transposed columns.
        every, tcols, _ = join
        forced = [
            i
            for i in range(every.bit_length())
            if sum((col >> i & 1) << t for t, col in enumerate(tcols)) == free_indep
        ]
        return found + [(i, False) for i in forced]

    def forced_sides(matroid, fam):
        lhs_t, rhs_j = real_sides(matroid, fam)
        if matroid == free and fam.member_indices == top.member_indices:
            return lhs_t, None
        return lhs_t, rhs_j

    monkeypatch.setattr(conjectures, "_q_rado_mismatches", forced_mismatches)
    monkeypatch.setattr(conjectures, "_q_rado_sides", forced_sides)
    report = scan_q_rado(ScanConfig(q=2, max_dim=2, max_family=1))
    [record] = report.counterexamples
    # GF(2)^1 gives 3 families x 2 matroids; on GF(2)^2, (V) is the sixth
    # family and the free matroid leads its pool of 6: 6 + 5 * 6 = 36.
    assert record["instance_index"] == 36
    assert record["dim"] == 2 and record["family"] == [["10", "01"]]
    assert record["lhs_has_independent_transversal"] is False
    assert record["rhs_condition_holds"] is True
    assert reverify_q_rado(record)
    # The replay needs both routes to agree: either one forced alone fails.
    monkeypatch.setattr(conjectures, "_q_rado_sides", real_sides)
    assert not reverify_q_rado(record)
    monkeypatch.setattr(conjectures, "_q_rado_sides", forced_sides)
    monkeypatch.setattr(conjectures, "_q_rado_mismatches", real_mismatches)
    assert not reverify_q_rado(record)
    monkeypatch.undo()
    assert not reverify_q_rado(record)


def test_q_rado_scan_raises_when_the_witness_route_disagrees(monkeypatch):
    from qtransversal import InvariantViolation, QMatroid, conjectures

    # Points of rank 0 under an independent V: a table that is not a
    # q-matroid.  Its one basis is V, so barnu(X) = dim X, and a family of
    # one point or of the zero space has no independent transversal while
    # its right side holds: four mismatches on GF(2)^2, none on GF(2)^1.
    def source(lattice):
        return [QMatroid(lattice, [0 if d == 1 else d for d in lattice.dims])]

    cfg = ScanConfig(q=2, max_dim=2, max_family=1)
    records = scan_q_rado(cfg, source).counterexamples
    assert [r["instance_index"] for r in records] == [4, 5, 6, 7]
    assert all(r["dim"] == 2 and not r["lhs_has_independent_transversal"] for r in records)
    assert all("rhs_witness_J" not in r for r in records)
    monkeypatch.setattr(conjectures, "_q_rado_sides", lambda matroid, fam: (None, 1))
    with pytest.raises(InvariantViolation):
        scan_q_rado(cfg, source)


@pytest.mark.parametrize("q, dim", [(3, 1), (2, 2)], ids=["same-size-lattice", "larger-lattice"])
def test_q_rado_refuses_pool_matroids_from_another_space(q, dim):
    from qtransversal import free_matroid

    # GF(3)^1 has as many subspaces as GF(2)^1, so its matroid would be
    # joined silently; GF(2)^2's would index past the lattice.  Both are
    # refused, naming the dimension, before any pair is walked.
    foreign = free_matroid(VectorSpaceSpec(field_make(q, 1), dim))

    def source(lattice):
        return [free_matroid(lattice.spec), foreign]

    cfg = ScanConfig(q=2, max_dim=1, max_family=2)
    with pytest.raises(SpecMismatch, match=r"pool matroid 1 of dimension 1 lives on VectorSpaceSpec\(GF"):
        scan_q_rado(cfg, source)
