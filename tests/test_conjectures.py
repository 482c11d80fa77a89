"""Conjecture scanners: determinism, golden reports, certificate soundness."""

import hashlib
import json

import pytest

from qtransversal import (
    IncompleteTable,
    InfeasibleScale,
    OutOfRange,
    SpecMismatch,
    ScanConfig,
    scan_minimal_uniqueness,
    scan_q_rado,
    scan_representability,
)
from qtransversal.conjectures import (
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
    # The scan shares one family context (meets and fast-test verdicts)
    # across the matroid pool; the oracle recomputes everything per pair.
    from qtransversal import SubspaceFamily, is_partial_q_transversal
    from qtransversal.conjectures import _family_context, _q_rado_sides
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
                if barn(lattice.idx(family_meet(fam, [i + 1 for i in range(n) if mask >> i & 1])))
                + mask.bit_count()
                > barn_v
            ),
            None,
        )
        return lhs, rhs

    pairs = 0
    for p, e, dim in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2)):
        lattice = get_lattice(VectorSpaceSpec(field_make(p, e), dim))
        pool = default_matroid_source(lattice)
        for size in range(3):
            for members in itertools.product(lattice.subspaces, repeat=size):
                fam = SubspaceFamily(lattice.spec, members)
                context = _family_context(fam)
                for matroid in pool:
                    assert _q_rado_sides(matroid, fam, context) == oracle(matroid, fam)
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
# that still echoed a "shards" key in the config, with that key removed.
GOLDEN_REPORT_SHA256 = {
    "q-rado": "2ff5575fdaf1a7f6e90075943b3911d8fc1c50b498a02aac2803fd2bf464dab1",
    "minimal-uniqueness": "b834bef1656f5d8df70cfb435278df1f7b754923311a5b405896a5ee21a3668c",
    "representability": "a4035746cca54aee7f17e654568bb473a6cd011c0d82e3ac5f338625c22afd77",
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


def test_representability_scan_deterministic_with_seed():
    cfg = ScanConfig(q=2, max_dim=1, max_family=2, seed=5)
    a = scan_representability(cfg, max_ext_degree=2, attempts_per_degree=30)
    b = scan_representability(cfg, max_ext_degree=2, attempts_per_degree=30)
    assert canonical(a) == canonical(b)


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
    with pytest.raises(SpecMismatch):
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
        "presentations": [
            {"members": [l10.to_rows()]},
            {"members": [lattice.subspaces[1].to_rows()]},
        ],
    }
    assert not reverify_minimal_uniqueness(record)  # different matroids


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


def test_default_matroid_source_is_deduplicated():
    lattice = get_lattice(VectorSpaceSpec(field_make(2, 1), 2))
    pool = default_matroid_source(lattice)
    tables = [m.ranks for m in pool]
    assert len(tables) == len(set(tables)) == 6
    kinds = {m.provenance.split(" ")[0].split(":")[0] for m in pool}
    assert "free" in kinds
