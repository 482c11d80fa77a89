"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Everything here is exact; there are no tolerances to tune,
only agreement or disagreement.
"""

import itertools
import json
import time

import pytest

from qtransversal import (
    AlignedFamily,
    ClassicalMatroid,
    ScanConfig,
    SetFamily,
    SubspaceFamily,
    VectorSpaceSpec,
    avoiding_transversal_by_injections,
    avoiding_transversal_check,
    build_aligned_representation,
    check_rank_axioms,
    field_make,
    find_transversal,
    free_matroid,
    get_lattice,
    hall_check,
    is_minimal_presentation,
    is_partial_q_transversal,
    presentation_matroid,
    q_hall,
    q_transversal_by_definition,
    rado_check,
    rank_one,
    reduce_presentation,
    represent,
    scan_minimal_uniqueness,
    scan_q_rado,
    scan_representability,
    union,
    verify_representation,
)
from qtransversal.cli import main as cli_main
from qtransversal.conjectures import (
    reverify_minimal_uniqueness,
    reverify_q_rado,
    reverify_representation_entry,
)
from test_classical import co_nullity
from test_qtransversals import partial_equiv_check

GF2_2 = VectorSpaceSpec(field_make(2, 1), 2)
GF2_3 = VectorSpaceSpec(field_make(2, 1), 3)
LAT2 = get_lattice(GF2_2)
LAT3 = get_lattice(GF2_3)

#: GF(2)^3 family budget for the sweep criteria; must stay >= 1000.
GF2_3_FAMILY_BUDGET = 1100


def report(number, text):
    print(f"criterion {number:02d} PASS - {text}")


@pytest.fixture(scope="module")
def families_gf2_2():
    out = []
    for n in (1, 2, 3):
        out.extend(
            SubspaceFamily(GF2_2, members)
            for members in itertools.product(LAT2.subspaces, repeat=n)
        )
    assert len(out) == 155
    return out


@pytest.fixture(scope="module")
def sweep_gf2_2(families_gf2_2):
    return [(fam, presentation_matroid(fam)) for fam in families_gf2_2]


@pytest.fixture(scope="module")
def families_gf2_3():
    out = []
    for n in (1, 2):
        out.extend(
            SubspaceFamily(GF2_3, members)
            for members in itertools.product(LAT3.subspaces, repeat=n)
        )
    for members in itertools.product(LAT3.subspaces, repeat=3):
        if len(out) >= GF2_3_FAMILY_BUDGET:
            break
        out.append(SubspaceFamily(GF2_3, members))
    assert len(out) >= 1000
    return out


@pytest.fixture(scope="module")
def sweep_gf2_3(families_gf2_3):
    return [(fam, presentation_matroid(fam)) for fam in families_gf2_3]


@pytest.fixture(scope="module")
def union_pool_gf2_2():
    singles = [rank_one(s) for s in LAT2.subspaces]
    pairs = [union([a, b]) for a, b in itertools.product(singles, repeat=2)]
    return singles + pairs


@pytest.fixture(scope="module")
def aligned_sweep():
    """Every aligned family over GF(2)^n, n <= 3, k <= 2, with its
    constructed representation; records construction + verification time."""
    start = time.monotonic()
    results = []
    for n in (1, 2, 3):
        spec = VectorSpaceSpec(field_make(2, 1), n)
        subsets = [
            frozenset(c)
            for k in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), k)
        ]
        for k in (1, 2):
            for sets in itertools.product(subsets, repeat=k):
                aligned = AlignedFamily(spec, sets)
                rep = build_aligned_representation(aligned)
                matroid = presentation_matroid(aligned.induced_family())
                ok, bad = verify_representation(rep, matroid)
                results.append((aligned, rep, matroid, ok, bad))
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_01_rank_axioms(union_pool_gf2_2, aligned_sweep):
    start = time.monotonic()
    checked = 0
    for loops in LAT3.subspaces:  # all 16 loop spaces of GF(2)^3
        assert check_rank_axioms(LAT3, rank_one(loops).ranks).ok
        checked += 1
    singles = [rank_one(s) for s in LAT2.subspaces]
    for n in (1, 2, 3):  # all unions of <= 3 rank-1 matroids on GF(2)^2
        for members in itertools.product(singles, repeat=n):
            assert check_rank_axioms(LAT2, union(list(members)).ranks).ok
            checked += 1
    for _, rep, _, _, _ in aligned_sweep[0]:  # all represented matroids
        m = represent(rep)
        assert check_rank_axioms(m.lattice, m.ranks).ok
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    report(1, f"rank axioms hold for {checked} constructed matroids in {elapsed:.1f}s")


def test_criterion_02_transversals_are_matroids(sweep_gf2_2, sweep_gf2_3):
    pairs_checked = 0
    for sweep, lattice in ((sweep_gf2_2, LAT2), (sweep_gf2_3, LAT3)):
        for fam, matroid in sweep:
            for t in lattice.subspaces:
                fast = is_partial_q_transversal(t, fam, with_witness=False).verdict
                assert fast == matroid.independent(t)
                assert fast == q_transversal_by_definition(t, fam)
                pairs_checked += 1
    report(
        2,
        f"independence = fast J-test = basis oracle on {pairs_checked} (T, family) pairs "
        f"({len(sweep_gf2_2)} families over GF(2)^2, {len(sweep_gf2_3)} over GF(2)^3)",
    )


def test_criterion_03_q_hall(sweep_gf2_2, sweep_gf2_3):
    checked = 0
    for sweep in (sweep_gf2_2, sweep_gf2_3):
        for fam, matroid in sweep:
            assert q_hall(fam).ok == (matroid.space_rank == len(fam))
            checked += 1
    report(3, f"q-Hall verdict equals full-rank test on {checked} families")


def test_criterion_04_members_are_flats(sweep_gf2_2, sweep_gf2_3):
    checked = 0
    for sweep in (sweep_gf2_2, sweep_gf2_3):
        for fam, matroid in sweep:
            for x in fam.members:
                assert matroid.closure(x) == x
                checked += 1
    report(4, f"every presented member is a flat ({checked} members)")


def test_criterion_05_presentation_reduction(sweep_gf2_2, sweep_gf2_3):
    checked = 0
    for sweep in (sweep_gf2_2, sweep_gf2_3):
        for fam, matroid in sweep:
            reduced = reduce_presentation(fam)
            assert len(reduced) == matroid.space_rank
            assert presentation_matroid(reduced).ranks == matroid.ranks
            checked += 1
    report(5, f"reduction yields rank-many members and an equal table ({checked} families)")


def test_criterion_06_minimal_iff_cyclic(sweep_gf2_2):
    minimal_count = 0
    shrink_count = 0
    for fam, matroid in sweep_gf2_2:
        result = is_minimal_presentation(fam)
        assert result.minimal == all(matroid.is_cyclic(x) for x in fam.members)
        if result.minimal:
            minimal_count += 1
            for pos, x in enumerate(fam.members):
                xi = LAT2.idx(x)
                for sub_idx in LAT2.below[xi]:
                    if sub_idx == xi:
                        continue
                    shrunk = SubspaceFamily(
                        GF2_2,
                        fam.members[:pos]
                        + (LAT2.subspaces[sub_idx],)
                        + fam.members[pos + 1 :],
                    )
                    assert presentation_matroid(shrunk).ranks != matroid.ranks
                    shrink_count += 1
        else:
            assert presentation_matroid(result.replacement).ranks == matroid.ranks
    report(
        6,
        f"minimal iff cyclic on all 155 GF(2)^2 families; {minimal_count} minimal ones "
        f"resist all {shrink_count} one-member shrinks, every witness re-presents",
    )


def test_criterion_07_partial_equivalence(sweep_gf2_2, sweep_gf2_3):
    checked = 0
    for sweep, lattice in ((sweep_gf2_2, LAT2), (sweep_gf2_3, LAT3)):
        for fam, _ in sweep:
            for t in lattice.subspaces:
                assert partial_equiv_check(t, fam) == is_partial_q_transversal(
                    t, fam, with_witness=False
                ).verdict
                checked += 1
    report(7, f"subsystem route equals fast test on {checked} (T, family) pairs")


def test_criterion_08_aligned_representability(aligned_sweep):
    results, elapsed = aligned_sweep
    assert elapsed <= 120.0
    degrees = set()
    for aligned, rep, matroid, ok, bad in results:
        assert ok, (aligned.index_sets, bad)
        degrees.add(rep.ext.e)
    assert len(results) == 98  # sum over n<=3, k<=2 of (2^n)^k
    report(
        8,
        f"all {len(results)} aligned families over GF(2)^n (n<=3, k<=2) verified, "
        f"extension degrees {sorted(degrees)}, {elapsed:.1f}s",
    )


def test_criterion_09_classical_oracles():
    ground = ("a", "b", "c", "d")
    subsets = [
        frozenset(c)
        for k in range(5)
        for c in itertools.combinations(ground, k)
    ]
    free = ClassicalMatroid.free(ground)
    families = 0
    for n in range(5):
        for members in itertools.product(subsets, repeat=n):
            fam = SetFamily(ground, members)
            hall = hall_check(fam)
            assert hall.ok == (find_transversal(fam) is not None)
            assert rado_check(free, fam).ok == hall.ok
            families += 1

    import random

    avoid_checked = 0
    small_ground = ("a", "b", "c")
    small_subsets = [
        frozenset(c)
        for k in range(4)
        for c in itertools.combinations(small_ground, k)
    ]
    for n in range(4):
        for members in itertools.product(small_subsets, repeat=n):
            fam = SetFamily(small_ground, members)
            for t in small_subsets:
                assert avoiding_transversal_check(t, fam) == \
                    avoiding_transversal_by_injections(t, fam)
                avoid_checked += 1
    rng = random.Random(987654321)
    for big_ground in (("a", "b", "c", "d"), ("a", "b", "c", "d", "e")):
        for _ in range(600):
            n = rng.randint(0, 4)
            members = tuple(
                frozenset(x for x in big_ground if rng.random() < 0.5)
                for _ in range(n)
            )
            fam = SetFamily(big_ground, members)
            t = frozenset(x for x in big_ground if rng.random() < 0.4)
            assert avoiding_transversal_check(t, fam) == \
                avoiding_transversal_by_injections(t, fam)
            avoid_checked += 1

    gf2 = field_make(2, 1)
    matroids = [
        ClassicalMatroid.free(("s1", "s2", "s3")),
        ClassicalMatroid.linear(("s1", "s2", "s3"), gf2, [(1, 0), (0, 1), (1, 1)]),
        ClassicalMatroid.linear(("s1", "s2", "s3"), gf2, [(1, 0), (1, 0), (0, 1)]),
    ]
    for m in matroids:
        s = frozenset(m.ground)
        nu_s = co_nullity(m, s)
        for k in range(4):
            for x in itertools.combinations(m.ground, k):
                x = frozenset(x)
                assert m.rank(s - x) == nu_s - co_nullity(m, x)
    report(
        9,
        f"Hall=matching and Rado(free)=Hall on {families} families (|S|=4, n<=4); "
        f"avoidance theorem = injections on {avoid_checked} instances (|S|<=5); "
        f"co-nullity identity on free and linear matroids",
    )


def test_criterion_10_propositions(union_pool_gf2_2, sweep_gf2_2):
    qualifying = 0
    for m, n in itertools.product(union_pool_gf2_2, repeat=2):
        u = union([m, n])
        if u.space_rank == m.space_rank:
            assert u.ranks == m.ranks
            qualifying += 1
    fc_checked = 0
    matroids = union_pool_gf2_2 + [mat for _, mat in sweep_gf2_2]
    for m in matroids:
        lat = m.lattice
        for s in lat.subspaces:
            if m.nullity(s) != 1:
                continue
            c = m.fundamental_circuit(s)  # verifies the dichotomy internally
            assert [x for x in m.circuits() if lat.leq_idx(lat.idx(x), lat.idx(s))] == [c]
            fc_checked += 1
    assert qualifying > 0 and fc_checked > 0
    report(
        10,
        f"union-same-rank table equality on {qualifying} qualifying pairs; "
        f"fundamental-circuit uniqueness and dichotomy on {fc_checked} nullity-1 subspaces",
    )


def test_criterion_11_conjecture_scans():
    cfg = ScanConfig(q=2, max_dim=2, max_family=2)
    expected_families = 7 + 31  # dim 1 and dim 2 family counts

    rado_report = scan_q_rado(cfg)
    assert rado_report.instances_checked == 2 * 7 + 6 * 31  # complete
    for record in rado_report.counterexamples:
        assert reverify_q_rado(record)

    uniq_report = scan_minimal_uniqueness(cfg)
    assert uniq_report.instances_checked == expected_families
    for record in uniq_report.counterexamples:
        assert reverify_minimal_uniqueness(record)

    rep_report = scan_representability(cfg, max_ext_degree=4, attempts_per_degree=100)
    assert rep_report.instances_checked == expected_families
    assert rep_report.counterexamples == []  # not-found is never a counterexample
    for entry in rep_report.details["instances"]:
        assert reverify_representation_entry(entry)

    report(
        11,
        f"scans complete and sound: q-Rado {rado_report.instances_checked} instances "
        f"({len(rado_report.counterexamples)} counterexamples), uniqueness "
        f"{uniq_report.instances_checked} ({len(uniq_report.counterexamples)}), "
        f"representability {rep_report.instances_checked} "
        f"({rep_report.details['found']} found, {len(rep_report.details['not_found'])} open)",
    )


def test_criterion_12_determinism(tmp_path, capsys):
    runs = []
    for _ in range(2):
        outputs = []
        for doc in (
            {"scan": {"kind": "q-rado", "q": 2, "max_dim": 2, "max_family": 2}},
            {"scan": {"kind": "minimal-uniqueness", "q": 2, "max_dim": 2, "max_family": 2}},
            {
                "scan": {
                    "kind": "representability",
                    "q": 2,
                    "max_dim": 2,
                    "max_family": 1,
                    "max_ext_degree": 4,
                    "attempts_per_degree": 50,
                }
            },
            {"q": 2, "dim": 2, "family": [["10"], ["01"], ["11"]]},
        ):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(doc))
            command = "scan" if "scan" in doc else "q-hall"
            assert cli_main([command, str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        runs.append("\n".join(outputs))
    assert runs[0] == runs[1]
    report(12, f"two full report runs are byte-identical ({len(runs[0])} bytes each)")
