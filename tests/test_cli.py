"""CLI behavior: golden verdicts, exit codes, round-trips, determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtransversal

from qtransversal import ScanConfig, errors, scan_representability
from qtransversal.cli import _COMMANDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_q_hall_golden_true(tmp_path, capsys):
    path = write(tmp_path, "i.json", {"q": 2, "dim": 2, "family": [["10"]]})
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 0
    assert out["verdict"] is True


def test_q_hall_golden_false_with_witness(tmp_path, capsys):
    doc = {"q": 2, "dim": 2, "family": [["10", "01"], ["10", "01"]]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 0
    assert out["verdict"] is False
    # V is the family's one meet; its largest J is {1, 2}.
    assert out["witness_J"] == [1, 2]


def test_check_q_transversal_golden(tmp_path, capsys):
    doc = {"q": 2, "dim": 2, "family": [["10"]], "subspace": ["01"]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "check-q-transversal", path, "--oracle")
    assert code == 0
    assert out["verdict"] is True
    assert out["oracle_verdict"] is True
    assert out["certificate"]["basis_witnesses"] == [
        {"avoids_via": [1], "basis": ["01"]}
    ]


def test_cli_matches_library(tmp_path, capsys):
    from qtransversal import (
        SubspaceFamily,
        VectorSpaceSpec,
        field_make,
        get_lattice,
        is_partial_q_transversal,
        q_hall,
    )

    spec = VectorSpaceSpec(field_make(2, 1), 2)
    lattice = get_lattice(spec)
    for members in [(2,), (2, 1), (4, 4), (3, 2, 1)]:
        fam = SubspaceFamily(spec, tuple(lattice.subspaces[i] for i in members))
        doc = {"q": 2, "dim": 2, "family": fam.to_rows()}
        path = write(tmp_path, "i.json", doc)
        _, out = run_cli(capsys, "q-hall", path)
        assert out["verdict"] == q_hall(fam).ok
        for t in lattice.subspaces:
            doc_t = dict(doc, subspace=t.to_rows())
            path = write(tmp_path, "t.json", doc_t)
            _, out = run_cli(capsys, "check-q-transversal", path)
            assert out["verdict"] == is_partial_q_transversal(t, fam).verdict


def test_round_trip_instance_echo(tmp_path, capsys):
    doc = {"q": 2, "dim": 2, "family": [["10", "01"]], "subspace": ["10"]}
    path = write(tmp_path, "i.json", doc)
    _, out = run_cli(capsys, "check-q-transversal", path)
    # The echoed instance re-parses and re-verifies to the same verdict.
    path2 = write(tmp_path, "echo.json", out["instance"])
    _, out2 = run_cli(capsys, "check-q-transversal", path2)
    assert out2["verdict"] == out["verdict"]
    assert out2["certificate"] == out["certificate"]


def test_hall_command(tmp_path, capsys):
    doc = {"ground": ["a", "b"], "members": [["a", "b"], ["b"]]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "hall", path)
    assert code == 0 and out["verdict"] is True
    assert out["transversal"] == ["a", "b"]
    doc = {"ground": ["a"], "members": [["a"], ["a"]]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "hall", path)
    assert out["verdict"] is False and out["witness_J"] == [1, 2]
    # 40 members index 2^40 sets J; the witness is the first that fails.
    doc = {"ground": ["a"], "members": [["a"]] * 40}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "hall", path)
    assert code == 0 and out["verdict"] is False and out["witness_J"] == [1, 2]
    # A passing family of 40 members is decided by the matching alone,
    # without walking its 2^40 sets J.
    labels = [f"x{i}" for i in range(40)]
    doc = {"ground": labels, "members": [[x] for x in labels]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "hall", path)
    assert code == 0 and out["verdict"] is True and out["transversal"] == labels


def test_hall_answers_along_an_augmenting_path_of_1500_edges(tmp_path, capsys):
    # Members {x_i, x_(i+1)} for i < 1500 take x_i first; {x_0} then
    # reaches x_1500 through a path of 1,500 edges, which the matching
    # follows without one call per edge.
    labels = [f"x{i}" for i in range(1501)]
    chain = [[labels[i], labels[i + 1]] for i in range(1500)]
    doc = {"ground": labels, "members": chain + [["x0"]]}
    code, out = run_cli(capsys, "hall", write(tmp_path, "i.json", doc))
    assert code == 0 and out["verdict"] is True
    assert out["transversal"] == labels[1:] + ["x0"]
    # With {x_1500} as well, the search from it walks the same path back
    # and fails: every member is in J, over 1,501 labels.
    doc = {"ground": labels, "members": chain + [["x0"], ["x1500"]]}
    code, out = run_cli(capsys, "hall", write(tmp_path, "i.json", doc))
    assert code == 0 and out["verdict"] is False
    assert out["witness_J"] == list(range(1, 1503))


@pytest.mark.parametrize(
    "command, doc, expected",
    [
        (
            "rado",
            {"ground": [f"x{i}" for i in range(40)], "members": [[f"x{i}"] for i in range(40)]},
            {"verdict": True},
        ),
        # 40 empty members over 20 labels first fail at |J| = 21.
        (
            "avoid-rado",
            {"ground": [f"x{i}" for i in range(20)], "members": [[]] * 40},
            {"verdict": False, "witness_J": list(range(1, 22))},
        ),
    ],
    ids=["rado", "avoid-rado"],
)
def test_rado_commands_on_40_members_answer(tmp_path, capsys, command, doc, expected):
    # The augmenting search decides without walking the 2^40 sets J.
    doc = {**doc, "matroid": {"kind": "free"}}
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc))
    assert code == 0 and {key: out[key] for key in expected} == expected


@pytest.mark.parametrize(
    "command, doc, expected",
    [
        (
            "check-transversal",
            {"ground": [f"x{i}" for i in range(20)], "members": [[]] * 40,
             "T": [f"x{i}" for i in range(20)]},
            {"verdict": True},
        ),
        (
            "hall",
            {"ground": [f"x{i}" for i in range(39)],
             "members": [[f"x{i}"] for i in range(39)] + [["x38"]]},
            {"verdict": False, "witness_J": [39, 40]},
        ),
    ],
    ids=["check-transversal", "hall"],
)
def test_matching_commands_on_40_members_answer(tmp_path, capsys, command, doc, expected):
    # The matching decides without walking the 2^40 sets J, at the real caps.
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc))
    assert code == 0 and {key: out[key] for key in expected} == expected


def test_avoid_rado_on_a_30_label_ground_answers(tmp_path, capsys):
    # No basis enumeration: the 2^30 subsets of the ground are never walked.
    ground = [f"x{i}" for i in range(30)]
    doc = {"ground": ground, "members": [ground[2:]] * 3, "matroid": {"kind": "free"}}
    code, out = run_cli(capsys, "avoid-rado", write(tmp_path, "i.json", doc))
    # Free: nu*(X) = |X|, and |X(J)| + |J| = 28 + 3 > 30 first at J = {1, 2, 3}.
    assert code == 0 and out["verdict"] is False and out["witness_J"] == [1, 2, 3]
    doc["members"] = [[x] for x in ground[:10]]
    code, out = run_cli(capsys, "avoid-rado", write(tmp_path, "i.json", doc))
    # x_i+1 for member i avoids it, and distinct labels are free-independent.
    assert code == 0 and out["verdict"] is True


@pytest.mark.parametrize("command", ["q-hall", "check-q-transversal", "build-matroid"])
def test_q_side_families_of_40_members_answer(tmp_path, capsys, command):
    # 40 copies of a line have two meets, V and the line, whatever their
    # 2^40 index sets J; each command answers with the verdict of the
    # presentation matroid, which is rank_one(line).
    from qtransversal import VectorSpaceSpec, field_make, rank_one
    from qtransversal.subspaces import subspace_from_rows

    doc = {"q": 2, "dim": 2, "family": [["10"]] * 40, "subspace": ["01"]}
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc))
    assert code == 0
    spec = VectorSpaceSpec(field_make(2, 1), 2)
    matroid = rank_one(subspace_from_rows(spec, ["10"]))
    if command == "q-hall":
        assert matroid.space_rank < 40
        assert out["verdict"] is False and out["witness_J"] == list(range(1, 41))
    elif command == "check-q-transversal":
        assert matroid.independent(subspace_from_rows(spec, ["01"]))
        assert out["verdict"] is True
        assert out["certificate"]["basis_witnesses"] == [{"avoids_via": [1], "basis": ["01"]}]
    else:
        ranks = [entry["rank"] for entry in out["matroid"]["rank_table"]]
        assert ranks == list(matroid.ranks)


@pytest.mark.parametrize("command", ["q-hall", "check-q-transversal"])
def test_q_side_closure_past_the_walk_cap_exits_3(monkeypatch, tmp_path, capsys, command):
    from qtransversal import subspaces

    # Two copies each of five distinct lines of GF(2)^3: the distinct lines
    # charge the closure 1, 2, 4, 5 and 6 units, the copies nothing, so
    # the fifth line, member 9, passes a cap of 16 at 18.
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 16)
    lines = [["100"], ["010"], ["001"], ["110"], ["101"]]
    doc = {"q": 2, "dim": 3, "family": [x for x in lines for _ in range(2)], "subspace": ["011"]}
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc))
    assert code == 3 and out["error"] == "infeasible-scale"
    assert "meet-closure of 10 members passes the cap 16 at member 9" in out["message"]


def test_build_matroid_past_its_walk_charge_exits_3(monkeypatch, tmp_path, capsys):
    from qtransversal import VectorSpaceSpec, field_make, rank_one, subspaces
    from qtransversal.subspaces import subspace_from_rows

    # build-matroid reads no meet-closure; each member charges the 5
    # subspaces of GF(2)^2, so at a cap of 40 eight copies of a line fit
    # exactly and nine are refused.
    monkeypatch.setattr(subspaces, "SET_WALK_CAP", 40)
    doc = {"q": 2, "dim": 2, "family": [["10"]] * 8}
    code, out = run_cli(capsys, "build-matroid", write(tmp_path, "fits.json", doc))
    assert code == 0
    ranks = [entry["rank"] for entry in out["matroid"]["rank_table"]]
    line = subspace_from_rows(VectorSpaceSpec(field_make(2, 1), 2), ["10"])
    assert ranks == list(rank_one(line).ranks)
    doc["family"].append(["10"])
    code, out = run_cli(capsys, "build-matroid", write(tmp_path, "big.json", doc))
    assert code == 3 and out["error"] == "infeasible-scale"
    assert "presentation of 9 members over 5 subspaces charges 45 units, past the cap 40" in out["message"]



@pytest.mark.parametrize(
    "owner",
    [[-1, -1], [0, 0], [1, 0]],
    ids=["none-on-a-passing-family", "repeated-label", "label-outside-its-member"],
)
def test_hall_rejects_a_matching_it_cannot_confirm(tmp_path, capsys, monkeypatch, owner):
    # The one search passes, and the SDR read from its owners is re-checked:
    # every member must hold exactly one label, from its own set.  owner[a]
    # is the member holding label a: no member holds one, member 1 holds
    # both (once per label), or label a goes to member 2, which is {b}.
    from qtransversal import cli as cli_mod
    from qtransversal.classical import HallVerdict

    monkeypatch.setattr(cli_mod, "_first_failing", lambda *a: (HallVerdict(True, None), owner))
    doc = {"ground": ["a", "b"], "members": [["a", "b"], ["b"]]}
    code, out = run_cli(capsys, "hall", write(tmp_path, "i.json", doc))
    assert code == 4 and out["error"] == "invariant-violation"


def test_hall_rejects_a_witness_that_does_not_violate(tmp_path, capsys, monkeypatch):
    # When the one search fails, its J is re-checked from the sets.
    from qtransversal import cli as cli_mod
    from qtransversal.classical import HallVerdict

    monkeypatch.setattr(cli_mod, "_first_failing", lambda *a: (HallVerdict(False, (1,)), [0]))
    doc = {"ground": ["a"], "members": [["a"], ["a"]]}
    code, out = run_cli(capsys, "hall", write(tmp_path, "i.json", doc))
    assert code == 4 and out["error"] == "invariant-violation"


def test_hall_command_matches_the_library_on_seeded_families(tmp_path, capsys):
    # One search answers the command; its verdict and witness J are
    # hall_check's, and its SDR is find_transversal's labels.
    import random

    from qtransversal import find_transversal, hall_check
    from test_classical import seeded_families

    path = tmp_path / "i.json"
    failing = 0
    for fam in seeded_families(random.Random(31), 500):
        path.write_text(json.dumps(fam.to_jsonable()))
        code, out = run_cli(capsys, "hall", str(path))
        verdict = hall_check(fam)
        assert code == 0 and out["verdict"] is verdict.ok
        if verdict.ok:
            sdr = find_transversal(fam)
            assert out["transversal"] == [sdr[i + 1] for i in range(len(fam))]
        else:
            assert out["witness_J"] == list(verdict.witness_J)
            failing += 1
    assert 100 < failing < 400, failing


_GF2_1_REPRESENTATION = {"ext": {"p": 2, "e": 1, "modulus": "01"}, "matrix": ["1"]}
_RANDOM_SCAN = {"kind": "q-rado", "q": 2, "max_dim": 2, "max_family": 1, "mode": "random", "count": 3}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("q-hall", {"q": 2, "dim": 2.9, "family": [["10"]]}),
        ("q-hall", {"q": 2, "dim": True, "family": [["1"]]}),
        ("q-hall", {"q": 2.5, "dim": 2, "family": [["10"]]}),
        ("scan", {"scan": {"kind": "q-rado", "q": 2, "max_dim": 2.7, "max_family": 1.9}}),
        ("represent-aligned", {"q": 2, "dim": 2, "index_sets": [[1.7, 2]]}),
        (
            "rado",
            {"ground": ["a", "b"], "members": [["a"], ["b"]],
             "matroid": {"kind": "linear", "q": 2.9, "columns": ["1", "1"]}},
        ),
        (
            "verify-representation",
            {"q": 2, "dim": 1, "representation": _GF2_1_REPRESENTATION,
             "matroid": {"rank_table": [{"subspace": [], "rank": 0.4},
                                        {"subspace": ["1"], "rank": 1.4}]}},
        ),
        ("hall", {"ground": "ab", "members": ["ab", "b"]}),
        ("check-transversal", {"ground": ["a", "b"], "members": [["a"]], "T": "ab"}),
        ("q-hall", {"q": 2, "dim": 1, "family": ["10"]}),
        ("check-q-transversal", {"q": 2, "dim": 1, "family": [["1"]], "subspace": "10"}),
        (
            "scan",
            {"scan": {"kind": "representability", "q": 2, "max_dim": 1, "max_family": 1,
                      "max_ext_degree": 1.5}},
        ),
        (
            "rado",
            {"ground": ["a", "b", "c", "d"], "members": [["a"], ["b"]],
             "matroid": {"kind": "linear", "q": 2, "columns": "0101"}},
        ),
        ("scan", {"scan": {**_RANDOM_SCAN, "seed": 1.5}}),
        ("scan", {"scan": {**_RANDOM_SCAN, "seed": True}}),
        (
            "verify-representation",
            {"q": 2, "dim": 1, "family": [[]], "representation": {**_GF2_1_REPRESENTATION, "matrix": "1"}},
        ),
    ],
    ids=[
        "float-dim", "bool-dim", "float-q", "float-scan-bounds", "float-index",
        "float-linear-q", "float-ranks", "string-sets", "string-T", "string-member",
        "string-subspace", "float-ext-degree", "string-columns", "float-seed", "bool-seed",
        "string-matrix",
    ],
)
def test_json_numbers_and_arrays_are_read_exactly(tmp_path, capsys, command, doc):
    # A float, bool or string is not truncated to an int or read as its
    # characters: the input is malformed.
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc))
    assert code == 2 and out["error"] == "malformed-input", out


_CLASSICAL = {"ground": ["a", "b", "c"], "members": [["a"], ["a", "b"]]}
_Q_SIDE = {"q": 2, "dim": 2, "family": [["10"]], "subspace": ["01"]}
_GF2 = {"p": 2, "e": 1, "modulus": "01"}  # the field keys of a replayable payload


@pytest.mark.parametrize(
    "command, doc, patch, message, payload",
    [
        (
            "check-transversal",
            {**_CLASSICAL, "T": ["b", "c"]},
            ("avoiding_transversal_by_injections", lambda t, fam: False),
            "matching on the complements and injection search disagree",
            {"T": ["b", "c"], "family": _CLASSICAL},
        ),
        (
            "check-q-transversal",
            _Q_SIDE,
            ("recheck_certificate", lambda cert, t, fam: False),
            "certificate failed its own re-check",
            {**_Q_SIDE, **_GF2},
        ),
        (
            "check-q-transversal",
            _Q_SIDE,
            ("q_transversal_by_definition", lambda t, fam: False),
            "fast q-transversal test and definitional oracle disagree",
            {**_Q_SIDE, **_GF2},
        ),
    ],
    ids=["check-transversal-oracle", "check-q-transversal-recheck", "check-q-transversal-oracle"],
)
def test_disagreeing_routes_exit_4_with_the_instance(
    tmp_path, capsys, monkeypatch, command, doc, patch, message, payload
):
    from qtransversal import cli as cli_mod

    monkeypatch.setattr(cli_mod, *patch)
    code, out = run_cli(capsys, command, write(tmp_path, "i.json", doc), "--oracle")
    assert code == 4 and out["error"] == "invariant-violation"
    assert out["message"] == message and out["payload"] == payload


_Q_TRUE = {"q": 2, "dim": 3, "family": [["100"], ["010"]], "subspace": ["010", "001"]}
_Q_FALSE = {"q": 4, "dim": 2, "family": [["1000"]], "subspace": ["1000", "0010"]}


def _negated_oracle(t, fam):
    from qtransversal import qtransversals

    return not qtransversals.q_transversal_by_definition(t, fam)


@pytest.mark.parametrize(
    "doc, target, fake, message",
    [
        (
            _Q_TRUE,
            "qtransversal.qtransversals.maximum_matching",
            lambda adj, n: [-1] * len(adj),
            "fast q-transversal test passed but a basis has no avoiding injection",
        ),
        (
            _Q_TRUE,
            "qtransversal.qtransversals.count_bases",
            lambda t: -1,
            "basis enumeration disagrees with the closed-form basis count",
        ),
        *(
            (doc, "qtransversal.cli.recheck_certificate", lambda cert, t, fam: False,
             "certificate failed its own re-check")
            for doc in (_Q_TRUE, _Q_FALSE)
        ),
        *(
            (doc, "qtransversal.cli.q_transversal_by_definition", _negated_oracle,
             "fast q-transversal test and definitional oracle disagree")
            for doc in (_Q_TRUE, _Q_FALSE)
        ),
    ],
    ids=["no-injection", "basis-count", "recheck-true", "recheck-false", "oracle-true", "oracle-false"],
)
def test_q_side_violation_payloads_replay_through_one_call(
    tmp_path, capsys, monkeypatch, doc, target, fake, message
):
    # Each forced violation's payload is a check-q-transversal instance:
    # replayed unpatched with --oracle, it answers with the fast verdict.
    from qtransversal.subspaces import VectorSpaceSpec, family_from_rows, subspace_from_rows

    monkeypatch.setattr(target, fake)
    code, out = run_cli(capsys, "check-q-transversal", write(tmp_path, "i.json", doc), "--oracle")
    assert code == 4 and out["message"] == message
    monkeypatch.undo()
    fam = family_from_rows(VectorSpaceSpec.from_jsonable(doc), doc["family"])
    fast = qtransversal.is_partial_q_transversal(
        subspace_from_rows(fam.spec, doc["subspace"]), fam, with_witness=False
    ).verdict
    code, replay = run_cli(
        capsys, "check-q-transversal", write(tmp_path, "payload.json", out["payload"]), "--oracle"
    )
    assert code == 0 and replay["verdict"] is fast and replay["oracle_verdict"] is fast
    assert replay["instance"] == out["payload"]


def test_rado_command(tmp_path, capsys):
    doc = {
        "ground": ["s1", "s2", "s3"],
        "members": [["s1", "s2"], ["s3"]],
        "matroid": {"kind": "linear", "q": 2, "columns": ["10", "01", "11"]},
    }
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "rado", path)
    assert code == 0 and out["verdict"] is True


def test_rado_rejects_a_column_count_unlike_the_ground(tmp_path, capsys):
    matroid = {"kind": "linear", "q": 2, "columns": ["10", "01", "11"]}
    for ground in (["s1", "s2"], ["s1", "s2", "s3", "s4"]):
        doc = {"ground": ground, "members": [["s1"]], "matroid": matroid}
        code, out = run_cli(capsys, "rado", write(tmp_path, "i.json", doc))
        assert code == 2 and out["message"].startswith("GroundMismatch: ")


def test_avoid_rado_command(tmp_path, capsys):
    matroid = {"kind": "linear", "q": 2, "columns": ["10", "01", "11"]}
    ground = ["s1", "s2", "s3"]
    doc = {"ground": ground, "members": [["s1", "s2"], ["s3"]], "matroid": matroid}
    code, out = run_cli(capsys, "avoid-rado", write(tmp_path, "i.json", doc))
    assert code == 0 and out["verdict"] is True
    assert out["matroid"] == "linear over GF(2)" and "witness_J" not in out
    # X(1) = S has co-nullity 2 = nu*(S), so J = {1} violates the condition.
    doc = {"ground": ground, "members": [ground], "matroid": matroid}
    code, out = run_cli(capsys, "avoid-rado", write(tmp_path, "f.json", doc))
    assert code == 0 and out["verdict"] is False and out["witness_J"] == [1]


def test_check_transversal_command(tmp_path, capsys):
    doc = {
        "ground": ["a", "b", "c"],
        "members": [["a"], ["a", "b"]],
        "T": ["b", "c"],
    }
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "check-transversal", path, "--oracle")
    assert code == 0 and out["verdict"] is True and out["oracle_verdict"] is True


def test_build_and_verify_representation_round_trip(tmp_path, capsys):
    doc = {"q": 2, "dim": 2, "index_sets": [[1]]}
    path = write(tmp_path, "i.json", doc)
    code, rep_out = run_cli(capsys, "represent-aligned", path)
    assert code == 0 and rep_out["verified"] is True

    build_doc = {"q": 2, "dim": 2, "family": [["10"]]}
    path = write(tmp_path, "b.json", build_doc)
    code, matroid_out = run_cli(capsys, "build-matroid", path)
    assert code == 0

    verify_doc = {
        "q": 2,
        "dim": 2,
        "representation": rep_out["representation"],
        "matroid": matroid_out["matroid"],
    }
    path = write(tmp_path, "v.json", verify_doc)
    code, out = run_cli(capsys, "verify-representation", path)
    assert code == 0 and out["verdict"] is True

    # Against the wrong matroid the first disagreement is reported.
    verify_doc["family"] = [["01"]]
    path = write(tmp_path, "v2.json", verify_doc)
    code, out = run_cli(capsys, "verify-representation", path)
    assert code == 0 and out["verdict"] is False
    assert "first_disagreement" in out


def test_represent_aligned_reads_a_coordinate_family(tmp_path, capsys):
    # A family of coordinate subspaces is represented as its index sets are.
    doc = {"q": 2, "dim": 2, "index_sets": [[1]]}
    code, by_sets = run_cli(capsys, "represent-aligned", write(tmp_path, "s.json", doc))
    doc = {"q": 2, "dim": 2, "family": [["10"]]}
    code, by_family = run_cli(capsys, "represent-aligned", write(tmp_path, "f.json", doc))
    assert code == 0 and by_family["verified"] is True
    assert by_family["representation"] == by_sets["representation"]
    doc = {"q": 2, "dim": 2, "family": [["11"]]}
    code, out = run_cli(capsys, "represent-aligned", write(tmp_path, "n.json", doc))
    assert code == 2 and out["message"] == "ValueError: family members are not coordinate subspaces"


def test_reduce_and_minimal_commands(tmp_path, capsys):
    doc = {"q": 2, "dim": 2, "family": [["10"], ["01"], ["10", "01"]]}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "reduce-presentation", path)
    assert code == 0
    assert out["family"] == [["10"], ["01"]]
    assert out["members"] == 2 and out["rank"] == 2

    code, out = run_cli(capsys, "check-minimal", path)
    assert code == 0 and out["verdict"] is False
    assert out["witness"]["index"] == 1
    assert out["witness"]["shrunken_member"] == []


def test_scan_command_and_determinism(tmp_path, capsys):
    doc = {
        "scan": {
            "kind": "representability",
            "q": 2,
            "max_dim": 2,
            "max_family": 1,
            "max_ext_degree": 4,
            "attempts_per_degree": 40,
        }
    }
    path = write(tmp_path, "i.json", doc)
    code1 = main(["scan", path])
    out1 = capsys.readouterr().out
    code2 = main(["scan", path])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without --timing
    report = json.loads(out1)["report"]
    assert report["details"]["found"] == report["instances_checked"]


def test_exit_code_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, out = run_cli(capsys, "q-hall", str(path))
    assert code == 2 and out["error"] == "malformed-input"

    path = write(tmp_path, "bad2.json", {"q": 6, "dim": 2, "family": []})
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 2

    path = write(tmp_path, "bad3.json", {"q": 2, "dim": 2, "family": [["999"]]})
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 2

    path = write(tmp_path, "bad4.json", {"schema": 2, "q": 2, "dim": 2, "family": []})
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 2


def test_exit_code_infeasible(tmp_path, capsys):
    doc = {"scan": {"kind": "q-rado", "q": 2, "max_dim": 5, "max_family": 2}}
    path = write(tmp_path, "i.json", doc)
    code, out = run_cli(capsys, "scan", path)
    assert code == 3 and out["error"] == "infeasible-scale"


_P61 = 2**61 - 1  # a prime


@pytest.mark.parametrize(
    "command, doc",
    [
        ("q-hall", {"q": _P61, "dim": 1, "family": [["1"]]}),
        (
            "rado",
            {"ground": ["a"], "members": [["a"]],
             "matroid": {"kind": "linear", "q": _P61, "columns": ["1"]}},
        ),
        (
            "verify-representation",
            {"q": 2, "dim": 1, "family": [[]],
             "representation": {"ext": {"p": _P61, "e": 1, "modulus": "01"}, "matrix": ["1"]}},
        ),
        ("q-hall", {"q": 2, "dim": 100_000, "family": [[]]}),
        ("scan", {"scan": {"kind": "minimal-uniqueness", "q": 2, "max_dim": 100_000, "max_family": 1}}),
        ("scan", {"scan": {"kind": "minimal-uniqueness", "q": 2, "max_dim": 2, "max_family": 10**8}}),
    ],
    ids=["huge-q", "huge-linear-q", "huge-ext-p", "huge-dim", "huge-max-dim", "huge-max-family"],
)
def test_guards_refuse_before_the_work_they_bound(command, doc):
    # Each cap is read before the trial division, count or sum it bounds,
    # so the refusal comes at once; a fresh process, so a hang times out.
    env = {**os.environ, "PYTHONPATH": str(Path(qtransversal.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "qtransversal.cli", command, "-"],
        input=json.dumps(doc), capture_output=True, text=True, env=env, timeout=10,
    )
    assert run.returncode == 3 and json.loads(run.stdout)["error"] == "infeasible-scale"
    assert "Traceback" not in run.stderr


def test_missing_file_is_malformed(capsys):
    code, out = run_cli(capsys, "q-hall", "/nonexistent/path.json")
    assert code == 2


def test_exit_code_invariant_violation(tmp_path, capsys, monkeypatch):
    # Force a theorem-backed check to fail; the CLI must say so and exit 4.
    from qtransversal.errors import InvariantViolation
    import qtransversal.cli as cli_mod

    def boom(doc, args):
        raise InvariantViolation("procedures disagree", payload={"detail": 1})

    monkeypatch.setitem(cli_mod._COMMANDS, "q-hall", boom)
    path = write(tmp_path, "i.json", {"q": 2, "dim": 2, "family": []})
    code, out = run_cli(capsys, "q-hall", path)
    assert code == 4
    assert out["error"] == "invariant-violation"
    assert "counterexample" in out["meaning"]


def test_verify_representation_rejects_extra_digits(tmp_path, capsys):
    # The matrix a found GF(2)^1 representation holds is ["1"]; a row with
    # extra digits is malformed, as it is for reverify_representation_entry.
    representation = {"ext": {"p": 2, "e": 1, "modulus": "01"}, "matrix": ["1"]}
    doc = {"q": 2, "dim": 1, "family": [[]], "representation": representation}
    code, out = run_cli(capsys, "verify-representation", write(tmp_path, "v.json", doc))
    assert code == 0 and out["verdict"] is True
    representation["matrix"] = ["11111"]
    code, out = run_cli(capsys, "verify-representation", write(tmp_path, "t.json", doc))
    assert code == 2 and out["message"].startswith("DimensionMismatch: ")


def test_verify_representation_names_a_missing_subspace(tmp_path, capsys):
    code, built = run_cli(
        capsys, "build-matroid", write(tmp_path, "b.json", {"q": 2, "dim": 2, "family": [["10"]]})
    )
    assert code == 0
    matroid = built["matroid"]
    dropped = matroid["rank_table"].pop(2)["subspace"]
    doc = {
        "q": 2,
        "dim": 2,
        "matroid": matroid,
        "representation": {"ext": {"p": 2, "e": 1, "modulus": "01"}, "matrix": ["01"]},
    }
    code, out = run_cli(capsys, "verify-representation", write(tmp_path, "v.json", doc))
    assert code == 2
    assert out["message"] == f"IncompleteTable: rank table misses subspace {dropped}"


@pytest.mark.parametrize(
    "extra", [{"subspace": ["10"], "rank": 7}, {"subspace": ["20"], "rank": 1}],
    ids=["repeated", "foreign"],
)
def test_verify_representation_rejects_an_extra_rank_entry(tmp_path, capsys, extra):
    # A repeated subspace would keep its last rank, and rows that name no
    # subspace of GF(2)^2 would be ignored, if the table were read as a dict.
    code, built = run_cli(
        capsys, "build-matroid", write(tmp_path, "b.json", {"q": 2, "dim": 2, "family": [["10"]]})
    )
    assert code == 0
    matroid = built["matroid"]
    doc = {
        "q": 2,
        "dim": 2,
        "matroid": matroid,
        "representation": {"ext": {"p": 2, "e": 1, "modulus": "01"}, "matrix": ["01"]},
    }
    code, out = run_cli(capsys, "verify-representation", write(tmp_path, "v.json", doc))
    assert code == 0 and out["verdict"] is True
    matroid["rank_table"].append(extra)
    code, out = run_cli(capsys, "verify-representation", write(tmp_path, "v.json", doc))
    assert code == 2
    assert out["message"] == "InvalidRankTable: 6 rank table entries for 5 subspaces"


@pytest.mark.parametrize("count", [-3, 0, True, "3"])
def test_random_scan_requires_a_positive_count(tmp_path, capsys, count):
    scan = {"kind": "q-rado", "q": 2, "max_dim": 1, "max_family": 1, "mode": "random", "seed": 1}
    code, out = run_cli(capsys, "scan", write(tmp_path, "i.json", {"scan": {**scan, "count": 2}}))
    assert code == 0 and out["report"]["instances_checked"] > 0
    path = write(tmp_path, "i.json", {"scan": {**scan, "count": count}})
    code, out = run_cli(capsys, "scan", path)
    assert code == 2 and out["message"].startswith("OutOfRange: ")


def test_scan_kinds_come_from_one_table(tmp_path, capsys):
    # An unknown kind is malformed input; a representability block without
    # attempts_per_degree gets the library's default, and one without
    # max_ext_degree is refused.
    scan = {"kind": "nope", "q": 2, "max_dim": 1, "max_family": 1}
    code, out = run_cli(capsys, "scan", write(tmp_path, "i.json", {"scan": scan}))
    assert code == 2 and out["message"] == "ValueError: unknown scan kind 'nope'"
    scan["kind"] = "representability"
    code, out = run_cli(capsys, "scan", write(tmp_path, "i.json", {"scan": {**scan, "max_ext_degree": 1}}))
    default = inspect.signature(scan_representability).parameters["attempts_per_degree"].default
    assert code == 0 and out["report"]["config"]["attempts_per_degree"] == default
    code, out = run_cli(capsys, "scan", write(tmp_path, "i.json", {"scan": scan}))
    assert code == 2


@pytest.mark.parametrize("attempts", [0, -5])
def test_representability_scan_requires_positive_attempts(tmp_path, capsys, attempts):
    scan = {"kind": "representability", "q": 2, "max_dim": 2, "max_family": 1, "max_ext_degree": 2}
    path = write(tmp_path, "i.json", {"scan": {**scan, "attempts_per_degree": attempts}})
    code, out = run_cli(capsys, "scan", path)
    assert code == 2 and out["message"].startswith("OutOfRange: ")


class _Unlisted(errors.Error):
    """An Error subclass the CLI names nowhere."""


# The documented exit codes: every other Error is malformed input.
_ERROR_BODIES = {
    "InfeasibleScale": (3, "infeasible-scale"),
    "ExtensionTooLarge": (3, "infeasible-scale"),
    "InvariantViolation": (4, "invariant-violation"),
}
_ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.Error)
] + [_Unlisted]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    def raises(doc, args):
        raise cls("raised inside a command")

    monkeypatch.setitem(_COMMANDS, "q-hall", raises)
    path = write(tmp_path, "i.json", {"q": 2, "dim": 2, "family": []})
    code, out = run_cli(capsys, "q-hall", path)
    expected = _ERROR_BODIES.get(cls.__name__, (2, "malformed-input"))
    assert (code, out["error"]) == expected
    if code == 2:
        assert out["message"] == f"{cls.__name__}: raised inside a command"


def test_represent_aligned_beyond_the_field_cap_is_infeasible(tmp_path, capsys):
    # Three index sets on GF(2)^4 need GF(2^64), past the 30-bit field cap.
    doc = {"q": 2, "dim": 4, "index_sets": [[1], [2], [3]]}
    code, out = run_cli(capsys, "represent-aligned", write(tmp_path, "i.json", doc))
    assert code == 3 and out["error"] == "infeasible-scale"
    assert "field cap" in out["message"]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_rejects_an_empty_instance(tmp_path, capsys, command):
    code, out = run_cli(capsys, command, write(tmp_path, "empty.json", {}))
    assert code == 2
    assert sorted(out) == ["error", "message", "schema"]
    assert out["error"] == "malformed-input"


@pytest.mark.parametrize(
    "cfg",
    [
        ScanConfig(q=3, max_dim=2, max_family=3),
        ScanConfig(q=4, max_dim=3, max_family=2, mode="random", seed=7, count=50),
    ],
    ids=["exhaustive", "random"],
)
def test_scan_config_round_trips(cfg):
    assert ScanConfig.from_jsonable(cfg.to_jsonable()) == cfg
    # A CLI scan block carries the kind and may carry a stale "shards".
    block = {"kind": "q-rado", "shards": 3, **cfg.to_jsonable()}
    assert ScanConfig.from_jsonable(block) == cfg


def test_a_closed_stdout_ends_with_an_exit_code_not_a_traceback(tmp_path):
    # The read end of the child's stdout pipe is closed before the child
    # writes, so its write of the JSON body fails with EPIPE.
    doc = {"q": 2, "dim": 2, "family": [["10"], ["01"]], "subspace": ["11"]}
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(qtransversal.__file__).parents[1])}
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qtransversal.cli", "check-q-transversal", write(tmp_path, "i.json", doc), "--oracle"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode in (0, 2, 3, 4)
    assert b"Traceback" not in child.stderr
