"""JSON-in, JSON-out command line front end.

Every command reads one instance file (or - for stdin), prints a JSON
result with the witnesses needed to re-check the verdict, and exits 0.
Exit codes: 2 malformed input, 3 infeasible scale, 4 internal invariant
violation (a bug or a counterexample to a theorem; the payload says
which procedures disagreed).  All numbers are exact integers; there is
no floating point anywhere in the outputs.

The --oracle flag on check-q-transversal additionally runs the
brute-force definitional test and fails loudly (exit 4) if the two
routes disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import conjectures
from .classical import (
    ClassicalMatroid,
    SetFamily,
    _first_failing,
    avoid_rado_check,
    avoiding_transversal_by_injections,
    avoiding_transversal_check,
    rado_check,
)
from .errors import Error, InfeasibleScale, InvariantViolation, OutOfRange
from .fields import field_make, json_array, json_int, prime_power
from .qmatroids import QMatroid
from .qtransversals import (
    _instance,
    is_minimal_presentation,
    is_partial_q_transversal,
    presentation_matroid,
    q_hall,
    q_transversal_by_definition,
    recheck_certificate,
    reduce_presentation,
)
from .representation import (
    AlignedFamily,
    QRepresentation,
    aligned_from_family,
    build_aligned_representation,
    represented_rank,
    verify_representation,
)
from .subspaces import (
    SubspaceFamily,
    VectorSpaceSpec,
    family_from_rows,
    get_lattice,
    subspace_from_rows,
)

SCHEMA = 1


def _load(path: str) -> dict:
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}, expected {SCHEMA}")
    return doc


def _set_family(doc: dict) -> SetFamily:
    return SetFamily(
        tuple(json_array(doc["ground"], "ground")),
        tuple(frozenset(json_array(m, "member")) for m in json_array(doc["members"], "members")),
    )


def _classical_matroid(doc: dict, ground) -> ClassicalMatroid:
    block = doc["matroid"]
    if not isinstance(block, dict):
        raise OutOfRange(f"matroid must be an object, got {block!r}")
    kind = block.get("kind", "free")
    if kind == "free":
        return ClassicalMatroid.free(ground)
    if kind == "linear":
        p, e = prime_power(json_int(block["q"], "q"))
        fieldspec = field_make(p, e)
        columns = [fieldspec.parse_codes(col) for col in json_array(block["columns"], "columns")]
        return ClassicalMatroid.linear(ground, fieldspec, columns)
    raise ValueError(f"unknown classical matroid kind {kind!r}")


def _q_family(doc: dict) -> SubspaceFamily:
    """The family of subspaces a q-side instance names by "q", "dim" and "family"."""
    return family_from_rows(VectorSpaceSpec.from_jsonable(doc), doc["family"])


# Each command returns (payload, instance): main prints them with the
# schema and the command name, or the error body when one raises.


def _cmd_hall(doc, args):
    """One augmenting search decides.  On success the SDR is read from the
    labels' owners and re-checked: every member holds exactly one label,
    from its own set.  On failure |A(J)| < |J| is re-checked from the sets."""
    fam = _set_family(doc)
    verdict, owner = _first_failing(fam.masks(), len(fam.ground), lambda mask: True)
    if verdict.ok:
        held = [[] for _ in fam.members]
        for label, u in zip(fam.ground, owner):
            if u >= 0:
                held[u].append(label)
        if any(len(h) != 1 or h[0] not in member for h, member in zip(held, fam.members)):
            raise InvariantViolation(
                "the augmenting search returned a set that is not a transversal",
                payload=fam.to_jsonable(),
            )
        return {"verdict": True, "transversal": [h[0] for h in held]}, fam.to_jsonable()
    j = verdict.witness_J or ()
    if len(frozenset().union(*(fam.members[i - 1] for i in j))) >= len(j):
        raise InvariantViolation(
            "the augmenting search found no transversal but the Hall witness J does not violate",
            payload=fam.to_jsonable(),
        )
    return {"verdict": False, "witness_J": list(j)}, fam.to_jsonable()


def _cmd_rado(check, doc, args):
    """rado and avoid-rado, which differ only in the check they call."""
    fam = _set_family(doc)
    matroid = _classical_matroid(doc, fam.ground)
    verdict = check(matroid, fam)
    payload = {"verdict": verdict.ok, "matroid": matroid.provenance}
    if not verdict.ok:
        payload["witness_J"] = list(verdict.witness_J)
    return payload, doc


def _cmd_check_transversal(doc, args):
    fam = _set_family(doc)
    t = frozenset(json_array(doc["T"], "T"))
    verdict = avoiding_transversal_check(t, fam)
    payload = {"verdict": verdict}
    if args.oracle:
        oracle = avoiding_transversal_by_injections(t, fam)
        payload["oracle_verdict"] = oracle
        if oracle != verdict:
            raise InvariantViolation(
                "matching on the complements and injection search disagree",
                payload={"T": sorted(t), "family": fam.to_jsonable()},
            )
    return payload, doc


def _cmd_q_hall(doc, args):
    verdict = q_hall(_q_family(doc))
    payload = {"verdict": verdict.ok}
    if not verdict.ok:
        payload["witness_J"] = list(verdict.witness_J)
    return payload, doc


def _cmd_check_q_transversal(doc, args):
    fam = _q_family(doc)
    t = subspace_from_rows(fam.spec, doc["subspace"])
    cert = is_partial_q_transversal(t, fam)
    if not recheck_certificate(cert, t, fam):
        raise InvariantViolation(
            "certificate failed its own re-check",
            payload=_instance(t, fam),
        )
    payload = {"verdict": cert.verdict, "certificate": cert.to_jsonable(fam.spec)}
    if args.oracle:
        oracle = q_transversal_by_definition(t, fam)
        payload["oracle_verdict"] = oracle
        if oracle != cert.verdict:
            raise InvariantViolation(
                "fast q-transversal test and definitional oracle disagree",
                payload=_instance(t, fam),
            )
    return payload, doc


def _cmd_build_matroid(doc, args):
    return {"matroid": presentation_matroid(_q_family(doc)).to_jsonable()}, doc


def _cmd_reduce_presentation(doc, args):
    fam = _q_family(doc)
    reduced = reduce_presentation(fam)
    payload = {
        "family": reduced.to_rows(),
        "members": len(reduced),
        "rank": len(reduced),
    }
    return payload, doc


def _cmd_check_minimal(doc, args):
    report = is_minimal_presentation(_q_family(doc))
    payload = {"verdict": report.minimal}
    if not report.minimal:
        payload["witness"] = {
            "index": report.witness_index,
            "shrunken_member": report.shrunken_member.to_rows(),
            "replacement_family": report.replacement.to_rows(),
        }
    return payload, doc


def _cmd_represent_aligned(doc, args):
    spec = VectorSpaceSpec.from_jsonable(doc)
    if "index_sets" in doc:
        sets = json_array(doc["index_sets"], "index_sets")
        aligned = AlignedFamily(spec, tuple(frozenset(json_array(s, "index set")) for s in sets))
    else:
        aligned = aligned_from_family(_q_family(doc))
        if aligned is None:
            raise ValueError("family members are not coordinate subspaces")
    rep = build_aligned_representation(aligned, minimize_degree=args.minimize_degree)
    payload = {
        "representation": rep.to_jsonable(),
        "verified": True,
        "ext_degree_over_base": rep.ext.e // spec.field.e,
    }
    return payload, doc


def _cmd_verify_representation(doc, args):
    spec = VectorSpaceSpec.from_jsonable(doc)
    rep = QRepresentation.from_jsonable(spec, doc["representation"])
    if "family" in doc:
        matroid = presentation_matroid(family_from_rows(spec, doc["family"]))
    else:
        matroid = QMatroid.from_jsonable(get_lattice(spec), doc["matroid"])
    ok, bad = verify_representation(rep, matroid)
    payload = {"verdict": ok}
    if not ok:
        payload["first_disagreement"] = {
            "subspace": bad.to_rows(),
            "represented_rank": represented_rank(rep, bad),
            "expected_rank": matroid.rank(bad),
        }
    return payload, doc


def _cmd_scan(doc, args):
    block = doc["scan"]
    cfg = conjectures.ScanConfig.from_jsonable(block)
    kind = block["kind"]
    if kind not in conjectures.SCAN_KINDS:
        raise ValueError(f"unknown scan kind {kind!r}")
    scan, _, names = conjectures.SCAN_KINDS[kind]
    # Only the parameters the block holds: a missing one takes the scan's default.
    params = {name: json_int(block[name], name) for name in names if name in block}
    report = getattr(conjectures, scan)(cfg, **params)
    return {"report": report.to_jsonable(include_timing=args.timing)}, doc


_COMMANDS = {
    "hall": _cmd_hall,
    "rado": partial(_cmd_rado, rado_check),
    "avoid-rado": partial(_cmd_rado, avoid_rado_check),
    "check-transversal": _cmd_check_transversal,
    "q-hall": _cmd_q_hall,
    "check-q-transversal": _cmd_check_q_transversal,
    "build-matroid": _cmd_build_matroid,
    "reduce-presentation": _cmd_reduce_presentation,
    "check-minimal": _cmd_check_minimal,
    "represent-aligned": _cmd_represent_aligned,
    "verify-representation": _cmd_verify_representation,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qtransversal",
        description="q-matroid and q-transversal decision procedures with JSON certificates",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="path to a JSON instance file, or - for stdin")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force definitional path and cross-check",
    )
    parser.add_argument(
        "--minimize-degree",
        action="store_true",
        help="represent-aligned: search for the smallest working extension degree",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="scan: include wall-clock time in the report (breaks byte-for-byte determinism)",
    )
    args = parser.parse_args(argv)
    try:
        payload, instance = _COMMANDS[args.command](_load(args.input), args)
        code, body = 0, {"command": args.command, "instance": instance, **payload}
    except InvariantViolation as exc:
        code, body = 4, {
            "error": "invariant-violation",
            "message": str(exc),
            "payload": exc.payload,
            "meaning": "a bug or a counterexample to a verified theorem",
        }
    except InfeasibleScale as exc:
        code, body = 3, {"error": "infeasible-scale", "message": str(exc)}
    except (Error, ValueError, KeyError, TypeError, OSError) as exc:
        code, body = 2, {"error": "malformed-input", "message": f"{type(exc).__name__}: {exc}"}
    try:
        sys.stdout.write(json.dumps({"schema": SCHEMA, **body}, sort_keys=True, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; devnull keeps the flush at exit from raising.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
