"""The three benchmark workloads: inputs, timed ops and correctness gates.

Every workload turns the workload seed into inputs during set-up; the
library only ever sees the generated inputs.  Ops run as a closed loop
from one client.  A round is a fixed list of op kinds whose contents are
seeded; the timed phase repeats the round, so every run has the same op
mix whatever the seed.  Each timing is scaled to nominal seconds by the
host's speed sampled during the op (see hostspeed), and an op's latency
is the least of its timings: what the sampling leaves, such as a
preemption inside a short op, only ever slows an op.
All calls into the library go through module attributes (``qt.f``,
``qt.conjectures.f``) so that the tracer's wrappers see them.  Gates run
after the timed phase and check each op's verdict against a route
independent of the one that produced it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import qtransversal as qt
from qtransversal import conjectures

# Passed to every scan so that the work does not depend on the scale
# guard's estimate (today's guard refuses q-rado (2, 4, 1) as ~428k
# instances and random q-rado at q=3 as ~2.44M); above both estimates.
INSTANCE_CAP = 10_000_000
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str
    slot: int
    raw_s: float
    latency_s: float  # nominal seconds (see hostspeed)
    output: object = None
    error: str | None = None
    instances: int = 1
    extra: dict = field(default_factory=dict)


def space(q: int, n: int):
    p, e = qt.prime_power(q)
    return qt.VectorSpaceSpec(qt.field_make(p, e), n)


def random_subspace(rng: random.Random, spec, dim: int):
    q = spec.field.order
    while True:
        vectors = [tuple(rng.randrange(q) for _ in range(spec.dim)) for _ in range(dim)]
        s = qt.canonicalize(spec, vectors)
        if s.dim == dim:
            return s


def coordinate_subspace(spec, index_set):
    unit = [tuple(int(j == i - 1) for j in range(spec.dim)) for i in sorted(index_set)]
    return qt.canonicalize(spec, unit)


def ranks_by_fast_test(fam) -> list[int]:
    """Presentation-matroid ranks from the fast q-transversal test alone:
    r(A) is the largest dimension of a partial q-transversal below A."""
    lattice = qt.get_lattice(fam.spec)
    indep = [
        qt.is_partial_q_transversal(s, fam, with_witness=False).verdict
        for s in lattice.subspaces
    ]
    return [
        max(lattice.dims[b] for b in lattice.below[i] if indep[b])
        for i in range(len(lattice))
    ]


def q_transversal_condition(t, fam) -> bool:
    """The partial q-transversal condition, dim(T meet X(J)) + |J| <= n for
    every J, evaluated with Zassenhaus meets rather than the library's
    lattice tables, so that input generation does not rest on the code it
    measures."""
    n = len(fam)
    for mask in range(1 << n):
        x = t
        for i in range(n):
            if mask >> i & 1:
                x = qt.meet(x, fam.members[i])
        if x.dim + mask.bit_count() > n:
            return False
    return True


def parse_representation(spec, block: dict):
    ext_info = block["ext"]
    ext = qt.field_make(
        int(ext_info["p"]), int(ext_info["e"]),
        qt.fields.modulus_from_string(ext_info["modulus"]),
    )
    matrix = tuple(
        tuple(ext.parse_code(row[i * ext.e : (i + 1) * ext.e]) for i in range(spec.dim))
        for row in block["matrix"]
    )
    return qt.QRepresentation(spec, ext, matrix)


def representation_error(rep, fam) -> str | None:
    """Represented ranks must equal the fast-test ranks on every subspace."""
    lattice = qt.get_lattice(fam.spec)
    expected = ranks_by_fast_test(fam)
    for s, r in zip(lattice.subspaces, expected):
        if qt.represented_rank(rep, s) != r:
            return f"represented rank of {s.to_rows()} differs from the fast-test rank {r}"
    return None


def reverify_scan(records: list[dict], reverify) -> str | None:
    bad = [r["instance_index"] for r in records if not reverify(r)]
    return f"counterexamples {bad} fail their re-verification" if bad else None


class Workload:
    name = ""
    in_process = True  # the ops run in the benchmark's own process
    # metric name -> op kinds whose instances per second it reports
    timed_kinds: dict = {}

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def run_round(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def gate(self, ops: list[Op]) -> list[str]:
        """One failure message per failing op.  The first run of each op is
        checked by check(); its repeats must give the same result."""
        failures, seen = [], {}
        for op in ops:
            if op.error:
                problem = op.error
            elif op.slot in seen:
                same = self.result(op) == seen[op.slot]
                problem = None if same else "result differs from the op's first run"
            else:
                seen[op.slot] = self.result(op)
                try:
                    problem = self.check(op)
                except Exception as exc:  # a check that cannot finish is a failure
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"{op.kind} {op.slot}: {problem}")
        return failures

    def result(self, op: Op):
        """What must repeat exactly when an op runs again."""
        return op.output

    def check(self, op: Op) -> str | None:
        """None, or what is wrong with the op's result."""
        raise NotImplementedError

    @staticmethod
    def fastest(ops: list[Op]) -> list[Op]:
        """The fastest timing of each distinct op, in op order."""
        best = {}
        for op in ops:
            if op.slot not in best or op.latency_s < best[op.slot].latency_s:
                best[op.slot] = op
        return [best[slot] for slot in sorted(best)]

    def ops_per_s(self, ops: list[Op]) -> float:
        return len(ops) / sum(op.latency_s for op in ops)

    def rates(self, ops: list[Op]) -> dict:
        """Instances per second of the op kinds named in timed_kinds."""
        out = {}
        for metric, kinds in self.timed_kinds.items():
            picked = [op for op in ops if op.kind in kinds]
            out[metric] = sum(op.instances for op in picked) / sum(
                op.latency_s for op in picked
            )
        return out

    def counts(self, ops: list[Op]) -> dict:
        """Exact work counts worth recording beside the metrics."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# -- scan ---------------------------------------------------------------


class ScanWorkload(Workload):
    """Conjecture scans in-process: many tiny instances on small lattices."""

    name = "scan"
    timed_kinds = {
        "qrado_pairs_per_s": ("q-rado", "q-rado-random"),
        "uniqueness_families_per_s": ("minimal-uniqueness",),
    }

    def setup(self):
        cfg = conjectures.ScanConfig
        # (kind, config, exact instances_checked or None, exact matroids_per_dim)
        self.scans = (
            ("q-rado", cfg(q=2, max_dim=4, max_family=1), 38_258,
             {"1": 2, "2": 6, "3": 32, "4": 554}),
            ("minimal-uniqueness", cfg(q=2, max_dim=3, max_family=3), 4_540, None),
            ("q-rado-random",
             cfg(q=3, max_dim=3, max_family=3, mode="random", seed=self.seed, count=3000),
             None, {"1": 2, "2": 7, "3": 56}),
        )
        for q, dims in ((2, 4), (3, 3)):
            for n in range(1, dims + 1):
                qt.get_lattice(space(q, n))

    def run_round(self, tracer=None):
        ops = []
        for slot, (kind, cfg, _, _) in enumerate(self.scans):
            fn = (
                conjectures.scan_minimal_uniqueness
                if kind == "minimal-uniqueness"
                else conjectures.scan_q_rado
            )
            mark = hostspeed.SAMPLER.clock()
            try:
                report = fn(cfg, instance_cap=INSTANCE_CAP)
                error, instances = None, report.instances_checked
            except Exception as exc:  # a failed op is counted, not fatal
                report, error, instances = None, f"{type(exc).__name__}: {exc}", 1
            raw, nominal = hostspeed.SAMPLER.elapsed(mark)
            ops.append(Op(kind, slot, raw, nominal, report, error, instances))
        return ops

    def result(self, op):
        return op.output.to_jsonable()

    def check(self, op):
        kind, _, expected_count, expected_pool = self.scans[op.slot]
        report = op.output
        problems = []
        if expected_count is not None and report.instances_checked != expected_count:
            problems.append(f"instances_checked {report.instances_checked} != {expected_count}")
        if expected_pool is not None and report.details["matroids_per_dim"] != expected_pool:
            problems.append(f"matroids_per_dim {report.details['matroids_per_dim']}")
        reverify = (
            conjectures.reverify_minimal_uniqueness
            if kind == "minimal-uniqueness"
            else conjectures.reverify_q_rado
        )
        bad = reverify_scan(report.counterexamples, reverify)
        if bad:
            problems.append(bad)
        return "; ".join(problems) or None

    def ops_per_s(self, ops):
        # An op of ops_per_s is one scan instance; latencies stay per scan call.
        return sum(op.instances for op in ops) / sum(op.latency_s for op in ops)

    def counts(self, ops) -> dict:
        return {
            f"{op.kind}.matroids_per_dim": op.output.details["matroids_per_dim"]
            for op in self.fastest(ops)
            if op.kind != "minimal-uniqueness"
        }


# -- certify ------------------------------------------------------------

# (q, n, dim T, family size, verdict, ops per round, calls per timing).
# Sorted by cost, a round is: 28 ops under 0.3 ms, 6 near 1.5 ms, 30
# GF(4)^3 plane checks near 3 ms (the median falls in their middle), 12
# aligned constructions, 20 full-space GF(2)^4 witnesses near 60 ms (p90
# falls in their middle) and 4 heavy ops: the GF(4)^3 and GF(3)^3
# full-space witnesses and the representability scan.  An op cheaper than
# about 20 ms is called several times back to back in one timing, so that
# the host's speed is sampled during it (see hostspeed); its latency is
# the timing over the number of calls.
CHECK_PLAN = (
    (4, 3, 1, 3, True, 6, 128),
    (3, 3, 1, 3, True, 6, 64),
    (2, 4, 1, 4, True, 6, 128),
    (2, 4, 2, 4, True, 7, 128),
    (3, 3, 2, 3, False, 1, 256),
    (2, 4, 2, 4, False, 2, 128),
    (2, 4, 3, 4, True, 6, 16),
    (4, 3, 2, 3, True, 30, 8),
    (2, 4, 4, 4, True, 20, 1),
    (4, 3, 3, 3, True, 1, 1),
    (3, 3, 3, 3, True, 2, 1),
)
# (q, n, number of index sets, ops per round, calls per timing); degree
# n^k = 16 and 9.
ALIGNED_PLAN = ((2, 4, 2, 6, 2), (3, 3, 2, 6, 2))
ORACLE_SAMPLE = 8
# The definitional oracle enumerates every basis of T; GF(4)^3 with
# dim T = 3 has 39,711 candidate vector sets, too slow for the gate.
ORACLE_MAX_BASES = 5_000


class CertifyWorkload(Workload):
    """Certified decisions in-process: witnesses and representations.

    A round holds 100 ops, so p90 has ten samples beyond it.  The op mix
    puts the median and p90 inside groups of ops of one kind and size,
    not on the edge between two groups (see CHECK_PLAN).
    """

    name = "certify"
    timed_kinds = {"repr_instances_per_s": ("repr-scan",)}

    def setup(self):
        rng = random.Random(f"certify:{self.seed}")
        for q, n in ((4, 3), (3, 3), (2, 4), (2, 1), (2, 2), (2, 3)):
            qt.get_lattice(space(q, n))
        # Extension fields of the aligned constructions (degree n^k) and of
        # the representability scan's search (degrees 1..3 over GF(2)).
        for p, e in ((2, 2), (2, 3), (2, 4), (2, 9), (2, 16), (3, 3), (3, 9)):
            ext = qt.field_make(p, e)
            ext.mul_codes(ext.order - 1, ext.order - 1)
        specs = []
        for q, n, tdim, size, verdict, count, calls in CHECK_PLAN:
            for _ in range(count):
                t, fam = self._check_instance(rng, space(q, n), tdim, size, verdict)
                specs.append(("check", t, fam, calls))
        for q, n, k, count, calls in ALIGNED_PLAN:
            for _ in range(count):
                sets = tuple(
                    frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
                    for _ in range(k)
                )
                specs.append(("aligned", qt.AlignedFamily(space(q, n), sets), calls))
        specs.append(("repr-scan", conjectures.ScanConfig(
            q=2, max_dim=3, max_family=2, seed=self.seed), 1))
        # Interleave the groups, so that a slow spell of the host does not
        # fall on one group and move its percentile.
        rng.shuffle(specs)
        self.specs = specs
        eligible = [
            slot for slot, spec in enumerate(specs)
            if spec[0] == "check" and qt.subspaces.count_bases(spec[1]) <= ORACLE_MAX_BASES
        ]
        self.oracle_slots = set(rng.sample(eligible, ORACLE_SAMPLE))

    @staticmethod
    def _check_instance(rng, spec, tdim, size, verdict):
        lattice = qt.get_lattice(spec)
        # Large members make violations likely; small ones make them rare.
        pool = lattice.subspaces if verdict else [
            s for s in lattice.subspaces if s.dim >= spec.dim - 1
        ]
        for _ in range(10_000):
            t = lattice.subspaces[rng.choice(lattice.by_dim[tdim])]
            fam = qt.SubspaceFamily(spec, tuple(rng.choice(pool) for _ in range(size)))
            if q_transversal_condition(t, fam) == verdict:
                return t, fam
        raise RuntimeError(f"no {verdict} instance found on {spec}")

    def run_round(self, tracer=None):
        ops = []
        for slot, spec in enumerate(self.specs):
            kind, calls = spec[0], spec[-1]
            error = None
            instances = 1
            mark = hostspeed.SAMPLER.clock()
            output = None
            try:
                for _ in range(calls):
                    if kind == "check":
                        t, fam = spec[1], spec[2]
                        cert = qt.is_partial_q_transversal(t, fam, with_witness=True)
                        if not qt.recheck_certificate(cert, t, fam):
                            error = "certificate failed its re-check"
                        # Keep the verdict only: a GF(4)^3 full-space certificate
                        # holds 30,240 bases, and keeping one per round would
                        # make peak RSS depend on the number of rounds.
                        output = cert.verdict
                    elif kind == "aligned":
                        output = qt.build_aligned_representation(spec[1])
                    else:
                        output = conjectures.scan_representability(
                            spec[1], max_ext_degree=3, attempts_per_degree=20,
                            instance_cap=INSTANCE_CAP,
                        )
                        instances = output.instances_checked
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            raw, nominal = hostspeed.SAMPLER.elapsed(mark)
            ops.append(Op(kind, slot, raw / calls, nominal / calls, output, error, instances))
        return ops

    def result(self, op):
        return op.output if op.kind == "check" else op.output.to_jsonable()

    def check(self, op):
        spec = self.specs[op.slot]
        if op.kind == "check":
            t, fam = spec[1], spec[2]
            matroid_route = qt.presentation_matroid(fam).independent(t)
            if op.output != matroid_route:
                return "fast test and presentation matroid disagree"
            if op.slot in self.oracle_slots and qt.q_transversal_by_definition(t, fam) != matroid_route:
                return "definitional oracle disagrees"
            return None
        if op.kind == "aligned":
            return representation_error(op.output, spec[1].induced_family())
        report = op.output
        if report.instances_checked != 311:
            return f"instances_checked {report.instances_checked} != 311"
        if not all(
            conjectures.reverify_representation_entry(entry)
            for entry in report.details["instances"]
        ):
            return "a found representation fails its re-verification"
        return None


# -- cli-cold -----------------------------------------------------------


class CliColdWorkload(Workload):
    """One fresh interpreter per op, as a CLI user runs it.

    Each op is ``child.py``, which runs ``qtransversal.cli.main`` as
    ``python -m qtransversal.cli`` would and samples the host's speed in
    the same process; the kernel's seconds are taken out of the op's.
    """

    name = "cli-cold"
    in_process = False
    small_scan = {"kind": "q-rado", "q": 2, "max_dim": 3, "max_family": 1}

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.workdir = root / ".perfbench_out" / f"cli-cold-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        specs = self._make_round(random.Random(f"cli-cold:{self.seed}"))
        self.round = []
        for slot, (cmd, family, t, flags) in enumerate(specs):
            if cmd == "scan":
                doc = {"scan": self.small_scan}
            else:
                doc = {"q": family.spec.field.order, "dim": family.spec.dim,
                       "family": family.to_rows()}
                if t is not None:
                    doc["subspace"] = t.to_rows()
            path = self.workdir / f"{slot}-{cmd}.json"
            path.write_text(json.dumps(doc))
            self.round.append((cmd, family, t, flags, path))

    @staticmethod
    def _make_round(rng):
        """Eight ops, one per command, over GF(2)^5 (S=374) and GF(3)^4 (S=212)."""
        s25, s34 = space(2, 5), space(3, 4)

        def fam(spec, size):
            return qt.SubspaceFamily(
                spec, tuple(random_subspace(rng, spec, rng.randint(1, 3)) for _ in range(size))
            )

        # Three distinct lines and any 3-dim T: a q-transversal by construction,
        # so the op always pays for the witness and the oracle.
        lines = []
        while len(lines) < 3:
            line = random_subspace(rng, s34, 1)
            if line not in lines:
                lines.append(line)
        aligned = qt.SubspaceFamily(
            s34,
            tuple(
                coordinate_subspace(s34, rng.sample(range(1, 5), rng.randint(1, 3)))
                for _ in range(2)
            ),
        )
        return [
            ("q-hall", fam(s25, 4), None, ()),
            ("check-q-transversal", qt.SubspaceFamily(s34, tuple(lines)),
             random_subspace(rng, s34, 3), ("--oracle",)),
            ("build-matroid", fam(s25, 3), None, ()),
            ("reduce-presentation", fam(s34, 5), None, ()),
            ("check-minimal", fam(s25, 3), None, ()),
            ("represent-aligned", aligned, None, ()),
            # Verifies the matrix the previous op printed.
            ("verify-representation", aligned, None, ()),
            ("scan", None, None, ()),
        ]

    def run_round(self, tracer=None):
        ops = []
        for slot, (cmd, _, _, flags, path) in enumerate(self.round):
            if cmd == "verify-representation":
                previous = ops[-1]
                doc = json.loads(path.read_text())
                if previous.error is None:
                    doc["representation"] = json.loads(previous.output)["representation"]
                path.write_text(json.dumps(doc))
            child_out = path.with_suffix(".child.json")
            child_out.unlink(missing_ok=True)
            argv = [sys.executable, str(Path(__file__).parent / "child.py"), str(child_out),
                    "1" if tracer is not None else "0", cmd, str(path), *flags]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    argv, cwd=self.root, env=self.env, capture_output=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
                output = proc.stdout.decode()
            except subprocess.TimeoutExpired:
                error, output = "timed out", ""
            wall = time.perf_counter() - start
            if child_out.is_file():
                doc = json.loads(child_out.read_text())
                # The child sampled the host's speed while it ran.
                raw = wall - doc["kernel_s"]
                op = Op(cmd, slot, raw, raw * doc["speed"], output, error)
            else:
                doc = None
                op = Op(cmd, slot, wall, wall, output, error)
            if tracer is not None and doc is not None and error is None:
                tracer.merge(doc)
                op.extra = {"overhead_s": op.raw_s - doc["main_s"],
                            "output_bytes": len(proc.stdout)}
            ops.append(op)
        return ops

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self, op):
        cmd, family, t, _, _ = self.round[op.slot]
        out = json.loads(op.output)
        return getattr(self, "_gate_" + cmd.replace("-", "_"))(out, family, t)

    # Each _gate_<command> returns None or a description of the mismatch.

    def _gate_q_hall(self, out, fam, t):
        full = qt.presentation_matroid(fam).space_rank == len(fam)
        if out["verdict"] != full:
            return "verdict differs from the presentation matroid's rank"
        if not full:
            j = out["witness_J"]
            if qt.family_meet(fam, j).dim + len(j) <= fam.spec.dim:
                return f"witness J={j} does not violate the q-Hall condition"
        return None

    def _gate_check_q_transversal(self, out, fam, t):
        spec = fam.spec
        if not (out["verdict"] and out["oracle_verdict"]):
            return "a q-transversal by construction was rejected"
        cert = qt.QTransversalCertificate(
            True,
            basis_witnesses=tuple(
                (tuple(qt.subspaces.vector_from_string(spec, v) for v in w["basis"]),
                 tuple(w["avoids_via"]))
                for w in out["certificate"]["basis_witnesses"]
            ),
        )
        if not qt.presentation_matroid(fam).independent(t):
            return "the matroid route disagrees"
        if not qt.recheck_certificate(cert, t, fam):
            return "the certificate fails its re-check"
        return None

    def _gate_build_matroid(self, out, fam, t):
        lattice = qt.get_lattice(fam.spec)
        ranks = [0] * len(lattice)
        for entry in out["matroid"]["rank_table"]:
            s = qt.subspaces.subspace_from_rows(fam.spec, entry["subspace"])
            ranks[lattice.idx(s)] = entry["rank"]
        if ranks != ranks_by_fast_test(fam):
            return "rank table differs from the fast-test ranks"
        return None

    def _gate_reduce_presentation(self, out, fam, t):
        reduced = qt.subspaces.family_from_rows(fam.spec, out["family"])
        full = qt.presentation_matroid(fam)
        if not (out["members"] == len(reduced) == out["rank"] == full.space_rank):
            return "member count differs from the rank"
        if qt.presentation_matroid(reduced) != full:
            return "the reduced family presents another matroid"
        if Counter(reduced.members) - Counter(fam.members):
            return "the reduced family is not a subfamily"
        return None

    def _gate_check_minimal(self, out, fam, t):
        matroid = qt.presentation_matroid(fam)
        lattice = matroid.lattice
        if not out["verdict"]:
            w = out["witness"]
            pos = w["index"] - 1
            shrunk = qt.subspaces.subspace_from_rows(fam.spec, w["shrunken_member"])
            member = fam.members[pos]
            replacement = fam.members[:pos] + (shrunk,) + fam.members[pos + 1:]
            if not (qt.leq(shrunk, member) and shrunk.dim < member.dim):
                return "the shrunken member is not a proper subspace"
            if qt.presentation_matroid(qt.SubspaceFamily(fam.spec, replacement)) != matroid:
                return "the shrunken family presents another matroid"
            return None
        # Minimal: no member can drop to one of its hyperplanes (by
        # monotonicity this covers every proper subspace).
        for pos, member in enumerate(fam.members):
            mi = lattice.idx(member)
            for h in lattice.below[mi]:
                if lattice.dims[h] != member.dim - 1:
                    continue
                members = fam.members[:pos] + (lattice.subspaces[h],) + fam.members[pos + 1:]
                if qt.presentation_matroid(qt.SubspaceFamily(fam.spec, members)) == matroid:
                    return f"member {pos + 1} can shrink, yet the verdict is minimal"
        return None

    def _gate_represent_aligned(self, out, fam, t):
        rep = parse_representation(fam.spec, out["representation"])
        return representation_error(rep, fam)

    def _gate_verify_representation(self, out, fam, t):
        # The matrix is the aligned construction the previous op emitted and
        # its own gate checked; a correct verifier accepts it.
        return None if out["verdict"] is True else "a valid representation was rejected"

    def _gate_scan(self, out, fam, t):
        report = out["report"]
        if report["instances_checked"] != 586:
            return f"instances_checked {report['instances_checked']} != 586"
        if report["details"]["matroids_per_dim"] != {"1": 2, "2": 6, "3": 32}:
            return f"matroids_per_dim {report['details']['matroids_per_dim']}"
        return reverify_scan(report["counterexamples"], conjectures.reverify_q_rado)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliColdWorkload, ScanWorkload, CertifyWorkload)}
