"""germlab benchmark: time to verdict on four workloads, with per-module spans.

Run from the root of a checkout:

    python3 germbench/run.py --workload discrete-pipeline --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller: the next input is sent only after the
previous verdict.  Every verdict is checked against a known answer
(``oracle.py``).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-module ones
from a separate traced replay.  A run record with the environment, sample
counts, the tracing overhead and, for a traced run, every span is written to
``germbench/out/``.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

# Small matrices: one BLAS thread keeps runs steady on a shared machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 100  # p90 needs ten samples beyond it
SETUP_REPEATS = 9
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import germlab, germlab.cli, germlab.fixtures; print(time.perf_counter() - t)"
)

END_TO_END = [
    # name, unit, better, bound
    ("bundles_per_s", "1/s", "higher", 0.25),
    ("verdict_p50_ms", "ms", "lower", 0.25),
    ("verdict_p90_ms", "ms", "lower", 0.25),
    ("verdict_ok_share", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Per-module metrics; germbench/README.md says which end-to-end metric and
# workload each should move.
SPANS = (
    "serialize.parse_bundle", "invsgp.validate_inverse_semigroup", "spaces.validate_action",
    "fellbundle.build_bundle", "fellbundle.validate_axioms", "fellbundle.is_semi_abelian",
    "fellbundle.is_saturated", "germgpd.build_germ_groupoid", "germgpd.is_hausdorff",
    "germgpd.map_s_to_Os_injective", "linebundle.build_line_bundle",
    "linebundle.verify_gelfand_iso", "convalg.kernel_equals_ideal",
    "convalg.verify_reduced_iso", "cartanlab.build_worked_example",
    "cartanlab.verify_conditional_expectation",
)
CALLS = ("serialize.parse_bundle", "fellbundle.validate_axioms", "convalg.verify_reduced_iso")
COUNTS = ("sizes.S_max", "sizes.X_max", "sizes.basis_dim_sum", "sizes.germs_sum",
          "sizes.max_Gx", "fellbundle.axiom_basis_triples", "convalg.lmul_products",
          "reject.invsgp", "reject.cocycle", "reject.axioms")
PER_LAYER = (
    # name, unit, better
    [(f"{name}.self_s", "s", "lower") for name in SPANS]
    + [(f"{name}.calls", "count", "lower") for name in CALLS]
    + [
        ("fellbundle.validate_axioms.ns_per_basis_triple", "ns", "lower"),
        ("cli.run_pipeline.unstaged_s", "s", "lower"),
        ("fellbundle.mul.us_per_call", "us", "lower"),
        ("fellbundle.star.us_per_call", "us", "lower"),
        ("convalg.regular_rep.matrix.us_per_call", "us", "lower"),
        ("spaces.RationalSet.union.us_per_call", "us", "lower"),
        ("spaces.RationalSet.intersect.us_per_call", "us", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    + [(name, "count", "higher") for name in COUNTS]
)
REJECT_COUNTS = {"reject.invsgp": "reject_table", "reject.cocycle": "reject_cocycle",
                 "reject.axioms": "reject_incl"}
PROBE_PAIRS_PER_BUNDLE = 64
PROBE_REPEATS = 5


def fail(message: str) -> int:
    print(f"germbench: {message}", file=sys.stderr)
    return 2


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import germlab in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(make_ops) -> tuple:
    """Median over SETUP_REPEATS of import time plus input generation."""
    times, ops = [], None
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        ops = make_ops()
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), ops


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------


class Tally:
    """Outcomes of a closed loop of operations."""

    def __init__(self, golden):
        self.golden = golden
        self.durations: list = []
        self.failed = 0
        self.unstaged = 0.0
        self.failures: list = []

    def run(self, op, ops, oracle, tracer=None):
        error = None
        ops.prepare(op)
        t0 = time.perf_counter()
        try:
            result, seen = ops.run(op, tracer)
        except Exception as exc:  # a raising operation is a failed one
            result, seen = None, {}
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        if result is None or not oracle.check(op, result, self.golden):
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"kind": op.kind, "expect": repr(op.expect)[:200],
                                      "got": error if result is None else
                                      repr(oracle.observed(op, result))[:400]})
        elif op.kind == "pipeline":
            self.unstaged += dt - sum(st["seconds"] for st in result["stages"])
        return seen


def timed_run(plan, first_ops, seconds, warmup, tally, ops, oracle):
    """Closed loop over whole rounds until ``seconds`` of wall time and
    MIN_SAMPLES verdicts; whole rounds keep the mix of every run the same."""
    pending = deque(first_ops)
    for op in warmup:
        ops.prepare(op)
        ops.run(op)
    t_start = time.perf_counter()
    while True:
        tally.run(pending.popleft(), ops, oracle)
        if not pending:
            if (time.perf_counter() - t_start >= seconds
                    and len(tally.durations) >= MIN_SAMPLES):
                return
            pending.extend(plan.round())


def end_to_end(tally, setup_s) -> tuple:
    d = sorted(tally.durations)
    n = len(d)
    metrics = {
        "bundles_per_s": n / sum(d),
        "verdict_p50_ms": statistics.median(d) * 1e3,
        "verdict_p90_ms": percentile(d, 0.9) * 1e3,
        "verdict_ok_share": (n - tally.failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    samples = {"verdict_p50_ms": n, "verdict_p90_ms": n,
               "beyond_p90": n - math.ceil(0.9 * n)}
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def basis_dim(bundle) -> int:
    return sum(len(bundle.fiber_basis(s)) for s in bundle.semigroup.elements)


def counts(tracer, seen_by_op: list) -> dict:
    """Exact counts computed from the traced run's inputs and spans."""
    c = dict.fromkeys(("sizes.S_max", "sizes.X_max", "sizes.basis_dim_sum", "sizes.germs_sum",
                       "sizes.max_Gx", "fellbundle.axiom_basis_triples",
                       "convalg.lmul_products"), 0)
    for seen in seen_by_op:
        b, g = seen.get("bundle"), seen.get("groupoid")
        if b is not None:
            c["sizes.S_max"] = max(c["sizes.S_max"], len(b.semigroup.elements))
            if b.kind == "discrete":
                c["sizes.X_max"] = max(c["sizes.X_max"], len(b.space.points))
            c["sizes.basis_dim_sum"] += basis_dim(b)
        if g is not None:
            discrete = g.kind == "discrete"
            c["sizes.germs_sum"] += len(g.germs) if discrete else len(g.cells)
            if discrete:
                c["sizes.max_Gx"] = max([c["sizes.max_Gx"]] + [
                    len(g.germs_with_source(x)) for x in g.action.space.points])
    for name, _, _, _, op_id in tracer.spans:
        b = seen_by_op[op_id].get("bundle")
        if name == "fellbundle.validate_axioms":
            c["fellbundle.axiom_basis_triples"] += basis_dim(b) ** 3
        elif name == "convalg.verify_reduced_iso":
            c["convalg.lmul_products"] += basis_dim(b) ** 2
    return c


def _per_call(calls: list) -> float:
    """Median over PROBE_REPEATS of the mean time per call, in microseconds."""
    if not calls:
        return 0.0
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for f, args in calls:
            f(*args)
        times.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(times) * 1e6


def probes(seen_by_op: list) -> dict:
    """Kernel probes: public methods called over the workload's own inputs."""
    from germlab.convalg import BundleAlgebraElement, algebra_basis, psi_map, regular_rep
    from germlab.spaces import RationalSet

    mul, star, matrix, union, intersect = [], [], [], [], []
    for seen in seen_by_op:
        b = seen.get("bundle")
        if b is None:
            continue
        basis = [a for s in b.semigroup.elements for a in b.fiber_basis(s)]
        pairs = [(a, c) for a in basis for c in basis][:PROBE_PAIRS_PER_BUNDLE]
        mul += [(b.mul, pair) for pair in pairs]
        star += [(b.star, (a,)) for a in basis[:PROBE_PAIRS_PER_BUNDLE]]
        line, g = seen.get("line"), seen.get("groupoid")
        if line is not None and b.kind == "discrete" and g.units:
            rep = regular_rep(line, g.source(next(iter(sorted(g.units, key=repr)))))
            xis = [psi_map(BundleAlgebraElement({s: a}), b, line)
                   for s, a in algebra_basis(b)[:PROBE_PAIRS_PER_BUNDLE]]
            matrix += [(rep.matrix, (xi,)) for xi in xis]
        if b.kind == "interval":
            sets = [b.action.domain_of(s) for s in b.semigroup.elements]
            if g is not None:
                sets += [RationalSet((cell.piece,)) for cell in g.cells]
            sets += [u.complement_in(b.space) for u in list(sets)]
            union += [(u.union, (v,)) for u in sets for v in sets]
            intersect += [(u.intersect, (v,)) for u in sets for v in sets]
    return {
        "fellbundle.mul.us_per_call": _per_call(mul),
        "fellbundle.star.us_per_call": _per_call(star),
        "convalg.regular_rep.matrix.us_per_call": _per_call(matrix),
        "spaces.RationalSet.union.us_per_call": _per_call(union),
        "spaces.RationalSet.intersect.us_per_call": _per_call(intersect),
    }


def traced_run(ops_untraced, ops_traced, warmup, golden, ops, oracle) -> tuple:
    """The same work twice, on documents that differ only in their labels:
    each operation untraced, then traced, so that both passes see the same
    warm caches and the same machine."""
    for op in warmup:
        ops.prepare(op)
        ops.run(op)
    plain = Tally(golden)
    tracer = ops.Tracer()
    traced = Tally(golden)
    seen_by_op = []
    for i, (op, op_traced) in enumerate(zip(ops_untraced, ops_traced, strict=True)):
        plain.run(op, ops, oracle)
        tracer.op_id = i
        seen_by_op.append(traced.run(op_traced, ops, oracle, tracer))

    metrics = {}
    self_times = tracer.self_times()
    for name in SPANS:
        metrics[f"{name}.self_s"] = self_times.get(name, (0.0, 0))[0]
    for name in CALLS:
        metrics[f"{name}.calls"] = self_times.get(name, (0.0, 0))[1]
    c = counts(tracer, seen_by_op)
    triples = c["fellbundle.axiom_basis_triples"]
    metrics["fellbundle.validate_axioms.ns_per_basis_triple"] = (
        metrics["fellbundle.validate_axioms.self_s"] / triples * 1e9 if triples else 0.0)
    metrics["cli.run_pipeline.unstaged_s"] = plain.unstaged
    metrics.update(probes(seen_by_op))
    metrics["trace.overhead_s"] = sum(traced.durations) - sum(plain.durations)
    metrics.update(c)
    for name, kind in REJECT_COUNTS.items():
        metrics[name] = sum(op.kind == kind for op in ops_traced)
    record = {
        "untraced_wall_s": sum(plain.durations),
        "traced_wall_s": sum(traced.durations),
        "spans": [["name", "start_s", "end_s", "parent", "op"]] + tracer.spans,
        "failures": plain.failures + traced.failures,
    }
    return metrics, plain, traced, record


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "germlab" / "__init__.py").is_file():
        return fail(f"no germlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import germlab
    import inputs
    import oracle
    import ops

    if Path(germlab.__file__).resolve().parent != (SRC / "germlab").resolve():
        return fail(f"germlab was imported from {germlab.__file__}, not from {SRC}")
    if args.workload not in inputs.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}")
    golden = inputs.load_golden()
    spec = inputs.WORKLOADS[args.workload]

    def warmup_ops():
        plan = inputs.Plan(args.workload, args.seed, golden, tag_suffix="w")
        return plan.build(spec["round"][0])

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    if args.trace == 0:
        def make_ops():
            plan = inputs.Plan(args.workload, args.seed, golden)
            return plan, plan.first() + plan.round()

        setup_s, (plan, first_ops) = set_up(make_ops)
        tally = Tally(golden)
        timed_run(plan, first_ops, args.seconds, warmup_ops(), tally, ops, oracle)
        metrics, samples = end_to_end(tally, setup_s)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        record["samples"] = samples
        record["failures"] = tally.failures
    else:
        def make_traced_ops(suffix):
            plan = inputs.Plan(args.workload, args.seed, golden, tag_suffix=suffix)
            return plan.first() + [op for _ in range(spec["trace_rounds"]) for op in plan.round()]

        ops_untraced, ops_traced = make_traced_ops(""), make_traced_ops("t")
        metrics, tally, traced, trace_record = traced_run(
            ops_untraced, ops_traced, warmup_ops(), golden, ops, oracle)
        tally.failed += traced.failed
        tally.durations += traced.durations
        units = {name: unit for name, unit, _ in PER_LAYER}
        record.update(trace_record)

    attempted = len(tally.durations)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
