"""The operations the benchmark times, and the spans of the traced replay.

Each operation takes an optional ``Tracer``.  With none it runs untraced
and calls the cli itself: ``pipeline`` calls ``cli.run_pipeline``, and
``verify_iso`` and ``cartan`` call ``cli.main`` with the document file of
``prepare`` and capture the report it prints.  With a tracer it replays the
same public calls in the same order as ``cli.run_pipeline`` /
``cli.cmd_verify_iso`` / ``cli.cmd_cartan_example``, with one span around
each call, so the traced run times the same program the untraced run does.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from germlab import cli, serialize
from germlab.cartanlab import (
    GridModel,
    WeightFunction,
    build_worked_example,
    verify_conditional_expectation,
)
from germlab.convalg import kernel_equals_ideal, verify_reduced_iso
from germlab.fellbundle import (
    Cocycle,
    FellBundleError,
    GroupoidPresentation,
    TwistedActionPresentation,
    build_bundle,
    is_saturated,
    is_semi_abelian,
    validate_axioms,
)
from germlab.fixtures import rescaled_inclusion_bundle
from germlab.germgpd import build_germ_groupoid, is_hausdorff, map_s_to_Os_injective
from germlab.invsgp import InverseSemigroupError, validate_inverse_semigroup
from germlab.linebundle import build_line_bundle, verify_gelfand_iso
from germlab.serialize import ParseError
from germlab.spaces import validate_action

VERIFY_ISO_RANDOM = 200  # "many random elements" for verify_reduced_iso
VERIFY_ISO_SEED = 0
# The bundle document a cli command reads; written before its timer starts.
DOC_PATH = Path(__file__).resolve().parent / "out" / "bundle.json"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """name -> (self seconds, calls); self time is a span's duration
        minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (t1 - t0) - c, n + 1)
        return out


def _span(tr, name):
    return tr.span(name) if tr is not None else nullcontext()


# ---------------------------------------------------------------------------
# Replays of the cli calls
# ---------------------------------------------------------------------------


def parse_bundle(doc: dict, tr):
    """serialize.parse_bundle, rebuilt from serialize's public helpers so that
    the validators it drives get spans of their own."""
    with tr.span("serialize.parse_bundle"):
        kind = doc.get("kind")
        if kind == "twisted_action":
            sg = doc["semigroup"]
            elements = list(sg["elements"])
            table = [[elements[j] for j in row] for row in sg["mul"]]
            with tr.span("invsgp.validate_inverse_semigroup"):
                S = validate_inverse_semigroup(elements, table, zero=sg.get("zero"))
            space = serialize.parse_space(doc["space"])
            theta = {s: serialize.parse_partial_homeo(space, doc["action"][s])
                     for s in S.elements}
            with tr.span("spaces.validate_action"):
                action = validate_action(S, space, theta)
            entries = {}
            for s, t, val in doc.get("omega", []):
                if isinstance(val, dict):
                    entries[(s, t)] = {serialize.parse_point(space, k): serialize.parse_circle(v)
                                       for k, v in val.items()}
                else:
                    entries[(s, t)] = serialize.parse_circle(val)
            presentation = TwistedActionPresentation(
                S, action, Cocycle(entries), doc.get("grid_resolution", 101))
        elif kind == "groupoid_line_bundle":
            g = serialize.parse_groupoid(doc["groupoid"])
            cocycle = {(a, b): serialize.parse_circle(v) for a, b, v in doc.get("cocycle", [])}
            family = tuple(frozenset(m) for m in doc["subsemigroup"])
            presentation = GroupoidPresentation(g, cocycle, family)
        else:
            raise ParseError("bundle", f"unknown kind {kind!r}")
        with tr.span("fellbundle.build_bundle"):
            return build_bundle(presentation)


def _pipeline_replay(doc: dict, tr: Tracer, options: dict) -> tuple:
    """cli.run_pipeline with a span around every call it makes."""
    report = cli.PipelineReport(inputs={"digest": serialize.digest(doc)})
    seen: dict = {}
    t0 = perf_counter()
    try:
        bundle = parse_bundle(doc, tr)
    except (ParseError, FellBundleError, ValueError) as exc:
        report.record("validate", False, [str(exc)], perf_counter() - t0)
        return report, seen
    seen["bundle"] = bundle
    with tr.span("fellbundle.validate_axioms"):
        axioms = validate_axioms(bundle)
    ok = axioms.ok
    if ok:
        with tr.span("fellbundle.is_semi_abelian"):
            ok = is_semi_abelian(bundle)
    if ok:
        with tr.span("fellbundle.is_saturated"):
            ok = is_saturated(bundle)
    report.record("validate", ok, [str(w) for w in axioms.failures], perf_counter() - t0)
    if not ok:
        return report, seen

    t0 = perf_counter()
    with tr.span("germgpd.build_germ_groupoid"):
        groupoid = build_germ_groupoid(bundle.action)
    seen["groupoid"] = groupoid
    n_germs = len(groupoid.germs) if groupoid.kind == "discrete" else len(groupoid.cells)
    report.record("germs", True, [f"germs={n_germs}"], perf_counter() - t0)

    t0 = perf_counter()
    with tr.span("germgpd.is_hausdorff"):
        hausdorff, witnesses = is_hausdorff(groupoid)
    report.record(
        "hausdorff",
        hausdorff,
        [[serialize.emit_germ(bundle.space, a), serialize.emit_germ(bundle.space, b)]
         for a, b in witnesses],
        perf_counter() - t0,
        informational=not options.get("require_hausdorff", False),
    )

    t0 = perf_counter()
    try:
        with tr.span("linebundle.build_line_bundle"):
            line = build_line_bundle(bundle, groupoid)
    except Exception as exc:  # mirrors cli.run_pipeline, which records any failure here
        report.record("linebundle", False, [str(exc)], perf_counter() - t0)
        return report, seen
    seen["line"] = line
    report.record("linebundle", True, [], perf_counter() - t0)

    if bundle.kind != "discrete":
        return report, seen

    t0 = perf_counter()
    with tr.span("linebundle.verify_gelfand_iso"):
        gelf = verify_gelfand_iso(bundle, line)
    report.record("gelfand", gelf.ok, [str(w) for w in gelf.failures], perf_counter() - t0)

    t0 = perf_counter()
    with tr.span("convalg.kernel_equals_ideal"):
        ker = kernel_equals_ideal(bundle, line)
    report.record("kernel", ker.ok, [f"dim_ker={ker.dim_kernel}", f"dim_ideal={ker.dim_ideal}"],
                  perf_counter() - t0)

    t0 = perf_counter()
    with tr.span("convalg.verify_reduced_iso"):
        red = verify_reduced_iso(bundle, line, rng=random.Random(options.get("seed", 0)),
                                 n_random=options.get("n_random", 50))
    report.record("reduced-iso", red.ok, [str(w) for w in red.failures], perf_counter() - t0)
    return report, seen


def pipeline(doc: dict, tr=None, options=None) -> tuple:
    """`germlab pipeline`: the report document and the objects it built
    (only the traced replay exposes them)."""
    options = options or {}
    if tr is None:
        return cli.run_pipeline(doc, options).to_doc(), {}
    with tr.span("cli.run_pipeline"):
        report, seen = _pipeline_replay(doc, tr, options)
    return report.to_doc(), seen


def verify_iso(doc: dict, tr: Tracer) -> tuple:
    """The stage sequence of cli.cmd_verify_iso on a document; returns the
    report it emits and the objects it built."""
    with tr.span("cli.cmd_verify_iso"):
        bundle = parse_bundle(doc, tr)
        with tr.span("germgpd.build_germ_groupoid"):
            groupoid = build_germ_groupoid(bundle.action)
        with tr.span("linebundle.build_line_bundle"):
            line = build_line_bundle(bundle, groupoid)
        with tr.span("linebundle.verify_gelfand_iso"):
            gelf = verify_gelfand_iso(bundle, line)
        with tr.span("convalg.kernel_equals_ideal"):
            ker = kernel_equals_ideal(bundle, line)
        with tr.span("convalg.verify_reduced_iso"):
            red = verify_reduced_iso(bundle, line, rng=random.Random(VERIFY_ISO_SEED),
                                     n_random=VERIFY_ISO_RANDOM)
        with tr.span("germgpd.map_s_to_Os_injective"):
            inj = map_s_to_Os_injective(bundle)
        report = {
            "report_version": cli.REPORT_VERSION,
            "ok": gelf.ok and ker.ok and red.ok and inj.implication_ok,
            "gelfand": {"ok": gelf.ok, "witnesses": [str(w) for w in gelf.failures]},
            "kernel": {"ok": ker.ok, "dim_kernel": ker.dim_kernel, "dim_ideal": ker.dim_ideal},
            "reduced": {
                "ok": red.ok,
                "witnesses": [str(w) for w in red.failures],
                "algebra_dim": red.algebra_dim,
                "center_dim": red.center_dim,
            },
            "s_to_Os": {
                "injective": inj.injective,
                "witness": inj.witness,
                "continuous": inj.continuous,
                "semi_faithful": inj.semi_faithful,
                "hypotheses_hold": inj.hypotheses_hold,
            },
        }
    return report, {"bundle": bundle, "groupoid": groupoid, "line": line}


def cli_main(argv: list) -> dict:
    """`germlab <argv>` in this process; the report it prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


def cartan(n: int, weight: str, tr=None) -> tuple:
    """The calls of cli.cmd_cartan_example; returns the report it emits."""
    with _span(tr, "cli.cmd_cartan_example"):
        gm = GridModel(n=n)
        const, slope = cli.parse_affine(weight)
        w = WeightFunction.from_callable(gm, lambda x: const + slope * x)
        with _span(tr, "cartanlab.build_worked_example"):
            _, _, bundle, groupoid = build_worked_example(grid_resolution=n)
        with _span(tr, "germgpd.is_hausdorff"):
            ok_h, witnesses = is_hausdorff(groupoid)
        with _span(tr, "cartanlab.verify_conditional_expectation"):
            report = verify_conditional_expectation(gm, w, bundle=bundle)
        out = {
            "report_version": cli.REPORT_VERSION,
            "ok": report.ok,
            "hausdorff": ok_h,
            "hausdorff_witness": [
                [serialize.emit_germ(bundle.space, a), serialize.emit_germ(bundle.space, b)]
                for a, b in witnesses
            ],
            "expectation": {
                "idempotent": report.idempotent,
                "contractive": report.contractive,
                "positive": report.positive,
                "bimodular": report.bimodular,
                "faithful": report.faithful,
                "image_y_independent": report.image_y_independent,
                "fixes_embedded_units": report.fixes_embedded_units,
            },
        }
    return out, {"bundle": bundle, "groupoid": groupoid}


def reject(doc: dict, tr=None) -> tuple:
    """Parse a mutated document, as the validators' API callers do; the
    result names the layer that rejected it and its witness."""
    with _span(tr, "op.reject"):
        try:
            bundle = parse_bundle(doc, tr) if tr is not None else serialize.parse_bundle(doc)
        except InverseSemigroupError as exc:
            return {"layer": "invsgp", "error": type(exc).__name__, "witness": exc.witness}, {}
        except FellBundleError as exc:
            return {"layer": "fellbundle.build_bundle", "error": type(exc).__name__,
                    "witness": exc.witness}, {}
    return {"layer": None}, {"bundle": bundle}


def reject_inclusion(doc: dict, tr=None) -> tuple:
    """validate_axioms on a bundle whose inclusions are rescaled by 2."""
    with _span(tr, "op.reject_inclusion"):
        bundle = parse_bundle(doc, tr) if tr is not None else serialize.parse_bundle(doc)
        bad = rescaled_inclusion_bundle(bundle)
        with _span(tr, "fellbundle.validate_axioms"):
            report = validate_axioms(bad)
    return ({"layer": "fellbundle.validate_axioms", "ok": report.ok,
             "failures": report.failures}, {"bundle": bad})


def prepare(op) -> None:
    """Write the document an untraced cli command reads."""
    if op.kind == "verify_iso":
        DOC_PATH.parent.mkdir(exist_ok=True)
        DOC_PATH.write_text(json.dumps(op.payload), encoding="utf-8")


def run(op, tr=None) -> tuple:
    """Run one operation; returns (result, objects built).  An untraced
    verify_iso reads the document that ``prepare(op)`` wrote."""
    if op.kind == "pipeline":
        return pipeline(op.payload, tr)
    if op.kind == "verify_iso" and tr is None:
        return cli_main(["verify-iso", str(DOC_PATH), "--n-random", str(VERIFY_ISO_RANDOM),
                         "--seed", str(VERIFY_ISO_SEED)]), {}
    if op.kind == "verify_iso":
        return verify_iso(op.payload, tr)
    if op.kind == "cartan" and tr is None:
        n, weight = op.payload
        return cli_main(["cartan-example", "--n", str(n), "--p", weight]), {}
    if op.kind == "cartan":
        return cartan(*op.payload, tr)
    if op.kind in ("reject_table", "reject_cocycle"):
        return reject(op.payload, tr)
    if op.kind == "reject_incl":
        return reject_inclusion(op.payload, tr)
    raise ValueError(f"unknown operation kind {op.kind!r}")
