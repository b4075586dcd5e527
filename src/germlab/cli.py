"""Command-line front end: parsing, pipeline orchestration, reports.

Exit codes: 0 all mandatory stages pass, 1 verification failure, 2 input
error.  A Hausdorffness FAIL is informational unless --require-hausdorff.
All reports carry "report_version": 1 and are deterministic given inputs
and seed (modulo the timing fields).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from germlab import serialize
from germlab.fellbundle import (
    FellBundle,
    FellBundleError,
    is_saturated,
    is_semi_abelian,
    validate_axioms,
)
from germlab.germgpd import Germ, build_germ_groupoid, is_hausdorff, map_s_to_Os_injective
from germlab.linebundle import (
    LineBundleError,
    build_line_bundle,
    round_trip,
    verify_gelfand_iso,
)
from germlab.serialize import ParseError

REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineReport:
    stages: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    ok: bool = True

    def record(self, name, verdict, witnesses=(), seconds=0.0, informational=False):
        self.stages.append(
            {
                "name": name,
                "verdict": "pass" if verdict else "fail",
                "witnesses": list(witnesses),
                "seconds": round(seconds, 6),
                "informational": informational,
            }
        )
        if not verdict and not informational:
            self.ok = False

    def to_doc(self):
        return {
            "report_version": REPORT_VERSION,
            "ok": self.ok,
            "stages": self.stages,
            "inputs": self.inputs,
        }


def run_pipeline(bundle_doc: dict, options: dict | None = None) -> PipelineReport:
    """validate -> germs -> hausdorff -> linebundle -> gelfand ->
    (discrete only) kernel + reduced-iso.  Stops at the first structural
    error; verification failures are recorded and the run continues."""
    options = options or {}
    report = PipelineReport(inputs={"digest": serialize.digest(bundle_doc)})

    t0 = time.perf_counter()
    try:
        bundle = serialize.parse_bundle(bundle_doc)
    except (ParseError, FellBundleError, ValueError) as exc:
        report.record("validate", False, [str(exc)], time.perf_counter() - t0)
        return report
    axioms = validate_axioms(bundle)
    ok = axioms.ok and is_semi_abelian(bundle) and is_saturated(bundle)
    report.record("validate", ok, [str(w) for w in axioms.failures], time.perf_counter() - t0)
    if not ok:
        return report

    t0 = time.perf_counter()
    groupoid = build_germ_groupoid(bundle.action)
    n_germs = len(groupoid.germs) if groupoid.kind == "discrete" else len(groupoid.cells)
    report.record("germs", True, [f"germs={n_germs}"], time.perf_counter() - t0)

    t0 = time.perf_counter()
    hausdorff, witnesses = is_hausdorff(groupoid)
    report.record(
        "hausdorff",
        hausdorff,
        [[serialize.emit_germ(bundle.space, a), serialize.emit_germ(bundle.space, b)]
         for a, b in witnesses],
        time.perf_counter() - t0,
        informational=not options.get("require_hausdorff", False),
    )

    t0 = time.perf_counter()
    try:
        line = build_line_bundle(bundle, groupoid)
    except LineBundleError as exc:
        report.record("linebundle", False, [str(exc)], time.perf_counter() - t0)
        return report
    report.record("linebundle", True, [], time.perf_counter() - t0)

    if bundle.kind != "discrete":
        return report

    t0 = time.perf_counter()
    gelf = verify_gelfand_iso(bundle, line)
    report.record("gelfand", gelf.ok, [str(w) for w in gelf.failures],
                  time.perf_counter() - t0)

    from germlab.convalg import kernel_equals_ideal, verify_reduced_iso

    t0 = time.perf_counter()
    ker = kernel_equals_ideal(bundle, line)
    report.record("kernel", ker.ok,
                  [f"dim_ker={ker.dim_kernel}", f"dim_ideal={ker.dim_ideal}"],
                  time.perf_counter() - t0)

    t0 = time.perf_counter()
    red = verify_reduced_iso(
        bundle, line, rng=random.Random(options.get("seed", 0)),
        n_random=options.get("n_random", 50),
    )
    report.record("reduced-iso", red.ok, [str(w) for w in red.failures],
                  time.perf_counter() - t0)
    return report


# ---------------------------------------------------------------------------
# Fixture documents
# ---------------------------------------------------------------------------


def seeded_random_fixture(seed: int, max_elements: int = 8, max_points: int = 16) -> dict:
    from germlab.fixtures import random_bundle

    if max_elements > 16 or max_points > 32:
        raise ValueError("size limits: |S| <= 16, |X| <= 32")
    bundle = random_bundle(seed, max_elements=max_elements, max_points=max_points)
    return serialize.emit_bundle(bundle)


NAMED_FIXTURES = ("z2-flip", "semilattice-01", "zero-bundle", "worked-example", "z4-cocycle")


def named_fixture(name: str) -> dict:
    from germlab import fixtures

    builders = {
        "z2-flip": fixtures.z2_flip_bundle,
        "semilattice-01": fixtures.semilattice_01_bundle,
        "zero-bundle": fixtures.zero_bundle,
        "worked-example": fixtures.worked_example_bundle,
        "z4-cocycle": fixtures.z4_cocycle_bundle,
    }
    if name not in builders:
        raise ValueError(f"unknown fixture {name!r}; choose from {NAMED_FIXTURES}")
    return serialize.emit_bundle(builders[name]())


# ---------------------------------------------------------------------------
# Tiny affine-expression parser for --p (exact rationals)
# ---------------------------------------------------------------------------


def parse_affine(expr: str):
    """Parse an affine rational expression in x ("1-x/2", "1/2", "x") into
    the pair (constant, slope) of Fractions."""
    tokens = _tokenize(expr)
    value, rest = _parse_sum(tokens)
    if rest:
        raise ParseError("affine", f"trailing input {rest!r}")
    return value


def _tokenize(expr: str):
    out, i = [], 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            out.append(("num", int(expr[i:j])))
            i = j
        elif ch in "+-*/()x":
            out.append((ch, ch))
            i += 1
        else:
            raise ParseError("affine", f"bad character {ch!r}")
    return out


def _parse_sum(tokens):
    value, tokens = _parse_term(tokens)
    while tokens and tokens[0][0] in "+-":
        op = tokens[0][0]
        rhs, tokens = _parse_term(tokens[1:])
        value = _aff_add(value, rhs, 1 if op == "+" else -1)
    return value, tokens


def _parse_term(tokens):
    value, tokens = _parse_atom(tokens)
    while tokens and tokens[0][0] in "*/":
        op = tokens[0][0]
        rhs, tokens = _parse_atom(tokens[1:])
        value = _aff_mul(value, rhs) if op == "*" else _aff_div(value, rhs)
    return value, tokens


def _parse_atom(tokens):
    if not tokens:
        raise ParseError("affine", "unexpected end of input")
    kind, val = tokens[0]
    if kind == "num":
        return (Fraction(val), Fraction(0)), tokens[1:]
    if kind == "x":
        return (Fraction(0), Fraction(1)), tokens[1:]
    if kind == "-":
        inner, rest = _parse_atom(tokens[1:])
        return (-inner[0], -inner[1]), rest
    if kind == "(":
        inner, rest = _parse_sum(tokens[1:])
        if not rest or rest[0][0] != ")":
            raise ParseError("affine", "unbalanced parentheses")
        return inner, rest[1:]
    raise ParseError("affine", f"unexpected token {val!r}")


def _aff_add(a, b, sign):
    return (a[0] + sign * b[0], a[1] + sign * b[1])


def _aff_mul(a, b):
    if a[1] != 0 and b[1] != 0:
        raise ParseError("affine", "expression is not affine in x")
    if a[1] == 0:
        return (a[0] * b[0], a[0] * b[1])
    return (a[0] * b[0], a[1] * b[0])


def _aff_div(a, b):
    if b[1] != 0:
        raise ParseError("affine", "division by an expression in x")
    return (a[0] / b[0], a[1] / b[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_validate(args) -> int:
    doc = _load(args.bundle)
    t0 = time.perf_counter()
    try:
        bundle = serialize.parse_bundle(doc)
    except (ParseError, FellBundleError, ValueError) as exc:
        _emit({"report_version": REPORT_VERSION, "ok": False, "error": str(exc)})
        return 2
    axioms = validate_axioms(bundle)
    out = {
        "report_version": REPORT_VERSION,
        "ok": axioms.ok,
        "axiom_failures": [str(w) for w in axioms.failures],
        "semi_abelian": is_semi_abelian(bundle),
        "saturated": is_saturated(bundle),
        "seconds": round(time.perf_counter() - t0, 6),
    }
    _emit(out)
    return 0 if axioms.ok else 1


def _bundle_and_groupoid(path, discrete_stages=()):
    """Parse the bundle and build its germ groupoid.  A command whose
    ``discrete_stages`` the interval model lacks refuses interval input."""
    bundle = serialize.parse_bundle(_load(path))
    if discrete_stages and bundle.kind != "discrete":
        raise ParseError(
            "bundle", f"the {bundle.kind} model lacks the stages "
            f"{', '.join(discrete_stages)}; this command needs a discrete bundle")
    return bundle, build_germ_groupoid(bundle.action)


def cmd_germs(args) -> int:
    bundle, groupoid = _bundle_and_groupoid(args.bundle)
    if groupoid.kind == "discrete":
        germs = [serialize.emit_germ(bundle.space, g) for g in groupoid.germs]
        units = [serialize.emit_germ(bundle.space, g) for g in groupoid.units]
    else:
        germs = [[c.s, serialize.emit_piece(c.piece)] for c in groupoid.cells]
        units = [
            [c.s, serialize.emit_piece(c.piece)]
            for c in groupoid.cells
            if groupoid.is_unit(Germ(c.s, c.sample()))
        ]
    _emit({"report_version": REPORT_VERSION, "germs": germs, "units": units})
    return 0


def cmd_hausdorff(args) -> int:
    bundle, groupoid = _bundle_and_groupoid(args.bundle)
    ok, witnesses = is_hausdorff(groupoid)
    _emit(
        {
            "report_version": REPORT_VERSION,
            "hausdorff": ok,
            "witness": None if ok else [
                serialize.emit_germ(bundle.space, witnesses[0][0]),
                serialize.emit_germ(bundle.space, witnesses[0][1]),
            ],
            "all_witnesses": [
                [serialize.emit_germ(bundle.space, a), serialize.emit_germ(bundle.space, b)]
                for a, b in witnesses
            ],
        }
    )
    if not ok and args.require_hausdorff:
        return 1
    return 0


def cmd_linebundle(args) -> int:
    bundle, groupoid = _bundle_and_groupoid(args.bundle)
    line = build_line_bundle(bundle, groupoid)
    space = bundle.space

    def gkey(g):
        if groupoid.kind == "discrete":
            return serialize.emit_germ(space, g)
        return [g.s, serialize.emit_piece(g.piece)]

    out = {
        "report_version": REPORT_VERSION,
        "refs": [[gkey(g), getattr(line.refs[g], "s", None)] for g in line.refs],
        "mulc": [[gkey(a), gkey(b), serialize.emit_complex(v)] for (a, b), v in line.mulc.items()],
        "starc": [[gkey(a), serialize.emit_complex(v)] for a, v in line.starc.items()],
    }
    _emit(out)
    return 0


def cmd_norms(args) -> int:
    from germlab.convalg import reduced_norm, regular_rep

    bundle, groupoid = _bundle_and_groupoid(args.bundle, ("norms",))
    line = build_line_bundle(bundle, groupoid)
    sections = serialize.parse_sections_doc(_load(args.elements), bundle, groupoid)
    out = []
    import numpy as np

    for name, xi in sections:
        per_unit = {}
        for u in groupoid.units:
            x = groupoid.source(u)
            m = regular_rep(line, x).matrix(xi)
            per_unit[str(x)] = float(np.linalg.norm(m, 2)) if m.size else 0.0
        out.append(
            {"element": name, "reduced_norm": reduced_norm(line, xi), "per_unit": per_unit}
        )
    _emit({"report_version": REPORT_VERSION, "norms": out})
    return 0


def cmd_verify_iso(args) -> int:
    from germlab.convalg import kernel_equals_ideal, verify_reduced_iso

    bundle, groupoid = _bundle_and_groupoid(args.bundle, ("gelfand", "kernel", "reduced-iso"))
    line = build_line_bundle(bundle, groupoid)
    gelf = verify_gelfand_iso(bundle, line)
    ker = kernel_equals_ideal(bundle, line)
    red = verify_reduced_iso(bundle, line, rng=random.Random(args.seed),
                             n_random=args.n_random)
    inj = map_s_to_Os_injective(bundle)
    ok = gelf.ok and ker.ok and red.ok and inj.implication_ok
    _emit(
        {
            "report_version": REPORT_VERSION,
            "ok": ok,
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
    )
    return 0 if ok else 1


def cmd_round_trip(args) -> int:
    doc = _load(args.input)
    g, cocycle, family = serialize.parse_twisted_groupoid_doc(doc)
    report = round_trip(g, cocycle, family)
    _emit(
        {
            "report_version": REPORT_VERSION,
            "ok": report.ok,
            "exact": report.exact,
            "germs": report.n_germs,
            "witnesses": [str(w) for w in report.failures],
        }
    )
    return 0 if report.ok else 1


def cmd_cartan_example(args) -> int:
    from germlab.cartanlab import (
        GridModel,
        WeightFunction,
        build_worked_example,
        verify_conditional_expectation,
    )

    gm = GridModel(n=args.n)
    const, slope = parse_affine(args.p)
    pfun = lambda x: const + slope * x  # noqa: E731
    if pfun(Fraction(0)) != 1:
        _emit({"report_version": REPORT_VERSION, "ok": False, "error": "p(0) must be 1"})
        return 2
    weight = WeightFunction.from_callable(gm, pfun)
    S, action, bundle, groupoid = build_worked_example(grid_resolution=args.n)
    ok_h, witnesses = is_hausdorff(groupoid)
    report = verify_conditional_expectation(gm, weight, bundle=bundle)
    _emit(
        {
            "report_version": REPORT_VERSION,
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
    )
    return 0 if report.ok else 1


def cmd_gen_fixture(args) -> int:
    if args.name:
        _emit(named_fixture(args.name))
        return 0
    _emit(seeded_random_fixture(args.seed, args.max_elements, args.max_points))
    return 0


def cmd_pipeline(args) -> int:
    doc = _load(args.bundle)
    report = run_pipeline(
        doc,
        {"require_hausdorff": args.require_hausdorff, "n_random": args.n_random,
         "seed": args.seed},
    )
    _emit(report.to_doc())
    if any(s["verdict"] == "fail" and s["name"] == "validate" for s in report.stages):
        return 2
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="germlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom-check a bundle document")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("germs", help="emit the germ table")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_germs)

    p = sub.add_parser("hausdorff", help="exact Hausdorffness decision")
    p.add_argument("bundle")
    p.add_argument("--require-hausdorff", action="store_true")
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("linebundle", help="emit references and structure constants")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_linebundle)

    p = sub.add_parser("norms", help="reduced norms of listed sections")
    p.add_argument("bundle")
    p.add_argument("--elements", required=True)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("verify-iso", help="Gelfand, kernel and reduced-algebra checks")
    p.add_argument("bundle")
    p.add_argument("--n-random", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_iso)

    p = sub.add_parser("round-trip", help="twisted groupoid round trip")
    p.add_argument("input")
    p.set_defaults(func=cmd_round_trip)

    p = sub.add_parser("cartan-example", help="the worked non-Hausdorff example")
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--p", default="1-x/2")
    p.set_defaults(func=cmd_cartan_example)

    p = sub.add_parser("gen-fixture", help="generate bundle documents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", choices=NAMED_FIXTURES, default=None)
    p.add_argument("--max-elements", type=int, default=8)
    p.add_argument("--max-points", type=int, default=16)
    p.set_defaults(func=cmd_gen_fixture)

    p = sub.add_parser("pipeline", help="run the full verification pipeline")
    p.add_argument("bundle")
    p.add_argument("--require-hausdorff", action="store_true")
    p.add_argument("--n-random", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"report_version": REPORT_VERSION, "ok": False,
                          "error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
