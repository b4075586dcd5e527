"""Known answers for every benchmark operation.

Where the theory gives an answer it is written here independently of the
code under test:

* seeded random bundles, named fixtures, pair and group groupoids are valid
  by construction, so every pipeline stage passes;
* a discrete germ groupoid is Hausdorff;
* Psi is onto C_c(G), so dim ker Psi = dim ideal = basis dimension - germs;
* the regular representation of a finite twisted groupoid is faithful, so
  the reduced algebra has dimension |G|;
* pair groupoid on k points: (k^2, 1); Z/n: (n, n); z2-flip: (4, 1);
* the worked example is not Hausdorff, with the single witness ((1,0),(s,0));
* the weight 1-x/2 is faithful and p = 1 is not;
* each mutant is rejected by the layer its certificate names, with the
  certificate as witness.

Every other deterministic report field is compared with ``golden.json``,
recorded from the library by running this file:

    python3 germbench/oracle.py        # rewrites germbench/golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - golden recording
    ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

WORKED_WITNESS = [[["1", "0"], ["s", "0"]]]
FAITHFUL = {"1-x/2": True, "1": False}
THEORY_DIMS = {"z2-flip": (4, 1), "pair-3": (9, 1), "pair-4": (16, 1), "group-8": (8, 8)}
FIXTURES = inputs.DISCRETE_NAMED + ("rook-3", "pair-2", "pair-3", "pair-4", "group-8")
CERTIFICATE_ERRORS = {"assoc": "NotAssociative", "inverse": "NoUniqueInverse",
                      "idem": "IdempotentsDoNotCommute"}
PIPELINE_STAGES = ("validate", "germs", "hausdorff", "linebundle", "gelfand", "kernel",
                   "reduced-iso")


def digest(doc: dict) -> str:
    """sha256 of the canonical JSON text, first 16 hex digits."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def basis_dim(doc: dict) -> int:
    """Sum over s of dim A_s, read from a discrete document."""
    if doc["kind"] == "groupoid_line_bundle":
        return sum(len(m) for m in doc["subsemigroup"])
    return sum(len(m.get("map", {})) for m in doc["action"].values())


def plain(obj):
    """JSON-comparable form: tuples to lists, complex to [re, im], labels
    with their rename tag removed."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {plain(k): plain(v) for k, v in obj.items()}
    return inputs.strip(obj) if isinstance(obj, str) else obj


def _golden_entry(golden, op) -> dict:
    if "fixture" in op.expect:
        return golden["fixtures"][op.expect["fixture"]]
    size, seed = op.expect["catalogue"]
    return golden["catalogue"][size][seed]


def _stage(name, ok=True, witnesses=(), informational=False):
    return {"name": name, "verdict": "pass" if ok else "fail", "witnesses": list(witnesses),
            "informational": informational}


def expected(op, golden: dict) -> dict:
    """The known answer of one operation, in the form ``observed`` gives."""
    if op.kind == "pipeline" and "worked" in op.expect:
        n = str(op.expect["worked"])
        stages = [_stage("validate"), _stage("germs", True, [f"germs={golden['worked'][n]}"]),
                  _stage("hausdorff", False, WORKED_WITNESS, informational=True),
                  _stage("linebundle")]
        return {"report_version": 1, "ok": True, "stages": stages,
                "inputs": {"digest": digest(op.payload)}}
    if op.kind == "pipeline":
        e = _golden_entry(golden, op)
        germs, d = e["germs"], basis_dim(op.payload)
        ker = d - germs  # Psi is onto C_c(G)
        stages = [_stage(name) for name in PIPELINE_STAGES]
        stages[1]["witnesses"] = [f"germs={germs}"]
        stages[2]["informational"] = True
        stages[5]["witnesses"] = [f"dim_ker={ker}", f"dim_ideal={ker}"]
        return {"report_version": 1, "ok": True, "stages": stages,
                "inputs": {"digest": digest(op.payload)}}
    if op.kind == "verify_iso":
        e = _golden_entry(golden, op)
        germs = e["germs"]
        ker = basis_dim(op.payload) - germs
        dims = THEORY_DIMS.get(op.expect.get("fixture"), (germs, e["center_dim"]))
        return {
            "report_version": 1, "ok": True,
            "gelfand": {"ok": True, "witnesses": []},
            "kernel": {"ok": True, "dim_kernel": ker, "dim_ideal": ker},
            "reduced": {"ok": True, "witnesses": [], "algebra_dim": dims[0],
                        "center_dim": dims[1]},
            "s_to_Os": e["s_to_Os"],
        }
    if op.kind == "cartan":
        n, weight = op.payload
        out = dict(golden["cartan"][f"{n}/{weight}"])
        out["hausdorff"] = False
        out["hausdorff_witness"] = WORKED_WITNESS
        out["expectation"] = dict(out["expectation"], faithful=FAITHFUL[weight])
        return out
    if op.kind == "reject_table":
        kind, witness = op.expect["certificate"]
        return {"layer": "invsgp", "error": CERTIFICATE_ERRORS[kind], "witness": plain(witness)}
    if op.kind == "reject_cocycle":
        s, t, x, bad = op.expect["certificate"]
        return {"layer": "fellbundle.build_bundle", "error": "CocycleNotNormalized",
                "witness": plain([[s, t, x], bad])}
    if op.kind == "reject_incl":
        return {"layer": "fellbundle.validate_axioms", "ok": False,
                "first": ["inclusion_isometric", first_strict_pair(op.payload)],
                "families": "inclusion"}
    raise ValueError(f"unknown operation kind {op.kind!r}")


def first_strict_pair(doc: dict) -> list:
    """The first (s, t), s < t, with a nonempty fiber over s, in the
    validator's scan order: s = t e for an idempotent e."""
    sg = doc["semigroup"]
    els, mul = sg["elements"], sg["mul"]
    idems = [i for i in range(len(els)) if mul[i][i] == i]
    for s in range(len(els)):
        for t in range(len(els)):
            if t != s and any(mul[t][e] == s for e in idems):
                if doc["action"][els[s]].get("map"):
                    return [inputs.strip(els[s]), inputs.strip(els[t])]
    return None


def observed(op, result: dict) -> dict:
    """The deterministic part of a result, comparable with ``expected``."""
    if op.kind == "pipeline":
        out = dict(result, stages=[{k: v for k, v in st.items() if k != "seconds"}
                                   for st in result["stages"]])
        return plain(out)
    if op.kind == "reject_incl":
        failures = plain(result["failures"])
        families = {f[0].split("_")[0] for f in failures}
        return {"layer": result["layer"], "ok": result["ok"],
                "first": failures[0] if failures else None,
                "families": "inclusion" if families == {"inclusion"} else sorted(families)}
    return plain(result)


def check(op, result: dict, golden: dict) -> bool:
    return observed(op, result) == expected(op, golden)


# ---------------------------------------------------------------------------
# Golden record
# ---------------------------------------------------------------------------


def _discrete_facts(doc: dict) -> dict:
    from germlab import serialize
    from germlab.convalg import algebra_dimensions, kernel_equals_ideal
    from germlab.germgpd import build_germ_groupoid, map_s_to_Os_injective
    from germlab.linebundle import build_line_bundle

    b = serialize.parse_bundle(doc)
    g = build_germ_groupoid(b.action)
    line = build_line_bundle(b, g)
    ker = kernel_equals_ideal(b, line)
    dim, center = algebra_dimensions(b, line)
    inj = map_s_to_Os_injective(b)
    germs = len(g.germs)
    d = basis_dim(doc)
    if not (ker.ok and ker.dim_kernel == ker.dim_ideal == d - germs and dim == germs):
        raise AssertionError(f"theory and library disagree on {digest(doc)}")
    return {
        "basis_dim": d,
        "germs": germs,
        "units": len(g.units),
        "size": len(b.semigroup.elements),
        "center_dim": center,
        "strict_pair": doc["kind"] == "twisted_action" and first_strict_pair(doc) is not None,
        "s_to_Os": plain({"injective": inj.injective, "witness": inj.witness,
                          "continuous": inj.continuous, "semi_faithful": inj.semi_faithful,
                          "hypotheses_hold": inj.hypotheses_hold}),
    }


def record_golden() -> dict:
    import ops
    from germlab import serialize
    from germlab.germgpd import build_germ_groupoid

    golden: dict = {"catalogue": {}, "fixtures": {}, "worked": {}, "cartan": {}}
    for size in inputs.SIZES:
        golden["catalogue"][size] = {
            str(seed): _discrete_facts(inputs.random_doc(size, seed))
            for seed in range(inputs.CATALOGUE_SIZE)
        }
    for name in FIXTURES:
        golden["fixtures"][name] = _discrete_facts(inputs.fixture_doc(name))
    lo, hi = inputs.WORKED_RANGE
    for n in range(lo, hi + 1, 2):
        b = serialize.parse_bundle(inputs.worked_example_doc(n))
        golden["worked"][str(n)] = len(build_germ_groupoid(b.action).cells)
    lo, hi = inputs.CARTAN_RANGE
    for n in range(lo, hi + 1, 2):
        for weight in inputs.CARTAN_WEIGHTS:
            golden["cartan"][f"{n}/{weight}"] = plain(ops.cartan(n, weight)[0])
    return golden


if __name__ == "__main__":  # pragma: no cover - golden recording
    golden = record_golden()
    with open(inputs.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
