"""Tests of the benchmark itself.

    python3 -m pytest -q germbench/test_bench.py
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from germlab import cli, serialize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
GOLDEN = inputs.load_golden()


def _payloads(workload, seed, suffix=""):
    plan = inputs.Plan(workload, seed, GOLDEN, tag_suffix=suffix)
    return json.dumps([op.payload for op in plan.first() + plan.round()], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_documents(workload):
    assert _payloads(workload, 7) == _payloads(workload, 7)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_other_seed_other_documents(workload):
    assert _payloads(workload, 7) != _payloads(workload, 8)


def test_documents_do_not_repeat_within_a_run():
    for workload in inputs.WORKLOADS:
        plan = inputs.Plan(workload, 3, GOLDEN)
        ops_ = plan.first() + [op for _ in range(3) for op in plan.round()]
        keys = [serialize.digest(op.payload) if op.kind != "cartan" else op.payload
                for op in ops_]
        assert len(keys) == len(set(keys)), workload


def test_metric_names_and_spec_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_rename_keeps_structure():
    doc = inputs.random_doc("8x16", 3)
    renamed = inputs.rename(doc, "x1")
    assert renamed != doc
    assert oracle.plain(renamed) == oracle.plain(doc)
    assert serialize.parse_bundle(renamed).semigroup.elements == tuple(
        f"{s}!x1" for s in doc["semigroup"]["elements"])


def _round_ops(workload, seed=5):
    plan = inputs.Plan(workload, seed, GOLDEN)
    return plan.first() + plan.round()


def _fixed(op, result):
    """A result as JSON, without its timing fields."""
    if op.kind == "pipeline":
        result = dict(result, stages=[{k: v for k, v in st.items() if k != "seconds"}
                                      for st in result["stages"]])
    return json.loads(json.dumps(result, default=str))


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_traced_replay_matches_untraced(workload):
    for op in _round_ops(workload):
        ops.prepare(op)
        plain, _ = ops.run(op)
        traced, _ = ops.run(op, ops.Tracer())
        assert _fixed(op, traced) == _fixed(op, plain), op.kind
        assert oracle.check(op, plain, GOLDEN), (op.kind, op.expect)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def test_cartan_matches_cli():
    for weight in inputs.CARTAN_WEIGHTS:
        code, doc = _cli(["cartan-example", "--n", "51", "--p", weight])
        assert code == (0 if oracle.FAITHFUL[weight] else 1)
        assert json.loads(json.dumps(ops.cartan(51, weight)[0])) == doc


def test_replayed_parse_matches_serialize():
    for op in _round_ops("discrete-pipeline") + _round_ops("interval-worked"):
        if op.kind == "pipeline":
            replayed = ops.parse_bundle(op.payload, ops.Tracer())
            assert serialize.emit_bundle(replayed) == \
                serialize.emit_bundle(serialize.parse_bundle(op.payload))


def test_oracle_catches_a_wrong_answer():
    op = next(op for op in _round_ops("discrete-pipeline") if op.kind == "pipeline")
    result, _ = ops.run(op)
    result["stages"][1]["witnesses"] = ["germs=-1"]
    assert not oracle.check(op, result, GOLDEN)


def test_self_time_subtracts_children():
    tr = ops.Tracer()
    tr.op_id = 0
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (_, o0, o1, _, _), (_, i0, i1, parent, _) = tr.spans
    assert parent == 0
    times = tr.self_times()
    assert times["outer"][0] == pytest.approx((o1 - o0) - (i1 - i0))
    assert times["inner"] == (i1 - i0, 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "discrete-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
