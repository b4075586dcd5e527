import json

import pytest

from germlab import serialize
from germlab.cli import main, named_fixture, run_pipeline, seeded_random_fixture
from germlab.fixtures import z4_twisted_groupoid


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pipeline_zero_bundle_all_pass():
    report = run_pipeline(named_fixture("zero-bundle"))
    assert report.ok
    names = [s["name"] for s in report.stages]
    assert names == ["validate", "germs", "hausdorff", "linebundle", "gelfand",
                     "kernel", "reduced-iso"]
    germs_stage = next(s for s in report.stages if s["name"] == "germs")
    assert germs_stage["witnesses"] == ["germs=0"]


def test_pipeline_z2_flip_full_pass():
    report = run_pipeline(named_fixture("z2-flip"))
    assert report.ok
    assert all(s["verdict"] == "pass" for s in report.stages)


def test_pipeline_worked_example_hausdorff_informational():
    report = run_pipeline(named_fixture("worked-example"))
    assert report.ok  # the Hausdorff failure is informational
    h = next(s for s in report.stages if s["name"] == "hausdorff")
    assert h["verdict"] == "fail" and h["informational"]
    assert h["witnesses"] == [[["1", "0"], ["s", "0"]]]


def test_pipeline_require_hausdorff_flips_verdict():
    report = run_pipeline(named_fixture("worked-example"), {"require_hausdorff": True})
    assert not report.ok


def test_pipeline_deterministic_modulo_timing():
    doc = seeded_random_fixture(3)
    r1, r2 = run_pipeline(doc), run_pipeline(doc)
    strip = lambda r: [
        {k: v for k, v in s.items() if k != "seconds"} for s in r.stages
    ]
    assert strip(r1) == strip(r2)
    assert r1.inputs == r2.inputs


def test_cli_validate(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("z2-flip"))
    code, out = run(capsys, "validate", path)
    assert code == 0
    assert out["ok"] and out["semi_abelian"] and out["saturated"]


def test_cli_validate_bad_input(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"kind": "nonsense"})
    code, out = run(capsys, "validate", path)
    assert code == 2
    assert not out["ok"]


def test_cli_germs(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("z2-flip"))
    code, out = run(capsys, "germs", path)
    assert code == 0
    assert len(out["germs"]) == 4
    assert len(out["units"]) == 2


def test_cli_germs_interval(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("worked-example"))
    code, out = run(capsys, "germs", path)
    assert code == 0
    assert len(out["germs"]) == 3
    # the unit space [-1, 1] splits into the e-cell and the 1-cell
    assert len(out["units"]) == 2


def test_cli_hausdorff(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("worked-example"))
    code, out = run(capsys, "hausdorff", path)
    assert code == 0  # informational by default
    assert out["hausdorff"] is False
    assert out["witness"] == [["1", "0"], ["s", "0"]]
    code, _ = run(capsys, "hausdorff", path, "--require-hausdorff")
    assert code == 1


def test_cli_linebundle(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("z4-cocycle"))
    code, out = run(capsys, "linebundle", path)
    assert code == 0
    assert out["mulc"] and out["starc"] and out["refs"]


def test_cli_linebundle_interval(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("worked-example"))
    code, out = run(capsys, "linebundle", path)
    assert code == 0
    # cellwise constants, all phases 1 for the untwisted example
    assert all(abs(complex(*v) - 1) < 1e-12 for *_, v in out["mulc"])
    assert all(abs(complex(*v) - 1) < 1e-12 for _, v in out["starc"])


def test_cli_norms(tmp_path, capsys):
    bundle_path = write(tmp_path, "b.json", named_fixture("z2-flip"))
    sections = {
        "sections": [
            {"name": "unit+flip",
             "coeffs": [["1", "x", [1, 0]], ["1", "y", [1, 0]],
                        ["g", "x", [1, 0]], ["g", "y", [1, 0]]]}
        ]
    }
    spath = write(tmp_path, "s.json", sections)
    code, out = run(capsys, "norms", bundle_path, "--elements", spath)
    assert code == 0
    entry = out["norms"][0]
    assert abs(entry["reduced_norm"] - 2.0) < 1e-9
    assert set(entry["per_unit"]) == {"x", "y"}


def test_cli_verify_iso(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("z2-flip"))
    code, out = run(capsys, "verify-iso", path, "--n-random", "20")
    assert code == 0
    assert out["ok"]
    assert out["reduced"]["algebra_dim"] == 4
    assert out["reduced"]["center_dim"] == 1


def test_cli_round_trip(tmp_path, capsys):
    g, sigma = z4_twisted_groupoid()
    family = [[a] for a in g.arrows]
    doc = serialize.emit_twisted_groupoid_doc(g, sigma, [frozenset(m) for m in family])
    path = write(tmp_path, "g.json", doc)
    code, out = run(capsys, "round-trip", path)
    assert code == 0
    assert out["ok"] and out["exact"]


def test_cli_cartan_example(capsys):
    code, out = run(capsys, "cartan-example", "--n", "41", "--p", "1-x/2")
    assert code == 0
    assert out["ok"]
    assert out["hausdorff"] is False
    assert out["expectation"]["faithful"]


def test_cli_cartan_example_constant_one_weight(capsys):
    code, out = run(capsys, "cartan-example", "--n", "41", "--p", "1")
    assert code == 1
    assert not out["expectation"]["faithful"]
    assert out["expectation"]["idempotent"]


def test_cli_gen_fixture_deterministic(capsys):
    code1, out1 = run(capsys, "gen-fixture", "--seed", "5")
    code2, out2 = run(capsys, "gen-fixture", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_gen_fixture_named(capsys, tmp_path):
    code, out = run(capsys, "gen-fixture", "--name", "semilattice-01")
    assert code == 0
    path = write(tmp_path, "sl.json", out)
    code, rep = run(capsys, "verify-iso", path, "--n-random", "10")
    assert code == 0
    assert rep["kernel"]["dim_kernel"] == 1


def test_cli_missing_file(capsys):
    code, out = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2


def test_pipeline_records_line_bundle_error_as_failed_stage(monkeypatch):
    from germlab import cli
    from germlab.linebundle import LineBundleError

    def refuse(bundle, groupoid):
        raise LineBundleError("no reference")

    monkeypatch.setattr(cli, "build_line_bundle", refuse)
    report = run_pipeline(named_fixture("z2-flip"))
    assert not report.ok
    last = report.stages[-1]
    assert last["name"] == "linebundle" and last["verdict"] == "fail"
    assert last["witnesses"] == ["no reference"]


def test_pipeline_propagates_other_line_bundle_exceptions(monkeypatch):
    from germlab import cli

    def crash(bundle, groupoid):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "build_line_bundle", crash)
    with pytest.raises(RuntimeError, match="bug"):
        run_pipeline(named_fixture("z2-flip"))


def test_cli_validate_rejects_out_of_range_table_entries(tmp_path, capsys):
    for bad in (-1, True, 2, 1.0, "0"):
        doc = named_fixture("z2-flip")
        doc["semigroup"]["mul"][1][0] = bad
        code, out = run(capsys, "validate", write(tmp_path, "bad.json", doc))
        assert code == 2, bad
        assert not out["ok"]
        assert out["error"] == (f"semigroup.mul: row 1, column 0: {json.dumps(bad)} "
                                "is not an integer in [0, 2)")


def test_cli_verify_iso_refuses_interval_bundle(tmp_path, capsys):
    path = write(tmp_path, "b.json", named_fixture("worked-example"))
    code = main(["verify-iso", path, "--n-random", "5"])
    printed = capsys.readouterr().out
    assert code == 2
    assert printed.count("\n") == 1
    error = json.loads(printed)["error"]
    assert "gelfand, kernel, reduced-iso" in error and "interval" in error


def test_cli_norms_refuses_interval_bundle(tmp_path, capsys):
    bundle_path = write(tmp_path, "b.json", named_fixture("worked-example"))
    spath = write(tmp_path, "s.json", {"sections": []})
    code = main(["norms", bundle_path, "--elements", spath])
    printed = capsys.readouterr().out
    assert code == 2
    assert printed.count("\n") == 1
    error = json.loads(printed)["error"]
    assert "norms" in error and "interval" in error
