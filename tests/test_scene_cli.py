import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccproj import scene
from ccproj import (SceneFormatError, Scene, export_mesh, gen_quadric,
                    gen_random_fan, hausdorff, parse, serialize, validate)


def run_cli(args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ccproj.cli", *args],
                          input=stdin, capture_output=True, text=True, env=env)


def test_serialize_roundtrip_bytes():
    scene = gen_quadric(8, 24)
    txt = serialize(scene)
    again = serialize(parse(txt))
    assert txt == again
    doc = json.loads(txt)
    assert doc["format"] == "ccproj-scene"
    assert len(doc["samples"]) == 8
    assert "chart" in doc["samples"][0]


def test_parse_rejects_garbage():
    with pytest.raises(SceneFormatError):
        parse("not json at all")
    with pytest.raises(SceneFormatError):
        parse(json.dumps({"format": "something-else"}))


def test_parse_rejects_nonconvex_sample():
    doc = json.loads(serialize(gen_quadric(6, 16)))
    doc["samples"][0]["vertices"][1] = [0.0, 0.0]  # dent one polygon
    with pytest.raises(SceneFormatError):
        parse(json.dumps(doc))


def _drop(doc, *path):
    *head, last = path
    for key in head:
        doc = doc[key]
    del doc[last]


def _put(doc, value, *path):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


def _swapped(vertices, i, j):
    out = list(vertices)
    out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("edit", [
    lambda d: _drop(d, "frame"),
    lambda d: _drop(d, "samples"),
    lambda d: _drop(d, "samples", 0, "theta"),
    lambda d: _drop(d, "samples", 0, "vertices"),
    lambda d: _put(d, 5, "samples"),
    lambda d: _put(d, d["samples"][:2], "samples"),
    lambda d: _put(d, [], "samples", 0, "vertices"),
    lambda d: _put(d, 3, "frame"),
    lambda d: _put(d, 7, "samples", 0),
    lambda d: _put(d, [1.0, 0.0], "frame", "g0"),
    lambda d: _put(d, 3, "tolerances"),
    lambda d: _put(d, {"eps_convex": "x"}, "tolerances"),
    lambda d: _put(d, float("nan"), "samples", 0, "theta"),
    lambda d: _put(d, "nan", "samples", 0, "theta"),
    lambda d: _put(d, float("nan"), "samples", 0, "vertices", 3, 1),
    lambda d: _put(d, [[float("nan"), 0.0]], "samples", 0, "vertices"),
    lambda d: _put(d, float("inf"), "samples", 0, "vertices", 0, 0),
    lambda d: _put(d, 10 ** 400, "samples", 0, "vertices", 0, 0),
    lambda d: _put(d, float("-inf"), "frame", "h2", 0),
    lambda d: _put(d, {"eps_convex": float("nan")}, "tolerances"),
    lambda d: _put(d, "false", "validated"),
    lambda d: _put(d, 0, "validated"),
    lambda d: _put(d, 2.7, "seed"),
    lambda d: _put(d, "7", "seed"),
    lambda d: _put(d, d["samples"][2]["vertices"][::-1], "samples", 2, "vertices"),
    lambda d: _put(d, _swapped(d["samples"][2]["vertices"], 4, 5), "samples", 2, "vertices"),
], ids=["no-frame", "no-samples", "no-theta", "no-vertices", "samples-int",
        "two-samples", "empty-vertices", "frame-int", "sample-int", "short-g0",
        "tolerances-int", "tolerance-str", "nan-theta", "nan-str-theta",
        "nan-vertex", "nan-point", "inf-vertex", "overflow-vertex",
        "minus-inf-frame", "nan-tolerance", "validated-str", "validated-int",
        "seed-float", "seed-str", "clockwise", "two-vertices-swapped"])
def test_malformed_scene_exits_2(edit, monkeypatch, capsys):
    import io
    from ccproj import cli
    doc = json.loads(serialize(gen_quadric(6, 16)))
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(SceneFormatError):
        parse(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["validate", "--in", "-"]) == 2
    assert capsys.readouterr().err.startswith("error=")


def test_counterclockwise_sample_with_another_start_parses():
    scene = gen_quadric(6, 16)
    doc = json.loads(serialize(scene))
    verts = doc["samples"][2]["vertices"]
    doc["samples"][2]["vertices"] = verts[5:] + verts[:5]
    parsed = parse(json.dumps(doc))
    assert np.array_equal(parsed.fan.sections[2].vertices, scene.fan.sections[2].vertices)
    assert serialize(parsed) == serialize(scene)


@pytest.mark.parametrize("argv,env", [
    (["section", "--theta", "nan"], None),
    (["section", "--theta", "inf"], None),
    (["section", "--theta", "1e999"], None),
    (["surgery-s", "--arc", "nan,1"], None),
    (["surgery-p", "--arc", "0.2,-inf"], None),
    (["octagonalize", "--dirs", "0 0.7854 nan 2.3562"], None),
    (["chi", "--plane", "nan 0 0 0"], None),
    (["certify", "--line", "0 0 1 0; 0 0 0 inf"], None),
    (["--tol", "nan", "validate"], None),
    (["validate"], "nan"),
    (["validate"], "inf"),
], ids=["theta-nan", "theta-inf", "theta-overflow", "arc-nan", "arc-minus-inf",
        "dirs-nan", "plane-nan", "line-inf", "tol-nan", "env-tol-nan", "env-tol-inf"])
def test_cli_rejects_non_finite_numbers(argv, env, tmp_path, monkeypatch, capsys):
    from ccproj import cli
    path = tmp_path / "q.json"
    path.write_text(serialize(gen_quadric(6, 16)))
    if env is not None:
        monkeypatch.setenv("CCPROJ_TOL", env)
    try:
        rc = cli.main(argv + ["--in", str(path)])
    except SystemExit as exc:  # argparse rejects --theta and --tol itself
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_parse_orders_short_samples():
    # 1- and 2-vertex samples pass the same hull as larger ones, so a
    # reversed segment starts at its lexicographic minimum
    doc = json.loads(serialize(gen_quadric(6, 16)))
    doc["samples"][0]["vertices"] = [[1.0, 0.0], [0.0, 0.0]]
    doc["samples"][1]["vertices"] = [[0.5, 0.25]]
    fan = parse(json.dumps(doc)).fan
    assert fan.sections[0].vertices.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert fan.sections[1].vertices.tolist() == [[0.5, 0.25]]
    assert fan.sections[0].degenerate and fan.sections[1].degenerate
    doc["samples"][0]["vertices"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(SceneFormatError):
        parse(json.dumps(doc))


def test_gen_quadric_validates_and_modes():
    ins = gen_quadric(8, 32, "inscribed")
    out = gen_quadric(8, 32, "circumscribed")
    assert ins.fan.validated and out.fan.validated
    assert validate(ins.fan).ok and validate(out.fan).ok
    # circumscribed sections contain the analytic disk, inscribed are inside
    for s in ins.fan.sections:
        assert np.max(np.linalg.norm(s.vertices, axis=1)) <= 1.0 + 1e-12
    for s in out.fan.sections:
        r = np.min(np.abs(s.support(np.stack(
            [np.cos(np.linspace(0, 2 * np.pi, 64)),
             np.sin(np.linspace(0, 2 * np.pi, 64))], axis=1))))
        assert r >= 1.0 - 1e-9


def test_gen_quadric_refinement_bound():
    # Hausdorff distance from a section to the analytic disk shrinks with m
    prev = None
    for m in (16, 32, 64):
        fan = gen_quadric(6, m).fan
        disk = gen_quadric(6, 512).fan.sections[0]
        d = hausdorff(fan.sections[0], disk)
        bound = 1.0 - np.cos(np.pi / m)
        assert d <= bound + 1e-3
        if prev is not None:
            assert d < prev
        prev = d


def test_gen_random_deterministic():
    a = gen_random_fan(11, k=8, complexity=2, m=32)
    b = gen_random_fan(11, k=8, complexity=2, m=32)
    assert serialize(a) == serialize(b)
    assert a.seed == 11
    assert a.fan.validated


def test_scene_tolerance_override():
    scene = Scene(gen_quadric(6, 16).fan, {"eps_incid": 1e-7}, None)
    tol = scene.tol()
    assert tol.eps_incid == 1e-7


def test_mesh_format():
    fan = gen_quadric(6, 16).fan
    text = export_mesh(fan)
    lines = text.strip().splitlines()
    assert lines[0] == "ccmesh 1"
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    assert nv == sum(s.n for s in fan.sections)
    assert nf > 0
    for l in lines[1:]:
        tag = l.split()[0]
        assert tag in ("v", "f")
        if tag == "f":
            idx = [int(x) for x in l.split()[1:]]
            assert len(idx) == 3 and all(1 <= i <= nv for i in idx)


def test_cli_gen_validate_roundtrip(tmp_path):
    scene_path = tmp_path / "q.json"
    r = run_cli(["gen-quadric", "--k", "8", "--m", "24", "--out", str(scene_path)])
    assert r.returncode == 0
    r = run_cli(["validate", "--in", str(scene_path)])
    assert r.returncode == 0
    assert "valid=true" in r.stdout


def test_cli_pipe_stdin():
    gen = run_cli(["gen-quadric", "--k", "6", "--m", "16"])
    assert gen.returncode == 0
    val = run_cli(["validate", "--in", "-"], stdin=gen.stdout)
    assert val.returncode == 0


def test_cli_find_line_and_chi(tmp_path):
    scene_path = tmp_path / "q.json"
    run_cli(["gen-quadric", "--k", "8", "--m", "32", "--out", str(scene_path)])
    r = run_cli(["find-line", "--in", str(scene_path)])
    assert r.returncode == 0
    vals = dict(l.split("=", 1) for l in r.stdout.splitlines() if "=" in l)
    assert float(vals["max_residual"]) <= 1e-6
    assert vals["contained"] == "true"
    assert float(vals["depth"]) > 0
    keys = [l.split("=", 1)[0] for l in r.stdout.splitlines()]
    assert keys.index("depth") == keys.index("contained") + 1
    r = run_cli(["chi", "--in", str(scene_path), "--plane", "1 0 -10 0"])
    assert r.returncode == 0
    assert "chi=1" in r.stdout and "member=false" in r.stdout


def test_cli_find_line_dual_and_browder(tmp_path):
    scene_path = tmp_path / "q.json"
    run_cli(["gen-quadric", "--k", "8", "--m", "24", "--out", str(scene_path)])
    for method in ("dual", "browder"):
        r = run_cli(["find-line", "--in", str(scene_path), "--method", method])
        assert r.returncode == 0
        assert "contained=true" in r.stdout


def test_cli_find_line_bad_subset(tmp_path):
    scene_path = tmp_path / "r.json"
    scene_path.write_text(serialize(gen_random_fan(0, k=10, complexity=2)))
    assert parse(scene_path.read_text()).fan.k == 6
    for extra in (["--method", "browder", "--subset", "0,2,4,6"],
                  ["--subset", "0,2,40"], ["--subset=-1,2,3"],
                  ["--subset", "0,0,1"],
                  ["--method", "browder", "--subset", "0,0,1,2"],
                  ["--method", "browder", "--subset", "0,1,2"]):
        r = run_cli(["find-line", "--in", str(scene_path), *extra])
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and "error=" in r.stderr


def test_cli_browder_fallback_keeps_its_sections(tmp_path, monkeypatch, capsys):
    from ccproj import cli, transversal
    scene_path = tmp_path / "q.json"
    scene_path.write_text(serialize(gen_quadric(8, 24)))
    monkeypatch.setattr(transversal, "browder_four_sections",
                        lambda fan, idx, tol: transversal.BrowderResult(
                            False, 500, 1.0, None))
    subsets = []
    chebyshev_line = transversal.chebyshev_line
    monkeypatch.setattr(transversal, "chebyshev_line",
                        lambda fan, subset, tol: subsets.append(subset)
                        or chebyshev_line(fan, subset=subset, tol=tol))
    rc = cli.main(["find-line", "--in", str(scene_path), "--method", "browder"])
    assert rc == 0
    assert subsets == [[0, 1, 2, 3]]
    out = capsys.readouterr().out
    assert "note=fixed-point iteration did not converge" in out
    assert "contained=true" in out


def test_cli_surgery_and_section(tmp_path):
    scene_path = tmp_path / "q.json"
    out_path = tmp_path / "s.json"
    run_cli(["gen-quadric", "--k", "8", "--m", "24", "--out", str(scene_path)])
    r = run_cli(["surgery-p", "--in", str(scene_path), "--arc", "0.0,0.8",
                 "--out", str(out_path)])
    assert r.returncode == 0
    r = run_cli(["validate", "--in", str(out_path)])
    assert r.returncode == 0
    r = run_cli(["section", "--in", str(out_path), "--theta", "1.0"])
    assert r.returncode == 0
    assert any(l.startswith("vertex=") for l in r.stdout.splitlines())
    r = run_cli(["octagonalize", "--in", str(scene_path),
                 "--dirs", "0,0.785398,1.570796,2.356194", "--out", str(out_path)])
    assert r.returncode == 0
    r = run_cli(["helly", "--in", str(out_path)])
    assert r.returncode == 0 and "consistent=true" in r.stdout


def test_cli_certify_and_mesh(tmp_path):
    scene_path = tmp_path / "q.json"
    run_cli(["gen-quadric", "--k", "6", "--m", "16", "--out", str(scene_path)])
    r = run_cli(["certify", "--in", str(scene_path),
                 "--line", "0 0 1 0; 0 0 0 1"])
    assert r.returncode == 0 and "contained=true" in r.stdout
    mesh_path = tmp_path / "q.mesh"
    r = run_cli(["export-mesh", "--in", str(scene_path), "--out", str(mesh_path)])
    assert r.returncode == 0
    assert mesh_path.read_text().startswith("ccmesh 1")


def test_cli_exit_codes(tmp_path):
    r = run_cli(["validate", "--in", "/nonexistent/file.json"])
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    r = run_cli(["validate", "--in", str(bad)])
    assert r.returncode == 2
    # invalid fan: exit code 1
    fan = gen_quadric(8, 24).fan
    secs = list(fan.sections)
    secs[3] = secs[3].scaled(3.0)
    from ccproj import SectionFan
    invalid = SectionFan(fan.frame, fan.thetas, tuple(secs))
    p = tmp_path / "invalid.json"
    p.write_text(serialize(Scene(invalid, {}, None)))
    r = run_cli(["validate", "--in", str(p)])
    assert r.returncode == 1
    assert "valid=false" in r.stdout


def test_cli_env_tolerance(tmp_path):
    scene_path = tmp_path / "q.json"
    run_cli(["gen-quadric", "--k", "6", "--m", "16", "--out", str(scene_path)])
    r = run_cli(["validate", "--in", str(scene_path)],
                env_extra={"CCPROJ_TOL": "1e-7"})
    assert r.returncode == 0


def test_cli_roundtrip_report(tmp_path):
    scene_path = tmp_path / "q.json"
    run_cli(["gen-quadric", "--k", "8", "--m", "32", "--out", str(scene_path)])
    r = run_cli(["roundtrip", "--in", str(scene_path)])
    assert r.returncode == 0
    vals = dict(l.split("=", 1) for l in r.stdout.splitlines() if "=" in l)
    assert float(vals["max_residual"]) <= 5e-2 * float(vals["diameter"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_vertex_text_matches_generic_emitter(pairs):
    # serialize writes a sample's vertex array in one pass; the text is the
    # one the nested list of floats gets, byte for byte (signed zeros,
    # subnormals and 17-digit round trips included)
    v = np.array(pairs, dtype=float).reshape(-1, 2)
    nested = [[float(a), float(b)] for a, b in v]
    assert scene._emit(v) == scene._emit(nested)
    assert json.loads(scene._emit(v)) == nested
