import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccproj import scene
from ccproj import (DEFAULT_TOL, ConvexPolygon, PencilFrame, SceneFormatError, Scene, SectionFan,
                    Tolerances, convex_hull, export_mesh, gen_quadric, gen_random_fan,
                    hausdorff, parse, serialize, validate)
from ccproj.planar import _roll_to_min
from ccproj.projcore import PI


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
    with pytest.raises(SceneFormatError, match="not valid JSON"):  # json.loads recurses
        parse("[" * 100_000)


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
    lambda d: _put(d, {"with_base": 1e-9}, "tolerances"),
    lambda d: _put(d, {"__doc__": 1e-9}, "tolerances"),
    lambda d: _put(d, {"bogus": 1e-9}, "tolerances"),
    lambda d: _put(d, {'eps"convex': 1e-9}, "tolerances"),
    lambda d: _put(d, {"eps_convex": 0.0}, "tolerances"),
    lambda d: _put(d, {"eps_convex": -1.0}, "tolerances"),
    lambda d: _put(d, [True, 0, 0, 0], "frame", "g0"),
    lambda d: _put(d, [[0.0, 0.0], [2.0, 0.0], [0.0, True]], "samples", 0, "vertices"),
    lambda d: [_put(d, d["frame"][k] + [0.0], "frame", k) for k in ("g0", "g1", "h2", "h3")],
    lambda d: _put(d, 2, "version"),
    lambda d: _put(d, True, "version"),
    lambda d: _put(d, "1", "version"),
    lambda d: _drop(d, "version"),
    lambda d: _put(d, [9, 9, 9, 9], "samples", 0, "chart", "origin"),
    lambda d: _put(d, "chart", "samples", 1, "chart"),
    lambda d: _drop(d, "samples", 2, "chart"),
    lambda d: _drop(d, "samples", 2, "chart", "u"),
    lambda d: _put(d, [True, 0, 0, 0], "samples", 0, "chart", "u"),
    lambda d: _put(d, [0.0, 1.0, 0.0, 0.0, 0.0], "samples", 0, "chart", "v"),
    lambda d: _put(d, float("nan"), "samples", 3, "chart", "origin", 2),
    lambda d: _put(d, d["samples"][0]["chart"], "samples", 3, "chart"),
], ids=["no-frame", "no-samples", "no-theta", "no-vertices", "samples-int",
        "two-samples", "empty-vertices", "frame-int", "sample-int", "short-g0",
        "tolerances-int", "tolerance-str", "nan-theta", "nan-str-theta",
        "nan-vertex", "nan-point", "inf-vertex", "overflow-vertex",
        "minus-inf-frame", "nan-tolerance", "validated-str", "validated-int",
        "seed-float", "seed-str", "clockwise", "two-vertices-swapped",
        "tolerance-method", "tolerance-dunder", "tolerance-unknown",
        "tolerance-quote", "tolerance-zero", "tolerance-negative", "bool-in-frame",
        "bool-in-vertices", "frame-5-vectors", "version-2", "version-bool", "version-str",
        "no-version", "chart-origin-off", "chart-str", "no-chart", "no-chart-u",
        "bool-in-chart", "chart-5-vector", "nan-in-chart", "chart-of-another-sample"])
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


# a scene written in other charts used to be read in the canonical ones
CHART_EDITS = [lambda d: _put(d, [9, 9, 9, 9], "samples", 0, "chart", "origin"),
               lambda d: _put(d, "canonical", "samples", 1, "chart"),
               lambda d: _drop(d, "samples", 2, "chart")]


@pytest.mark.parametrize("edits", [[0], [1], [2], [0, 1, 2]])
def test_scene_in_edited_charts_exits_2(edits, monkeypatch, capsys):
    import io
    from ccproj import cli
    doc = json.loads(serialize(gen_quadric(6, 16)))
    for i in edits:
        CHART_EDITS[i](doc)
    text = json.dumps(doc)
    with pytest.raises(SceneFormatError):
        parse(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["section", "--theta", "0.5", "--in", "-"]) == 2
    assert capsys.readouterr().err.startswith("error=")


def test_chart_within_eps_incid_parses_to_the_same_scene():
    scene_ = gen_quadric(6, 16)
    doc = json.loads(serialize(scene_))
    doc["samples"][0]["chart"]["origin"][0] += 0.5e-9
    doc["samples"][4]["chart"]["u"][1] = -0.5e-9
    assert serialize(parse(json.dumps(doc))) == serialize(scene_)
    doc["tolerances"] = {"eps_incid": 1e-10}
    with pytest.raises(SceneFormatError, match="chart is not the canonical"):
        parse(json.dumps(doc))


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


@pytest.mark.parametrize("argv,env", [
    (["--tol=-1", "validate"], None),
    (["--tol=0", "validate"], None),
    (["validate"], "-1"),
    (["validate"], "0"),
], ids=["tol-negative", "tol-zero", "env-tol-negative", "env-tol-zero"])
def test_cli_rejects_nonpositive_tolerances(argv, env, tmp_path, monkeypatch, capsys):
    from ccproj import cli
    path = tmp_path / "q.json"
    path.write_text(serialize(gen_quadric(6, 16)))
    if env is not None:
        monkeypatch.setenv("CCPROJ_TOL", env)
    rc = cli.main(argv + ["--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "finite and positive" in captured.err


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


def test_scene_tolerance_override(monkeypatch):
    # --tol > CCPROJ_TOL > scene > default
    from ccproj import cli

    def resolve(argv):
        return cli._resolve_tol(cli._parser().parse_args(argv + ["validate"]), scene)

    monkeypatch.delenv("CCPROJ_TOL", raising=False)
    scene = Scene(gen_quadric(6, 16).fan, {"eps_incid": 1e-7, "eps_dual": 3e-8}, None)
    tol = resolve([])
    assert (tol.eps_incid, tol.eps_dual, tol.eps_rank) == (1e-7, 3e-8, DEFAULT_TOL.eps_rank)
    monkeypatch.setenv("CCPROJ_TOL", "1e-6")
    tol = resolve([])
    assert (tol.eps_incid, tol.eps_dual, tol.eps_rank) == (1e-6, 3e-8, 1e-6)
    assert resolve(["--tol", "1e-5"]).eps_incid == 1e-5
    monkeypatch.setenv("CCPROJ_TOL", "-1")
    with pytest.raises(ValueError):  # a bad CCPROJ_TOL is checked under --tol too
        resolve(["--tol", "1e-5"])


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
                            False, 500, None))
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
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    r = run_cli(["validate", "--in", str(deep)])
    assert r.returncode == 2
    assert "error=not valid JSON: " in r.stderr
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


def _emit(obj) -> str:
    """The generic JSON walker serialize used before its fixed template:
    the oracle for the template's text."""
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ", ".join('"%s": %s' % (k, _emit(v)) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return str(int(obj))


def _emitted(sc) -> str:
    """serialize's document, written by the generic walker."""
    f = sc.fan
    vec = lambda x: [float(c) for c in x]  # noqa: E731
    return _emit({
        "format": "ccproj-scene",
        "version": 1,
        "frame": {"space": f.frame.space, "g0": vec(f.frame.g0), "g1": vec(f.frame.g1),
                  "h2": vec(f.frame.h2), "h3": vec(f.frame.h3)},
        "samples": [{"theta": float(t),
                     "chart": {"origin": vec(f.frame.origin(float(t))),
                               "u": vec(f.frame.g0), "v": vec(f.frame.g1)},
                     "vertices": s.vertices}
                    for t, s in zip(f.thetas, f.sections)],
        "tolerances": {k: float(v) for k, v in sorted(sc.tolerances.items())},
        "seed": sc.seed,
        "validated": f.validated,
    }) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
def test_vertex_text_matches_generic_emitter(pairs):
    # serialize writes a sample's vertex array in one format call; the text
    # is the one the generic walker gives the nested list of floats, byte
    # for byte (signed zeros, subnormals and 17-digit round trips included)
    v = np.array(pairs, dtype=float).reshape(-1, 2)
    nested = [[float(a), float(b)] for a, b in v]
    assert scene._pairs(v) == _emit(nested)
    assert json.loads(scene._pairs(v)) == nested


def _oracle_scene_from_doc(doc):
    """parse's document reader as it was before the stacked pass: one
    _numbers call and one convex_hull per sample, then one chart
    comparison per sample."""
    if type(doc["version"]) is not int or doc["version"] != 1:
        raise SceneFormatError("version must be 1, got %s" % json.dumps(doc["version"])[:80])
    fr = doc["frame"]
    frame = PencilFrame(*(scene._numbers(fr[key], 1) for key in ("g0", "g1", "h2", "h3")),
                        fr.get("space", "primal"))
    samples = []
    for s in doc["samples"]:
        theta = float(scene._numbers(s["theta"], 0))
        verts = scene._numbers(s["vertices"], 2)
        if verts.shape[1] != 2:
            raise SceneFormatError("sample at theta=%s: vertices are not (u, v) pairs" % theta)
        poly = convex_hull(verts)
        if not np.array_equal(poly.vertices, _roll_to_min(verts)):
            raise SceneFormatError(
                "sample at theta=%s: vertices are not in strictly convex "
                "counterclockwise position" % theta)
        samples.append((theta, poly))
    validated = doc.get("validated", False)
    seed = doc.get("seed")
    if not isinstance(validated, bool):
        raise SceneFormatError("validated must be true or false")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SceneFormatError("seed must be an integer or null")
    fan = SectionFan.create(frame, samples, validated=validated)
    tolerances = {k: float(scene._numbers(v, 0))
                  for k, v in dict(doc.get("tolerances", {})).items()}
    charts = [[s["chart"][key] for key in ("origin", "u", "v")] for s in doc["samples"]]
    for chart in charts:
        for vec in chart:
            if not (isinstance(vec, list) and len(vec) == 4
                    and all(type(x) in (int, float) for x in vec)):
                raise SceneFormatError("a sample chart is not three 4-vectors origin, u, v")
    eps = Tolerances(**tolerances).eps_incid
    for (theta, _), chart in zip(samples, charts):
        want = (frame.origin(theta % PI), frame.g0, frame.g1)
        if not all(abs(x - w) <= eps for vec, ref in zip(chart, want) for x, w in zip(vec, ref)):
            raise SceneFormatError("sample at theta=%s: chart is not the canonical unit chart "
                                   "of its plane" % theta)
    return Scene(fan, tolerances, seed)


def _outcome(read, text):
    """(serialized scene, None) or (None, error message) of one reader."""
    try:
        return serialize(read(text)), None
    except SceneFormatError as exc:
        return None, str(exc)


def _oracle_parse(text):
    with mock.patch.object(scene, "_scene_from_doc", _oracle_scene_from_doc):
        return parse(text)


def _base_docs():
    short = gen_quadric(6, 16).fan
    secs = list(short.sections)
    secs[1] = ConvexPolygon([[0.5, 0.25]])
    secs[4] = ConvexPolygon([[-0.5, 0.0], [0.25, 0.75]])
    return [json.loads(serialize(sc)) for sc in (
        gen_quadric(6, 16), gen_random_fan(0, k=6, complexity=2, m=12),
        Scene(short.with_sections(secs), {"eps_incid": 1e-7}, 3))]


BASE_DOCS = _base_docs()
OVERFLOW = 1.2345e-300  # written as 1e999 in the document text
BAD_NUMBERS = [True, False, "0.5", float("nan"), OVERFLOW, None, 1, 10 ** 30]
UNIT_SQUARES = [[[num(x), num(y)] for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
                for num in (int, float, bool)]


@st.composite
def edited_documents(draw):
    """A scene document with one or two edits of its samples' vertices
    (counts from 0 to 9, rotated, reversed, swapped, dented or duplicated
    vertices, a unit square of integers, floats or booleans), then perhaps
    a boolean, string, NaN, 1e999, null or integer as one theta or one
    coordinate."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_DOCS))))
    samples = doc["samples"]
    for _ in range(draw(st.integers(1, 2))):
        s = samples[draw(st.integers(0, len(samples) - 1))]
        v = s["vertices"]
        j = draw(st.integers(0, max(len(v) - 1, 0)))
        edit = draw(st.sampled_from(["count", "rotate", "reverse", "swap", "dent",
                                     "duplicate", "square"]))
        if edit == "count":
            n = draw(st.integers(0, 9))
            a = draw(st.floats(0, 7)) + 2 * np.pi * np.arange(n) / max(n, 1)
            s["vertices"] = np.stack([np.cos(a), np.sin(a)], axis=1).tolist()
        elif edit == "square":
            s["vertices"] = [list(p) for p in draw(st.sampled_from(UNIT_SQUARES))]
        elif not v:
            continue
        elif edit == "rotate":
            s["vertices"] = v[j:] + v[:j]
        elif edit == "reverse":
            s["vertices"] = v[::-1]
        elif edit == "swap":
            v[j], v[-1] = v[-1], v[j]
        elif edit == "dent":
            v[j] = np.mean(v, axis=0).tolist()
        else:
            v.insert(j, list(v[j]))
    s = samples[draw(st.integers(0, len(samples) - 1))]
    where = draw(st.sampled_from(["none", "theta", "coordinate"]))
    bad = draw(st.sampled_from(BAD_NUMBERS))
    if where == "theta":
        s["theta"] = bad
    elif where == "coordinate" and s["vertices"]:
        s["vertices"][draw(st.integers(0, len(s["vertices"]) - 1))][draw(st.integers(0, 1))] = bad
    return json.dumps(doc).replace(repr(OVERFLOW), "1e999")


@settings(max_examples=300, deadline=None)
@given(edited_documents())
def test_stacked_parse_matches_per_sample_oracle(text):
    # same scene (compared by its serialized bytes) or the same error
    got, want = _outcome(parse, text), _outcome(_oracle_parse, text)
    assert got == want
    if got[0] is not None:
        assert got[0] == _emitted(parse(text))


def test_parse_certifies_samples_in_one_stack_per_vertex_count(monkeypatch):
    # a later edit must not fall back to one hull per sample
    from ccproj import planar
    quadrics = {m: gen_quadric(6, m).fan for m in (8, 12, 16)}
    mixed = quadrics[8].with_sections(
        [quadrics[m].sections[i] for i, m in enumerate((8, 12, 16, 16, 12, 8))])
    texts = [serialize(gen_quadric(48, 256)), serialize(gen_random_fan(0)),
             serialize(Scene(mixed))]
    calls = []
    cycle = planar._convex_cycle
    monkeypatch.setattr(planar, "_convex_cycle",
                        lambda points, eps: calls.append(points.shape) or cycle(points, eps))
    monkeypatch.setattr(scene, "convex_hull", lambda *a, **kw: calls.append("hull"))
    shapes = []
    for text in texts:
        calls.clear()
        parse(text)
        shapes.append(sorted(calls))
    assert shapes == [[(48, 256, 2)], [(10, 24, 2)], [(2, 8, 2), (2, 12, 2), (2, 16, 2)]]


def test_parse_rejects_unknown_space():
    doc = json.loads(serialize(gen_quadric(6, 16)))
    doc["frame"]["space"] = "Primal"
    with pytest.raises(SceneFormatError, match="space"):
        parse(json.dumps(doc))
    doc["frame"]["space"] = "dual"
    assert parse(json.dumps(doc)).fan.frame.space == "dual"
