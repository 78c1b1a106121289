"""Command-line interface.

Scenes are read from --in (a path or '-' for stdin) and written with --out.
Reports are emitted as key=value lines on stdout.  Exit codes: 0 success,
1 geometric precondition failure, 2 I/O or parse error.  Tolerance
precedence: --tol flag > CCPROJ_TOL environment > scene file > default.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import dualize, eulercalc, surgery, transversal
from .fan import section_at, validate
from .projcore import (PI, ArcSegment, GeometryError, ProjLine, Tolerances,
                       finite_float, tolerances_from_env)
from .scene import (Scene, SceneFormatError, export_mesh, gen_quadric,
                    gen_random_fan, parse, serialize)


def _read_scene(path: str) -> Scene:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_fan(path: str | None, fan, scene: Scene):
    """Write a fan as a scene with the input scene's tolerances and seed."""
    _write_text(path or "-", serialize(Scene(fan, scene.tolerances, scene.seed)))


def _resolve_tol(args, scene: Scene | None) -> Tolerances:
    tol = Tolerances()
    if scene is not None:
        tol = scene.tol(tol)
    tol = tolerances_from_env(tol)
    if getattr(args, "tol", None):
        tol = tol.with_base(args.tol)
    return tol


def _numbers(text: str) -> list:
    """Finite numbers separated by commas or whitespace."""
    return [finite_float(x) for x in text.replace(",", " ").split()]


def _parse_arc(text: str) -> ArcSegment:
    a, b = _numbers(text)
    return ArcSegment(a, b)


def _parse_vec4(text: str) -> np.ndarray:
    v = np.array(_numbers(text))
    if len(v) != 4:
        raise ValueError("expected 4 numbers")
    return v


def _emit(pairs):
    for k, v in pairs:
        print("%s=%s" % (k, v))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(prog="ccproj",
                                 description="convex-concave fans over a line "
                                             "pencil: duality, surgeries, and "
                                             "line transversals")
    ap.add_argument("--tol", type=finite_float, default=None,
                    help="base geometric tolerance override")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-quadric", help="generate the standard quadric fan")
    g.add_argument("--k", type=int, default=12)
    g.add_argument("--m", type=int, default=64)
    g.add_argument("--mode", choices=["inscribed", "circumscribed"],
                   default="inscribed")
    g.add_argument("--out", default="-")

    g = sub.add_parser("gen-random", help="generate a seeded random valid fan")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--k", type=int, default=12)
    g.add_argument("--complexity", type=int, default=2)
    g.add_argument("--out", default="-")

    for name, extra in [
        ("validate", []),
        ("section", [("--theta", dict(type=finite_float, required=True))]),
        ("dualize", [("--out", dict(default=None))]),
        ("roundtrip", []),
        ("surgery-s", [("--arc", dict(required=True)), ("--out", dict(default=None))]),
        ("surgery-p", [("--arc", dict(required=True)), ("--out", dict(default=None))]),
        ("octagonalize", [("--dirs", dict(required=True)), ("--out", dict(default=None))]),
        ("find-line", [("--method", dict(choices=["chebyshev", "browder", "dual"],
                                         default="chebyshev")),
                       ("--subset", dict(default=None))]),
        ("chi", [("--plane", dict(required=True))]),
        ("helly", []),
        ("certify", [("--line", dict(required=True))]),
        ("export-mesh", [("--out", dict(default="-"))]),
    ]:
        g = sub.add_parser(name)
        g.add_argument("--in", dest="infile", default="-")
        for flag, kw in extra:
            g.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        return _dispatch(args)
    except (SceneFormatError, OSError, ValueError) as exc:
        print("error=%s" % exc, file=sys.stderr)
        return 2
    except GeometryError as exc:
        print("error=%s" % exc, file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.cmd

    if cmd in ("gen-quadric", "gen-random"):
        tol = _resolve_tol(args, None)
        scene = (gen_quadric(args.k, args.m, args.mode, tol) if cmd == "gen-quadric"
                 else gen_random_fan(args.seed, args.k, args.complexity, tol=tol))
        _write_text(args.out, serialize(scene))
        return 0

    scene = _read_scene(args.infile)
    tol = _resolve_tol(args, scene)
    fan = scene.fan

    if cmd == "validate":
        report = validate(fan, tol)
        _emit([("valid", str(report.ok).lower()),
               ("sections_ok", str(report.sections_ok).lower()),
               ("disjoint_ok", str(report.disjoint_ok).lower()),
               ("concave_ok", str(report.concave_ok).lower())])
        for msg in report.messages:
            print("note=%s" % msg)
        return 0 if report.ok else 1

    if cmd == "section":
        s = section_at(fan, args.theta, tol)
        _emit([("theta", format(args.theta % PI, ".17g")),
               ("n_vertices", s.n), ("degenerate", str(s.degenerate).lower())])
        for u, v in s.vertices:
            print("vertex=%s %s" % (format(u, ".17g"), format(v, ".17g")))
        return 0

    if cmd == "dualize":
        _write_fan(args.out, dualize.l_dual(fan, tol=tol), scene)
        return 0

    if cmd == "roundtrip":
        dists, mx = dualize.involution_residual(fan, tol)
        _emit([("max_residual", format(mx, ".17g")),
               ("diameter", format(fan.diameter(), ".17g"))])
        for i, d in enumerate(dists):
            print("residual_%d=%s" % (i, format(float(d), ".17g")))
        return 0

    if cmd in ("surgery-s", "surgery-p"):
        op = surgery.surgery_s if cmd == "surgery-s" else surgery.surgery_p
        _write_fan(args.out, op(fan, _parse_arc(args.arc), tol), scene)
        return 0

    if cmd == "octagonalize":
        _write_fan(args.out, surgery.octagonalize(fan, _numbers(args.dirs), tol), scene)
        return 0

    if cmd == "find-line":
        subset = None
        if args.subset:
            subset = [int(x) for x in args.subset.replace(",", " ").split()]
        if args.method == "chebyshev":
            r = transversal.chebyshev_line(fan, subset=subset, tol=tol)
            line = r.line
        elif args.method == "browder":
            idx = tuple(subset) if subset else (0, 1, 2, 3)
            br = transversal.browder_four_sections(fan, idx, tol=tol)
            r = br.line
            if not br.converged:
                r = transversal.chebyshev_line(fan, subset=list(idx), tol=tol)
                print("note=fixed-point iteration did not converge; fell back "
                      "to the minimax solver")
            line = r.line
        else:  # dual route
            dual = dualize.l_dual(fan, tol=tol)
            r = transversal.chebyshev_line(dual, tol=tol)
            line = dualize.dual_of_found_line(r.line, dual.frame, tol)
        cert = transversal.certify_line(fan, line, tol=tol)
        _emit([("max_residual", format(r.value, ".17g")),
               ("contained", str(cert.contained).lower()),
               ("depth", format(r.depth, ".17g"))])
        for row in line.span:
            print("generator=%s" % " ".join(format(x, ".17g") for x in row))
        return 0

    if cmd == "chi":
        xi = _parse_vec4(args.plane)
        rep = eulercalc.chi_section(fan, xi, tol)
        pairs = [("chi", rep.chi), ("member", str(rep.membership).lower()),
                 ("pencil_plane", str(rep.pencil_plane).lower())]
        if rep.empty_arc is not None:
            pairs.append(("empty_arc", "%s %s" % (format(rep.empty_arc.start, ".17g"),
                                                  format(rep.empty_arc.end, ".17g"))))
        _emit(pairs)
        return 0

    if cmd == "helly":
        rep = transversal.helly_verify(fan, tol)
        _emit([("max_subset_residual", format(rep.max_subset_residual, ".17g")),
               ("full_residual", format(rep.full_residual, ".17g")),
               ("consistent", str(rep.consistent).lower()),
               ("subsets", len(rep.subset_residuals))])
        return 0

    if cmd == "certify":
        rows = [r for r in args.line.split(";") if r.strip()]
        if len(rows) != 2:
            raise ValueError("line needs two generator rows separated by ';'")
        line = ProjLine(np.vstack([_parse_vec4(rows[0]), _parse_vec4(rows[1])]))
        cert = transversal.certify_line(fan, line, tol=tol)
        _emit([("contained", str(cert.contained).lower()),
               ("max_residual", format(cert.max_residual, ".17g")),
               ("eps", format(cert.eps, ".17g"))])
        for i in cert.failing:
            print("failing=%d" % i)
        return 0

    if cmd == "export-mesh":
        _write_text(args.out, export_mesh(fan))
        return 0

    raise ValueError("unknown command %s" % cmd)


if __name__ == "__main__":
    sys.exit(main())
