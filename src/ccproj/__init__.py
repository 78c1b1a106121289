"""Convex-concave bodies over a line pencil in RP^3.

The central object is the SectionFan: cyclically ordered convex polygon
sections over the pencil of planes through a line L, with convex-hull
interpolation between neighbors.  On top of it: duality into the dual
pencil, hull and pointing surgeries, octagonalization, Euler-characteristic
membership tests, and line-transversal search.
"""

from .projcore import (ArcSegment, DEFAULT_TOL, DegenerateInput, GeometryError,
                       HPlane, HPoint, PencilFrame, ProjLine, Tolerances,
                       canonicalize, dual_arc, dual_line, incident, join_points,
                       meet_line_plane, meet_planes, pencil_plane)
from .planar import (ConvexPolygon, DegenerateQuadrangle, RefNotInterior, chebyshev_center,
                     contains_polygon, convex_hull, distance, hausdorff,
                     interior_margin, minkowski_scaled_sum, nearest_point, polar_dual)
from .fan import (CenterNotOnL, SectionFan, ValidationReport, gap_coefficients,
                  hull_slice, is_pointed, project_from, section_at, validate)
from .dualize import (IntersectsDualL, InvalidInput, affine_dependence_check,
                      dual_of_found_line,
                      fan_contains_sectionwise, involution_residual, l_dual,
                      plane_meets_all_sections, point_in_fan,
                      pointedness_duality_check)
from .surgery import (DuplicateDirections, octagonalize, octagonalize_section,
                      octagonalize_via_pointing, pointify, sp_duality_check,
                      surgery_p, surgery_s)
from .transversal import (BrowderResult, EmptySelection, HellyReport,
                          LineCertificate, NoAdmissibleChart, NotSupporting,
                          TooManyDirections, TransversalLine,
                          browder_four_sections, build_solver_chart,
                          certify_line, chebyshev_line, helly_verify,
                          solve_minimax, support_halfplane_transversal)
from .eulercalc import (ChiCrossReport, ChiReport, NonIntervalEmptySet,
                        chi_dual_crosscheck, chi_section)
from .scene import (Scene, SceneFormatError, export_mesh, gen_quadric,
                    gen_random_fan, parse, serialize)

__version__ = "0.1.0"
