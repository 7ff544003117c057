"""Stokes graphs, short geodesics and spectral accumulation rays of
complex polynomial potentials P(z) dz^2."""

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .domains import (AdmissibleDomain, ChordDiagram, admissible_domains,
                      build_face_set, chord_diagram)
from .errors import (BranchError, ClearanceError, DegeneratePairError,
                     IncompleteGraphError, NonGenericError, NumericalError,
                     ParseError, StokesGeoError)
from .geodesics import (GeodesicSurvey, PsiPolygon, ShortGeodesic,
                        candidate_angles, count_short_geodesics,
                        enumerate_short_geodesics, survey_short_geodesics,
                        teichmuller_defect, verify_geodesic)
from .pathint import (Period, alpha_contour_integrals, pairwise_periods,
                      re_xi_drift, winding_number)
from .polynomial import (ComplexPolynomial, StokesSectorSet, TurningPointSet,
                         format_poly_text, parse_poly_json, parse_poly_text,
                         stokes_sectors, turning_points)
from .spectrum import (AccumulationRay, EigenvalueEstimate,
                       accumulation_rays, eigenvalue_asymptotics,
                       wronskian_eigenvalue_search)
from .strips import (ChoppedStrip, ExactTieError, VeryFlatResult,
                     is_very_flat, realize_count, visible_pairs)
from .tracer import (EscapedToRay, HitTurningPoint, StokesEdge, StokesGraph,
                     Truncated, build_stokes_graph, classify_complexes,
                     emanating_directions, trace_stokes_line)

__version__ = "0.1.0"
