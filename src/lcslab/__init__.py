"""Numerical laboratory for twisted (locally conformally symplectic)
geometry on cotangent bundles of tori.

The building blocks, bottom up: exact second-order jets (:mod:`lcslab.jets`),
single-chart manifolds and fields (:mod:`lcslab.manifolds`), differential
forms as expression trees (:mod:`lcslab.forms`), the canonical twisted
structures (:mod:`lcslab.structures`), Lagrangian embeddings with exactness
certificates (:mod:`lcslab.lagrangians`), Liouville-chord detection
(:mod:`lcslab.chords`), the positive-extension pipeline
(:mod:`lcslab.extension`), the radial straightening flow
(:mod:`lcslab.moser`), and the scene-driven command line
(:mod:`lcslab.scenes`, :mod:`lcslab.cli`).
"""

from .chords import (LiouvilleChord, classify_chord, mvt_obstruction_report,
                     reeb_correspondence, scan_chords)
from .errors import (DimensionError, DomainEvaluationError, ImmersionError,
                     ObstructionError, PreconditionError, SceneError)
from .expressions import compile_field
from .extension import (RadialField, SqueezeProfile,
                        build_positive_extension, mollify,
                        near_zero_extension, outer_flatten,
                        radial_log_interpolation, squeeze_profile,
                        verify_radial_bound)
from .forms import (FormExpression, check_nondegenerate, constant_form,
                    coordinate_differential, exterior_d, field_form,
                    interior_product, lichnerowicz_d, pullback)
from .jets import Jet2, compose_jet, constant_jet, partial_jet, seed_jets
from .lagrangians import (ExactnessCertificate, ParametricEmbedding,
                          beta_graph, contact_lift_check, example_torus_1,
                          example_torus_2, genericity_check, jet_graph,
                          lift_legendrian, primitive_of, solve_primitive,
                          symplectization_immersion, translate_by_form,
                          verify_lagrangian, zero_section)
from .manifolds import (ModelManifold, ScalarField, SmoothMap, VectorField,
                        make_manifold, parameter_grid, sample_points)
from .moser import (FlowResult, MoserProblem, integrate_flow,
                    projection_degree, straighten_lagrangian,
                    verify_conformal_pullback)
from .scenes import load_scene, run_command
from .structures import (CotangentLcsStructure, cotangent_lcs,
                         criterion_radial_log_derivative, liouville_flow,
                         liouville_vector_field)

__version__ = "0.1.0"
