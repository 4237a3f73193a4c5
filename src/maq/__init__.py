"""Exact cohomology of moment-angle complexes and their quotients by
closed torus subgroups, over the integers and F2."""

from .simplicial import (SimplicialComplex, boundary_simplex, cone,
                         contraction, full_subcomplex, minimal_non_faces,
                         skeleton, sphere_sanity, stellar_subdivision)
from .intlattice import (FinAbGroup, TorusSubgroup, join_coordinate,
                         meet_coordinate)
from .homology import (ChainComplex, GradedAbGroup, PosetDiagram,
                       limit_graded, reduced_cohomology, reduced_homology)
from .momentangle import (BoundExceeded, buchstaber_real, hochster,
                          skeleton_quotient_hrk, skeleton_wedge,
                          sr_dimension)
from .equivariant import (ActionReport, PreconditionFailed, action_report,
                          check_condition1, check_free,
                          coordinate_quotient_check, equivariant_limit)
from .quotient import (CubicalQuotient, KoszulComplex, TrcReport,
                       cubical_quotient_cohomology, cw_census,
                       koszul_cohomology, trc_report)
from .constructions import (PipelineIntegrityError, TorsionPipelineReport,
                            bosio_meersseman_nerve, lambda_alpha_subgroup,
                            rp2_6, torsion_pipeline, truncate_face)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
