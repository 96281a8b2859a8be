"""Connected minimum joins in grafts: decision, construction, generation.

A graft pairs a multigraph with an even-per-component terminal set.  This
package computes minimum joins, derives signed distances and the layered
decomposition they induce, decides whether some minimum join is connected
(building one when it is), generates families of guaranteed-yes instances,
and cross-checks everything against a brute-force oracle on small inputs.
"""

from .connected_join import (Decision, EligibilityVerdict,
                             connected_minimum_join, construct_join, decide,
                             head_set, is_eligible)
from .constructive import (ConstructionRecipe, GluingMaps, PrimalWitness,
                           attach_tail, gen_primal, gen_rake, gen_tailed,
                           gluing_sum, is_primal, is_rake, replay,
                           replay_witness)
from .decomposition import (DecompositionReport, DistanceDecomposition,
                            Violation, distance_decomposition,
                            verify_decomposition)
from .distances import UNREACHABLE, DistanceMap, f_distances, f_weight
from .errors import (InternalError, NoJoinError, NotMinimumJoinError,
                     OracleScaleError, ParseError, StructuralInputError,
                     TheoremViolationError)
from .graph_core import Graph, connected_components
from .oracle import OracleReport, oracle_report
from .tjoin import Graft, is_join, minimum_join, nu, validate_graft

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "connected_components",
    "Graft",
    "validate_graft",
    "is_join",
    "minimum_join",
    "nu",
    "UNREACHABLE",
    "DistanceMap",
    "f_weight",
    "f_distances",
    "DistanceDecomposition",
    "DecompositionReport",
    "Violation",
    "distance_decomposition",
    "verify_decomposition",
    "EligibilityVerdict",
    "Decision",
    "is_eligible",
    "head_set",
    "construct_join",
    "decide",
    "connected_minimum_join",
    "ConstructionRecipe",
    "PrimalWitness",
    "GluingMaps",
    "is_rake",
    "is_primal",
    "gen_rake",
    "gluing_sum",
    "gen_primal",
    "attach_tail",
    "gen_tailed",
    "replay",
    "replay_witness",
    "OracleReport",
    "oracle_report",
    "StructuralInputError",
    "NoJoinError",
    "NotMinimumJoinError",
    "OracleScaleError",
    "ParseError",
    "TheoremViolationError",
    "InternalError",
    "__version__",
]
