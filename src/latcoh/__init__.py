"""Lattice cohomology of weighted plumbing graphs over GF(2).

The package computes the graded GF(2)[U]-module H+ of a weighted graph from
finite truncations of its cubical lattice complex, and machine-verifies the
surgery exact triangle relating a graph, the graph with one weight raised,
and the graph with that vertex deleted: the chain maps A and B form a short
exact sequence, and the induced long exact sequence is checked rank by rank
on homology.
"""

from .graph import (DegenerateFormError, LatcohError, ParseError,
                    PlumbingGraph, SpincClass, UnknownVertexError,
                    bad_vertices, characteristic_base, delete_vertex,
                    determinant, graph_hash, increment_weight,
                    intersection_matrix, is_negative_definite, make_graph,
                    parse_graph, spinc_representatives)
from .lattice import (OFFSET_LIMIT, BasisCapError, Chain, DescentError,
                      OffsetRangeError, OutsideRegionError, Region,
                      RegionTooSmallError, absolute_q, cube_weights, delta,
                      delta_squared_check, relative_weight, truncation_region,
                      weight_monotonicity_check)
from .triangle import (SesReport, TriangleContext, TriangleRegion,
                       c_exponent_closed, c_exponent_def, chain_map_commutes,
                       default_region, is_in_D, map_A, map_B, r_value,
                       triangle_context, verify_ses)
from .engine import (ComplexHomology, DegreeModule, GradedGF2Complex,
                     GradedModulePresentation, InvariantError, LesReport,
                     NonStabilizingError, class_cells, les_check,
                     module_presentation, stabilize)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
