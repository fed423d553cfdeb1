"""Constructive adjacent-vertex-distinguishing edge colorings.

Certificate-checked pipeline: bounded-degree edge partitions found by a
potential-decreasing local search, a Delta+1 proper edge colorer, exact
budgeted AVD search for the small-degree parts, palette-disjoint
composition, and independent brute-force oracles.
"""

from .coloring import (AvdCertificate, avd_color, avd_color_budget,
                       avd_color_regular, avd_subcubic, compose, main_bound,
                       regular_bound)
from .errors import (CapExceededError, CounterexampleFound, GenerationError,
                     GraphFormatError, InternalBoundViolationError,
                     NotNormalError, SearchCapExceededError)
from .generators import complete, cycle, generate, gnp, petersen, random_regular
from .graph_io import emit_graph, parse_graph, sniff_format
from .graphs import (Edge, EdgePartition, Graph, SubgraphSelection, canon_edge,
                     edge_induced, is_normal)
from .partition import (Move, check_membership, find_move, initial_selection,
                        partition_p1, partition_p2, partition_regular,
                        run_engine)
from .verify import (AuditReport, audit, check_avd, check_certificate,
                     check_partition, check_proper, exact_chi_a,
                     exact_chromatic_index)
from .vizing import EdgeColoring, color_classes, misra_gries

__all__ = [
    "AuditReport", "AvdCertificate", "CapExceededError",
    "CounterexampleFound", "Edge", "EdgeColoring",
    "EdgePartition", "GenerationError", "Graph", "GraphFormatError",
    "InternalBoundViolationError", "Move", "NotNormalError",
    "SearchCapExceededError", "SubgraphSelection",
    "audit", "avd_color", "avd_color_budget",
    "avd_color_regular", "avd_subcubic", "canon_edge", "check_avd",
    "check_certificate", "check_membership", "check_partition",
    "check_proper",
    "color_classes", "complete",
    "compose", "cycle", "edge_induced",
    "emit_graph", "exact_chi_a", "exact_chromatic_index",
    "find_move", "generate", "gnp", "initial_selection", "is_normal",
    "main_bound", "misra_gries", "parse_graph",
    "partition_p1", "partition_p2", "partition_regular", "petersen",
    "random_regular", "regular_bound", "run_engine", "sniff_format",
]
