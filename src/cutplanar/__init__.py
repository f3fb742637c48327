"""Cutwidth-preserving planarization of graphs via crossover gadgets,
with exact Independent Set and Dominating Set solvers."""

from .graph import (
    Graph,
    LinearLayout,
    CutProfile,
    PathDecomposition,
    cut_profile,
    exact_cutwidth,
    is_planar,
    layout_to_path_decomposition,
    random_graph,
)
from .drawing import ArcDrawing, Crossing, build_arc_drawing, \
    count_crossings, element_order, vertical_cut_edges, to_svg
from .solvers import (
    DPReport,
    brute_ds,
    brute_is,
    brute_vc,
    dp_ds,
    dp_is,
    heuristic_layout,
)
from .gadgets import (
    BoundaryFunction,
    CrossoverGadget,
    boundary_function,
    builtin_gadget,
    certify_is_gadget,
    ds_crossover_gadget,
    gjs_is_gadget,
    insert_double_path,
    replace_edges_by_gadget,
    replace_triangle_crossing,
    validate_crossover_shape,
    vc_crossing_core,
    verify_vc_crossing_bounds,
)
from .planarize import PlanarizationResult, planarize, verify_planarization

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
