"""Crossover gadgets: construction, replacement operations and certification.

A crossover gadget is a planar graph H with four terminals u, u', v, v'
that can be drawn with the terminals on the outer face so that a closed
curve meets the drawing only in the terminals, in the cyclic order
u, v, u', v'.  Replacing two disjoint crossing edges {a,b}, {c,d} of a
host graph by H (drop both edges, insert H, connect a-u, u'-b, c-v,
v'-d) shifts the optimum of the target problem by the gadget constant.

Two gadget families are provided:

* an independent-set gadget with shift 9, built as a vertex-cover
  crossing core plus four pendant terminals (the classic construction
  of Garey, Johnson and Stockmeyer for Vertex Cover, which works for
  Independent Set by complementation), and
* a dominating-set gadget with shift 48, composed from two double-path
  structures (+6 each) whose four strand-triangle crossings are replaced
  by the vertex-cover crossing core (+9 each).

Both gadgets carry layouts frozen by vertex label.  Every construction
in this module is validated by tests against brute-force optimum
oracles; the structural facts used by the correctness arguments
(disjoint closed neighborhoods, interior cover bounds, domination
patterns) are asserted in the test suite rather than trusted; the lemma
checks of the dominating-set argument live with the test oracles.  The
certification here (boundary function, minimum covers with required
vertices, host-shift checks) computes its optima with the exact solvers
of solvers.py.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import GadgetError, PreconditionError
from .graph import (Graph, LinearLayout, cutwidth_of_layout, planar_rotation,
                    random_graph)
from . import solvers

Edge = tuple[int, int]

# rotation entry of a terminal that stands for its connector edge
CONNECTOR = -1


# ---------------------------------------------------------------------------
# gadget data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossoverGadget:
    """Gadget graph with terminals (u, u', v, v'), a layout and a shift.

    ``problem`` is "is" or "ds".  The layout is any valid layout of the
    gadget graph; its cutwidth feeds the planarizer's width bound.
    """

    problem: str
    graph: Graph
    terminals: tuple[int, int, int, int]  # u, u', v, v'
    layout: LinearLayout
    shift: int

    def __post_init__(self):
        if self.problem not in ("is", "ds"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if len(set(self.terminals)) != 4:
            raise ValueError("terminals must be four distinct vertices")
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise ValueError("terminal outside gadget graph")
        self.layout.validate(self.graph)

    @property
    def width(self) -> int:
        return cutwidth_of_layout(self.graph, self.layout)

    @cached_property
    def rotation(self) -> tuple[tuple[int, ...], ...]:
        """Counter-clockwise rotation system of a planar drawing of the
        gadget whose connector edges leave u, v, u', v' in that
        counter-clockwise order, as at a crossing whose first edge runs
        from upper left (u) to lower right (u').  Each terminal's
        rotation starts with CONNECTOR, the slot of its connector edge.

        Taken from the embedding of the certificate graph of
        ``validate_crossover_shape``: the apex's slot at each terminal
        becomes the connector slot, the 4-cycle is dropped, and the whole
        rotation is mirrored when the apex sees the terminals the other
        way round.  Raises GadgetError when no such drawing exists.
        """
        g = self.graph
        u, up, v, vp = self.terminals
        rot = planar_rotation(_shape_certificate(self))
        if rot is None:
            raise GadgetError(
                "gadget has no planar drawing with the terminals on the "
                "outer face in the cyclic order u, v, u', v'")
        apex = g.n
        # seen from the apex, outside the gadget, the counter-clockwise
        # order u, v, u', v' around the gadget reads clockwise
        i = rot[apex].index(u)
        if rot[apex][i:] + rot[apex][:i] != [u, vp, up, v]:
            rot = [r[::-1] for r in rot]
        adj = g.adjacency()
        out = []
        for w in range(g.n):
            r = [x for x in rot[w] if x in adj[w] or x == apex]
            if w in self.terminals:
                i = r.index(apex)
                r = [CONNECTOR] + r[i + 1:] + r[:i]
            out.append(tuple(r))
        return tuple(out)


@dataclass(frozen=True)
class BoundaryFunction:
    """For each subset F of the four terminals, the maximum size of an
    independent set of the gadget graph avoiding F."""

    values: dict[frozenset, int]

    def __getitem__(self, fs) -> int:
        return self.values[frozenset(fs)]

    def is_antitone(self) -> bool:
        for f1, v1 in self.values.items():
            for f2, v2 in self.values.items():
                if f1 <= f2 and v1 < v2:
                    return False
        return True


def _shape_certificate(gadget: CrossoverGadget) -> Graph:
    """The gadget graph plus the terminal 4-cycle u-v-u'-v' and an apex
    (vertex n) adjacent to all four terminals."""
    u, up, v, vp = gadget.terminals
    g = gadget.graph
    extra = [(u, v), (v, up), (up, vp), (vp, u),
             (g.n, u), (g.n, v), (g.n, up), (g.n, vp)]
    return Graph.from_edges(g.n + 1, list(g.edges) + extra)


def validate_crossover_shape(gadget: CrossoverGadget) -> bool:
    """Certify the drawing requirements: the gadget graph together with
    the terminal 4-cycle u-v-u'-v' and an apex adjacent to all four
    terminals must remain planar.  This holds iff the gadget has a
    planar drawing with the terminals on the outer face in the cyclic
    order u, v, u', v'.  The embedding found is kept as the gadget's
    rotation, so the planarity test runs once per gadget."""
    try:
        gadget.rotation
    except GadgetError:
        return False
    return True


# ---------------------------------------------------------------------------
# generic replacement (Definition of crossover replacement)
# ---------------------------------------------------------------------------

def replace_edges_by_gadget(g: Graph, e1: Edge, e2: Edge,
                            gadget: CrossoverGadget) -> Graph:
    """Replace the disjoint edges e1 = {a,b}, e2 = {c,d} by a copy of the
    gadget: remove both edges, insert the gadget graph, and add the four
    connector edges a-u, u'-b, c-v, v'-d.  Copy vertices are labelled
    ``gadget:<label>``."""
    a, b = e1
    c, d = e2
    if len({a, b, c, d}) != 4:
        raise PreconditionError("edges must not share an endpoint")
    if not (g.has_edge(a, b) and g.has_edge(c, d)):
        raise PreconditionError("both edges must be present in the host")
    u, up, v, vp = gadget.terminals
    base = g.n
    drop = {tuple(sorted((a, b))), tuple(sorted((c, d)))}
    edges = [e for e in g.edges if e not in drop]
    edges += [(base + s, base + t) for s, t in gadget.graph.edges]
    edges += [(a, base + u), (base + up, b), (c, base + v), (base + vp, d)]
    labels = dict(g.labels)
    for w in range(gadget.graph.n):
        src = gadget.graph.labels.get(w, str(w))
        labels[base + w] = f"gadget:{src}"
    return Graph.from_edges(base + gadget.graph.n, edges, labels)


# ---------------------------------------------------------------------------
# the vertex-cover crossing core (18 vertices)
# ---------------------------------------------------------------------------

# Terminals x, y, p, q; non-terminals are four vertex-disjoint triangles
# A, B, C, D plus the disjoint edge {e1, e2}.  x gates into A and B,
# y into C and D; p owns two vertices of each of A and C, q of B and D.
# Two disjoint five-cycles (a2,a3,b3,b2,e1) and (c2,c3,d3,d2,e2) give the
# forcing structure: every vertex cover misses at most 5 non-terminals,
# at most 4 if it avoids both of x,y, and at most 3 if it avoids both of
# p,q; all bounds verified exhaustively in the tests.
VC_CORE_NAMES = (
    "x", "y", "p", "q",
    "a1", "a2", "a3", "b1", "b2", "b3",
    "c1", "c2", "c3", "d1", "d2", "d3",
    "e1", "e2",
)
_VI = {name: i for i, name in enumerate(VC_CORE_NAMES)}

VC_CORE_EDGES_NAMED = (
    # four triangles and the separate edge
    ("a1", "a2"), ("a1", "a3"), ("a2", "a3"),
    ("b1", "b2"), ("b1", "b3"), ("b2", "b3"),
    ("c1", "c2"), ("c1", "c3"), ("c2", "c3"),
    ("d1", "d2"), ("d1", "d3"), ("d2", "d3"),
    ("e1", "e2"),
    # terminal attachments
    ("x", "a1"), ("x", "b1"), ("y", "c1"), ("y", "d1"),
    ("p", "a1"), ("p", "a2"), ("p", "c1"), ("p", "c2"),
    ("q", "b1"), ("q", "b2"), ("q", "d1"), ("q", "d2"),
    # five-cycle wiring
    ("a3", "b3"), ("b2", "e1"), ("e1", "a2"),
    ("c3", "d3"), ("d2", "e2"), ("e2", "c2"),
)

VC_CORE_TERMINALS = ("x", "y", "p", "q")


def vc_crossing_core() -> tuple[Graph, dict[str, int]]:
    """The 18-vertex vertex-cover crossing gadget and its terminal map.

    Used to eliminate a crossing of two triangles in a Dominating Set
    instance (shift +9) and, with pendant terminals, as the Independent
    Set crossover gadget (shift +9).
    """
    edges = [(_VI[s], _VI[t]) for s, t in VC_CORE_EDGES_NAMED]
    labels = {i: name for i, name in enumerate(VC_CORE_NAMES)}
    g = Graph.from_edges(len(VC_CORE_NAMES), edges, labels)
    return g, {t: _VI[t] for t in VC_CORE_TERMINALS}


def _all_independent_sets(g: Graph):
    adj = g.adjacency_masks()
    n = g.n
    stack = [(0, 0, 0)]
    while stack:
        i, cur, forb = stack.pop()
        if i == n:
            yield cur
            continue
        stack.append((i + 1, cur, forb))
        if not (forb >> i) & 1:
            stack.append((i + 1, cur | (1 << i), forb | adj[i]))


def verify_vc_crossing_bounds(g: Graph, terminals: dict[str, int]) -> bool:
    """Exhaustive check of the interior-cover bound: every vertex cover S
    satisfies |S minus terminals| >= 9 + (number of pairs among {p,q} and
    {x,y} containing no vertex of S), with the all-terminals-avoided case
    needing >= 11.  Also checks tightness: some cover has exactly 9
    non-terminals while hitting both pairs.

    Runs over all independent sets (complements of vertex covers).
    """
    tx, ty, tp, tq = (terminals[k] for k in ("x", "y", "p", "q"))
    tmask = sum(1 << t for t in (tx, ty, tp, tq))
    imask = ((1 << g.n) - 1) ^ tmask
    n_interior = g.n - 4
    tight = False
    for iset in _all_independent_sets(g):
        nint = (iset & imask).bit_count()
        miss_pq = bool((iset >> tp) & 1 and (iset >> tq) & 1)
        miss_xy = bool((iset >> tx) & 1 and (iset >> ty) & 1)
        ell = int(miss_pq) + int(miss_xy)
        # |S \ T| = interior - nint must be >= 9 + ell
        if n_interior - nint < 9 + ell:
            return False
        if miss_pq and miss_xy and n_interior - nint < 11:
            return False
        if nint == n_interior - 9 and not miss_pq and not miss_xy:
            tight = True
    return tight


def min_vc_containing(g: Graph, required: set[int]) -> int:
    """Minimum vertex cover containing all of ``required``: the required
    vertices plus a minimum cover of the graph without them."""
    keep = {w: i for i, w in enumerate(w for w in range(g.n)
                                       if w not in required)}
    return len(required) + solvers.brute_vc(g.relabel(keep, len(keep)))


# ---------------------------------------------------------------------------
# the double-path structure (edge replacement for Dominating Set, +6)
# ---------------------------------------------------------------------------

# Interior of the double-path structure, one mirrored block per side.
# Side s has a pendant chain a-b-c, a long cycle through d..h of both
# sides, and three cap vertices t, t', t'' forming triangles with the
# strand edges {e,f}, {f,g}, {g,h}.
DP_SIDE_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "t", "tp", "tpp")


def double_path_interior() -> tuple[list[str], list[tuple[str, str]]]:
    """Names and edges (on names) of the 22-vertex double-path interior."""
    names = [f"{w}_{s}" for s in ("x", "y") for w in DP_SIDE_NAMES]
    edges: list[tuple[str, str]] = []
    for s in ("x", "y"):
        chain = [f"{w}_{s}" for w in ("a", "b", "c", "d", "e", "f", "g", "h")]
        edges += list(zip(chain, chain[1:]))
        edges += [(f"t_{s}", f"e_{s}"), (f"t_{s}", f"f_{s}"),
                  (f"tp_{s}", f"f_{s}"), (f"tp_{s}", f"g_{s}"),
                  (f"tpp_{s}", f"g_{s}"), (f"tpp_{s}", f"h_{s}")]
    edges += [("h_x", "c_y"), ("h_y", "c_x")]
    return names, edges


def insert_double_path(g: Graph, e: Edge, tag: str = "dp") -> Graph:
    """Replace edge e = {x,y} by the double-path structure; raises the
    dominating set optimum by exactly 6."""
    u, v = e
    if not g.has_edge(u, v):
        raise PreconditionError(f"edge {e} not in host")
    names, dedges = double_path_interior()
    base = g.n
    idx = {nm: base + i for i, nm in enumerate(names)}
    edges = [edge for edge in g.edges if edge != tuple(sorted((u, v)))]
    edges += [(idx[s], idx[t]) for s, t in dedges]
    edges += [(u, idx["a_x"]), (v, idx["a_y"])]
    labels = dict(g.labels)
    labels.update({idx[nm]: f"{tag}:{nm}" for nm in names})
    return Graph.from_edges(g.n + len(names), edges, labels)


# ---------------------------------------------------------------------------
# triangle-crossing replacement (Dominating Set, +9)
# ---------------------------------------------------------------------------

def replace_triangle_crossing(g: Graph, t1: tuple[int, int, int],
                              t2: tuple[int, int, int],
                              tag: str = "vcx") -> Graph:
    """Replace a crossing of two vertex-disjoint triangles by the
    vertex-cover crossing core.

    t1 = (x, y, z) and t2 = (p, q, r) must be triangles of g whose apexes
    z and r have degree exactly two.  The apexes and the base edges
    {x,y}, {p,q} are removed, the core is inserted with its terminals
    identified with x, y, p, q, and every edge of the inserted copy gets
    a private degree-two watcher vertex forming a triangle with it.
    Raises the dominating set optimum by exactly 9.
    """
    x_, y_, z_ = t1
    p_, q_, r_ = t2
    if len({x_, y_, z_, p_, q_, r_}) != 6:
        raise PreconditionError("triangles must be vertex-disjoint")
    for (aa, bb, cc) in (t1, t2):
        for s, t in ((aa, bb), (aa, cc), (bb, cc)):
            if not g.has_edge(s, t):
                raise PreconditionError(f"({aa},{bb},{cc}) is not a triangle")
    if g.degree(z_) != 2 or g.degree(r_) != 2:
        raise PreconditionError("both apexes must have degree exactly 2")
    keep = [w for w in range(g.n) if w not in (z_, r_)]
    perm = {w: i for i, w in enumerate(keep)}
    drop = {tuple(sorted((x_, y_))), tuple(sorted((p_, q_)))}
    edges = []
    for a, b in g.edges:
        if z_ in (a, b) or r_ in (a, b) or tuple(sorted((a, b))) in drop:
            continue
        edges.append((perm[a], perm[b]))
    core, term = vc_crossing_core()
    base = len(keep)
    cmap = {term["x"]: perm[x_], term["y"]: perm[y_],
            term["p"]: perm[p_], term["q"]: perm[q_]}
    labels = {perm[w]: s for w, s in g.labels.items() if w in perm}
    nxt = base
    for w in range(core.n):
        if w in cmap:
            continue
        cmap[w] = nxt
        labels[nxt] = f"{tag}:{core.labels[w]}"
        nxt += 1
    copy_edges = [(cmap[a], cmap[b]) for a, b in core.edges]
    edges += copy_edges
    for i, (a, b) in enumerate(sorted(tuple(sorted(e)) for e in copy_edges)):
        edges += [(nxt, a), (nxt, b)]
        labels[nxt] = f"{tag}:w{i}"
        nxt += 1
    return Graph.from_edges(nxt, edges, labels)


# ---------------------------------------------------------------------------
# packaged gadgets
# ---------------------------------------------------------------------------

def _find_label(g: Graph, label: str) -> int:
    for v, s in g.labels.items():
        if s == label:
            return v
    raise KeyError(label)


def _layout_by_labels(g: Graph, labels: tuple[str, ...]) -> LinearLayout:
    by_label = {s: v for v, s in g.labels.items()}
    return LinearLayout(tuple(by_label[s] for s in labels))


# Frozen layout of the IS gadget, stored by vertex label; width 6.
_IS_GADGET_LAYOUT_LABELS = (
    "d1", "y", "u'", "d3", "d2", "q", "v'", "c3", "c1", "c2", "e2",
    "p", "v", "e1", "a2", "a1", "a3", "b2", "b3", "b1", "x", "u",
)


@lru_cache(maxsize=None)
def gjs_is_gadget() -> CrossoverGadget:
    """Independent Set crossover gadget with shift 9.

    The vertex-cover crossing core with four pendant terminals attached
    to its inner terminals; the construction follows the Vertex Cover
    crossover of Garey, Johnson and Stockmeyer, reused for Independent
    Set via the complementation between vertex covers and independent
    sets.  Certification (boundary-function conditions and host-shift
    experiments) lives in the test suite and `certify_is_gadget`.
    """
    core, term = vc_crossing_core()
    n = core.n
    u, up, v, vp = n, n + 1, n + 2, n + 3
    edges = list(core.edges) + [
        (u, term["x"]), (up, term["y"]), (v, term["p"]), (vp, term["q"]),
    ]
    labels = dict(core.labels)
    labels.update({u: "u", up: "u'", v: "v", vp: "v'"})
    g = Graph.from_edges(n + 4, edges, labels)
    layout = _layout_by_labels(g, _IS_GADGET_LAYOUT_LABELS)
    return CrossoverGadget("is", g, (u, up, v, vp), layout, 9)


# Frozen low-cutwidth layout of the composite gadget, stored by vertex
# label (stable across rebuilds of the construction).  Found offline by
# annealing plus exact re-ordering of sliding windows; width 18.  The
# block of a single crossing core with watcher triangles has cutwidth
# at least 12 (each covered core edge contributes two arcs per gap), so
# there is little room below this.
_DS_GADGET_LAYOUT_LABELS = (
    'vcx_dpux_dpvx:w16', 'vcx_dpux_dpvx:w18', 'vcx_dpux_dpvx:b3',
    'vcx_dpux_dpvx:w19', 'vcx_dpux_dpvx:w14', 'vcx_dpux_dpvx:a3',
    'vcx_dpux_dpvx:w13', 'vcx_dpux_dpvx:w5', 'vcx_dpux_dpvx:w15',
    'vcx_dpux_dpvx:a2', 'vcx_dpux_dpvx:w12', 'vcx_dpux_dpvx:a1',
    'vcx_dpux_dpvx:w4', 'vcx_dpux_dpvx:w0', 'dpu:e_x',
    'vcx_dpux_dpvx:w1', 'vcx_dpux_dpvx:b1', 'vcx_dpux_dpvx:w17',
    'vcx_dpux_dpvx:b2', 'vcx_dpux_dpvx:w20', 'vcx_dpux_dpvx:e1',
    'dpv:e_x', 'vcx_dpux_dpvx:w9', 'vcx_dpux_dpvx:w7',
    'vcx_dpux_dpvx:w6', 'vcx_dpux_dpvx:w30', 'vcx_dpux_dpvx:w24',
    'vcx_dpux_dpvx:e2', 'vcx_dpux_dpvx:c2', 'vcx_dpux_dpvx:w21',
    'vcx_dpux_dpvx:c1', 'vcx_dpux_dpvx:w22', 'vcx_dpux_dpvx:c3',
    'vcx_dpux_dpvx:w23', 'vcx_dpux_dpvx:w11', 'vcx_dpux_dpvx:w8',
    'dpv:f_x', 'vcx_dpux_dpvx:w29', 'vcx_dpux_dpvx:d2',
    'vcx_dpux_dpvx:w25', 'vcx_dpux_dpvx:d3', 'vcx_dpux_dpvx:w27',
    'vcx_dpux_dpvx:d1', 'vcx_dpux_dpvx:w26', 'vcx_dpux_dpvx:w10',
    'vcx_dpux_dpvx:w28', 'vcx_dpux_dpvx:w2', 'dpu:f_x',
    'vcx_dpux_dpvx:w3', 'dpv:tp_x', 'dpv:d_x',
    'dpv:a_x', 'dpv:b_x', 'dpv:c_x',
    'dpu:d_x', 'dpu:c_x', 'dpu:b_x',
    'dpu:a_x', 'vcx_dpuy_dpvx:w13', 'vcx_dpuy_dpvx:w14',
    'vcx_dpuy_dpvx:a3', 'vcx_dpuy_dpvx:w12', 'vcx_dpuy_dpvx:a1',
    'vcx_dpuy_dpvx:a2', 'vcx_dpuy_dpvx:w5', 'dpv:g_x',
    'vcx_dpuy_dpvx:w4', 'vcx_dpuy_dpvx:w15', 'vcx_dpuy_dpvx:w6',
    'vcx_dpuy_dpvx:w0', 'vcx_dpuy_dpvx:w7', 'vcx_dpuy_dpvx:w30',
    'vcx_dpuy_dpvx:e1', 'vcx_dpuy_dpvx:w20', 'vcx_dpuy_dpvx:w16',
    'vcx_dpuy_dpvx:w19', 'vcx_dpuy_dpvx:b3', 'vcx_dpuy_dpvx:w18',
    'vcx_dpuy_dpvx:b2', 'vcx_dpuy_dpvx:w17', 'vcx_dpuy_dpvx:b1',
    'dpu:g_y', 'vcx_dpuy_dpvx:w1', 'vcx_dpuy_dpvx:w24',
    'vcx_dpuy_dpvx:e2', 'vcx_dpuy_dpvx:c2', 'vcx_dpuy_dpvx:w21',
    'vcx_dpuy_dpvx:c1', 'vcx_dpuy_dpvx:w2', 'dpu:h_y',
    'vcx_dpuy_dpvx:w23', 'vcx_dpuy_dpvx:w22', 'vcx_dpuy_dpvx:c3',
    'vcx_dpuy_dpvx:w9', 'vcx_dpuy_dpvx:w8', 'dpv:h_x',
    'vcx_dpuy_dpvx:w11', 'vcx_dpuy_dpvx:w29', 'vcx_dpuy_dpvx:d2',
    'vcx_dpuy_dpvx:w28', 'vcx_dpuy_dpvx:w25', 'vcx_dpuy_dpvx:d3',
    'vcx_dpuy_dpvx:w26', 'vcx_dpuy_dpvx:w27', 'vcx_dpuy_dpvx:d1',
    'vcx_dpuy_dpvx:w3', 'vcx_dpuy_dpvx:w10', 'dpv:c_y',
    'dpv:a_y', 'dpv:d_y', 'dpv:b_y',
    'dpu:tp_y', 'vcx_dpuy_dpvy:w5', 'vcx_dpuy_dpvy:w12',
    'vcx_dpuy_dpvy:w14', 'vcx_dpuy_dpvy:a2', 'vcx_dpuy_dpvy:a3',
    'vcx_dpuy_dpvy:w13', 'vcx_dpuy_dpvy:a1', 'vcx_dpuy_dpvy:w4',
    'dpv:e_y', 'vcx_dpuy_dpvy:w7', 'vcx_dpuy_dpvy:w16',
    'vcx_dpuy_dpvy:w15', 'vcx_dpuy_dpvy:w0', 'dpu:e_y',
    'vcx_dpuy_dpvy:w1', 'vcx_dpuy_dpvy:b3', 'vcx_dpuy_dpvy:w18',
    'vcx_dpuy_dpvy:b1', 'vcx_dpuy_dpvy:w17', 'vcx_dpuy_dpvy:w19',
    'vcx_dpuy_dpvy:b2', 'vcx_dpuy_dpvy:e1', 'vcx_dpuy_dpvy:w30',
    'vcx_dpuy_dpvy:w6', 'vcx_dpuy_dpvy:w20', 'vcx_dpuy_dpvy:w2',
    'dpu:f_y', 'vcx_dpuy_dpvy:c1', 'vcx_dpuy_dpvy:w21',
    'vcx_dpuy_dpvy:w8', 'vcx_dpuy_dpvy:c2', 'vcx_dpuy_dpvy:w3',
    'vcx_dpuy_dpvy:w24', 'vcx_dpuy_dpvy:e2', 'vcx_dpuy_dpvy:w22',
    'vcx_dpuy_dpvy:w9', 'vcx_dpuy_dpvy:w23', 'vcx_dpuy_dpvy:c3',
    'vcx_dpuy_dpvy:w25', 'vcx_dpuy_dpvy:d1', 'dpv:f_y',
    'vcx_dpuy_dpvy:w10', 'vcx_dpuy_dpvy:w27', 'vcx_dpuy_dpvy:d3',
    'vcx_dpuy_dpvy:w11', 'vcx_dpuy_dpvy:d2', 'vcx_dpuy_dpvy:w28',
    'vcx_dpuy_dpvy:w29', 'vcx_dpuy_dpvy:w26', 'dpu:tp_x',
    'vcx_dpux_dpvy:w0', 'dpu:g_x', 'dpv:tp_y',
    'vcx_dpux_dpvy:w1', 'vcx_dpux_dpvy:w12', 'vcx_dpux_dpvy:a1',
    'vcx_dpux_dpvy:w4', 'vcx_dpux_dpvy:w13', 'vcx_dpux_dpvy:a3',
    'vcx_dpux_dpvy:w14', 'vcx_dpux_dpvy:a2', 'vcx_dpux_dpvy:w5',
    'dpv:g_y', 'vcx_dpux_dpvy:w19', 'vcx_dpux_dpvy:w16',
    'vcx_dpux_dpvy:b3', 'vcx_dpux_dpvy:w18', 'vcx_dpux_dpvy:b1',
    'vcx_dpux_dpvy:w17', 'vcx_dpux_dpvy:b2', 'vcx_dpux_dpvy:w15',
    'vcx_dpux_dpvy:e1', 'vcx_dpux_dpvy:w20', 'vcx_dpux_dpvy:w9',
    'dpv:h_y', 'vcx_dpux_dpvy:w8', 'vcx_dpux_dpvy:w10',
    'vcx_dpux_dpvy:w11', 'vcx_dpux_dpvy:w30', 'vcx_dpux_dpvy:e2',
    'vcx_dpux_dpvy:w29', 'vcx_dpux_dpvy:d2', 'vcx_dpux_dpvy:w26',
    'vcx_dpux_dpvy:d1', 'vcx_dpux_dpvy:w27', 'vcx_dpux_dpvy:w24',
    'vcx_dpux_dpvy:w28', 'vcx_dpux_dpvy:d3', 'vcx_dpux_dpvy:w6',
    'vcx_dpux_dpvy:w21', 'vcx_dpux_dpvy:c2', 'vcx_dpux_dpvy:w7',
    'vcx_dpux_dpvy:w22', 'vcx_dpux_dpvy:c1', 'vcx_dpux_dpvy:c3',
    'vcx_dpux_dpvy:w23', 'vcx_dpux_dpvy:w25', 'vcx_dpux_dpvy:w3',
    'dpu:h_x', 'vcx_dpux_dpvy:w2', 'dpu:d_y',
    'dpu:c_y', 'dpu:a_y', 'dpu:b_y',
)


# The four strand-triangle crossings of the composite gadget, as
# (structure, side, triangle) pairs; "t" caps sit on strand edge {e,f}
# and "tpp" caps on {g,h}.  Chosen to match the geometric picture of two
# double-path structures crossing once.
_COMPOSITE_CROSSINGS = (
    (("dpu", "x", "ef"), ("dpv", "x", "ef")),
    (("dpu", "x", "gh"), ("dpv", "y", "gh")),
    (("dpu", "y", "gh"), ("dpv", "x", "gh")),
    (("dpu", "y", "ef"), ("dpv", "y", "ef")),
)


def _strand_triangle(g: Graph, tag: str, side: str, which: str):
    if which == "ef":
        verts = (f"{tag}:e_{side}", f"{tag}:f_{side}", f"{tag}:t_{side}")
    else:
        verts = (f"{tag}:g_{side}", f"{tag}:h_{side}", f"{tag}:tpp_{side}")
    return tuple(_find_label(g, s) for s in verts)


@lru_cache(maxsize=None)
def ds_crossover_gadget() -> CrossoverGadget:
    """Dominating Set crossover gadget with shift 48 (= 2*6 + 4*9).

    Built exactly as the staged transformation: both crossing edges are
    expanded into double-path structures, then the four crossings of
    strand triangles are replaced by the vertex-cover crossing core.
    The terminals are the four pendant attachment vertices (the a-role
    vertices of the two double-path structures).
    """
    host = Graph.from_edges(4, [(0, 1), (2, 3)],
                            {0: "stub0", 1: "stub1", 2: "stub2", 3: "stub3"})
    g = insert_double_path(host, (0, 1), tag="dpu")
    g = insert_double_path(g, (2, 3), tag="dpv")
    # drop the four host stubs; the a-role vertices become the terminals
    keep = [w for w in range(g.n) if g.labels.get(w, "").startswith("dp")]
    g = g.relabel({w: i for i, w in enumerate(keep)}, len(keep))
    for c1, c2 in _COMPOSITE_CROSSINGS:
        t1 = _strand_triangle(g, *c1)
        t2 = _strand_triangle(g, *c2)
        tag = f"vcx_{c1[0]}{c1[1]}_{c2[0]}{c2[1]}"
        g = replace_triangle_crossing(g, t1, t2, tag=tag)
    terminals = tuple(_find_label(g, s) for s in
                      ("dpu:a_x", "dpu:a_y", "dpv:a_x", "dpv:a_y"))
    layout = _layout_by_labels(g, _DS_GADGET_LAYOUT_LABELS)
    return CrossoverGadget("ds", g, terminals, layout, 48)


def builtin_gadget(problem: str) -> CrossoverGadget:
    if problem == "is":
        return gjs_is_gadget()
    if problem == "ds":
        return ds_crossover_gadget()
    raise GadgetError(f"no built-in gadget for problem {problem!r}")


def replacement_layout(host: Graph, e1: Edge, e2: Edge,
                       gadget: CrossoverGadget) -> LinearLayout:
    """A good layout for replace_edges_by_gadget output: the left
    endpoints, then the gadget block in its stored order, then the rest
    of the host.  Keeps the number of host vertices spanning the gadget
    block small, which is what the DS dynamic program cares about."""
    a, c = e1[0], e2[0]
    base = host.n
    inner = [base + v for v in gadget.layout.order]
    rest = [v for v in range(host.n) if v not in (a, c)]
    return LinearLayout(tuple([a, c] + inner + rest))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def boundary_function(gadget: CrossoverGadget) -> BoundaryFunction:
    """Maximum independent set sizes of the gadget graph under all 16
    terminal-avoidance patterns, each by the layout DP on the gadget
    minus F under the gadget's layout restricted to what remains."""
    if gadget.problem != "is":
        raise GadgetError("boundary function applies to IS gadgets")
    g = gadget.graph
    values = {}
    for k in range(5):
        for F in itertools.combinations(gadget.terminals, k):
            keep = {w: i for i, w in enumerate(w for w in range(g.n)
                                               if w not in F)}
            sub_layout = LinearLayout(
                tuple(keep[w] for w in gadget.layout.order if w in keep))
            values[frozenset(F)] = solvers.dp_is(
                g.relabel(keep, len(keep)), sub_layout).optimum
    return BoundaryFunction(values)


def is_gadget_conditions(gadget: CrossoverGadget) -> dict[str, bool]:
    """The finite sufficient conditions for an IS crossover gadget to
    shift the optimum by exactly its constant on every host.

    With h the boundary function and c the shift:
      C1: h(F) = c for the nine F containing neither {u,u'} nor {v,v'},
      C2: h({u,u'}) <= c-1 and h({v,v'}) <= c-1,
      C3: h({u,u',v,v'}) <= c-2.
    Legal external patterns then extend inside the gadget by exactly c,
    while patterns violating an original edge save enough inside the
    gadget to pay for dropping one endpoint per violated edge.
    """
    h = boundary_function(gadget)
    u, up, v, vp = gadget.terminals
    c = gadget.shift
    legal = [frozenset(F) for k in range(3)
             for F in itertools.combinations((u, up, v, vp), k)
             if not {u, up} <= set(F) and not {v, vp} <= set(F)]
    return {
        "C1_legal_patterns": all(h[F] == c for F in legal),
        "C2_single_pair": (h[{u, up}] <= c - 1 and h[{v, vp}] <= c - 1),
        "C3_both_pairs": h[{u, up, v, vp}] <= c - 2,
        "antitone": h.is_antitone(),
        "planar_cyclic": validate_crossover_shape(gadget),
    }


# the keys of is_gadget_conditions that an IS gadget's verdict requires
SHIFT_CONDITIONS = ("C1_legal_patterns", "C2_single_pair", "C3_both_pairs")


def certify_is_gadget(gadget: CrossoverGadget) -> bool:
    """True iff the boundary-function conditions C1-C3 hold."""
    cond = is_gadget_conditions(gadget)
    return all(cond[k] for k in SHIFT_CONDITIONS)


# the largest random host of certify_gadget's host checks, per problem
HOST_MAX_N = {"is": 9, "ds": 7}


def certify_gadget(gadget: CrossoverGadget, hosts: int, seed: int) -> dict:
    """The certification report of a gadget, ending in its ``"verdict"``.

    PASS iff the gadget has a planar drawing with its terminals in the
    crossover order, an IS gadget meets C1-C3, and the optimum moves by
    exactly the shift on ``hosts`` random host graphs drawn from ``seed``.
    """
    ok = validate_crossover_shape(gadget)
    out: dict = {"problem": gadget.problem, "shift": gadget.shift,
                 "planar_cyclic": ok}
    if gadget.problem == "is":
        out["conditions"] = conds = is_gadget_conditions(gadget)
        ok &= all(conds[k] for k in SHIFT_CONDITIONS)
    out["host_checks"] = _host_shift_checks(gadget, hosts, random.Random(seed))
    ok &= out["host_checks"]["all_exact"]
    out["verdict"] = "PASS" if ok else "FAIL"
    return out


def _host_shift_checks(gadget, hosts: int, rng) -> dict:
    """Random host graphs with two disjoint edges; the optimum must move
    by exactly the gadget shift under replacement.  Brute force solves
    the host, the layout DP the replaced graph under replacement_layout."""
    brute, dp = solvers.SOLVERS[gadget.problem]
    max_n = HOST_MAX_N[gadget.problem]
    done = 0
    checked = []
    while done < hosts:
        n = rng.randint(4, max_n)
        g = random_graph(n, 0.35, rng)
        pairs = [(e1, e2) for e1 in g.sorted_edges() for e2 in g.sorted_edges()
                 if e1 < e2 and not set(e1) & set(e2)]
        if not pairs:
            continue
        e1, e2 = pairs[rng.randrange(len(pairs))]
        gp = replace_edges_by_gadget(g, e1, e2, gadget)
        after = dp(gp, replacement_layout(g, e1, e2, gadget)).optimum
        checked.append(after - brute(g))
        done += 1
    return {"hosts": hosts, "shifts": checked,
            "all_exact": all(s == gadget.shift for s in checked)}
