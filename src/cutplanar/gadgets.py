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

Both gadgets carry a layout frozen by vertex label and a rotation system
(a planar drawing) frozen by layout position.  The rotation is proven
when the gadget is built, by checking it as an embedding of the shape
certificate of validate_crossover_shape, so the built-in pipeline runs
no general planarity test and never imports networkx; a gadget read
from a file, which carries no rotation, gets one from networkx's
left-right test and the same proof.

Every construction in this module is validated by tests against
brute-force optimum oracles; the structural facts used by the
correctness arguments (disjoint closed neighborhoods, interior cover
bounds, domination patterns) are asserted in the test suite rather than
trusted; the lemma checks of the dominating-set argument live with the
test oracles.  The certification here reads the IS boundary function
off the transfer table that --verify reads, and runs its other checks
on the exact solvers of solvers.py.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import GadgetError, InvariantError, PreconditionError
from .graph import (Graph, LinearLayout, check_embedding, cut_profile,
                    planar_rotation, random_graph)
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

    ``problem``, a key of ``solvers.SOLVERS``, picks the DP of
    ``transfer``, so --verify solves G' under it.  The layout is any valid
    layout of the gadget graph; its cutwidth feeds the width bound.
    ``frozen_rotation``, if given, is ``rotation`` keyed by layout
    position: entry i lists the positions of the neighbours of the
    vertex at position i, in the same order.  The built-in gadgets
    carry one.
    """

    problem: str
    graph: Graph
    terminals: tuple[int, int, int, int]  # u, u', v, v'
    layout: LinearLayout
    shift: int
    frozen_rotation: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.problem not in solvers.SOLVERS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if len(set(self.terminals)) != 4:
            raise ValueError("terminals must be four distinct vertices")
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise ValueError("terminal outside gadget graph")
        self.layout.validate(self.graph)

    @cached_property
    def width(self) -> int:
        return cut_profile(self.graph, self.layout).max_width

    @cached_property
    def rotation(self) -> tuple[tuple[int, ...], ...]:
        """Counter-clockwise rotation system of a planar drawing of the
        gadget whose connector edges leave u, v, u', v' in that
        counter-clockwise order, as at a crossing whose first edge runs
        from upper left (u) to lower right (u').  Each terminal's
        rotation starts with CONNECTOR, the slot of its connector edge.

        A built-in gadget translates its frozen rotation, and proves it
        when the gadget is built; any other gadget derives one with the
        left-right planarity test (networkx, imported then).  Either way
        the rotation is proven before it is returned
        (``_proven_rotation``), and GadgetError is raised when no such
        drawing exists or the frozen rotation is not one.
        """
        if self.frozen_rotation is None:
            return _proven_rotation(self, _lr_rotation(self))
        order = self.layout.order
        rot: list = [()] * len(order)
        try:
            for w, r in zip(order, self.frozen_rotation, strict=True):
                rot[w] = tuple(x if x == CONNECTOR else order[x] for x in r)
        except (IndexError, ValueError) as exc:
            raise GadgetError("frozen rotation does not fit the gadget's "
                              "layout") from exc
        return _proven_rotation(self, rot)

    @cached_property
    def transfer(self) -> solvers.Transfer:
        """The gadget's transfer table under its problem's DP
        (``solvers.transfer_table``), which block steps and
        boundary_function read.  Built on first use, never when the
        gadget is built, and kept on the gadget."""
        return solvers.transfer_table(self.graph, self.terminals,
                                      self.layout, self.problem)


@dataclass(frozen=True)
class BoundaryFunction:
    """For each subset F of the four terminals, the maximum size of an
    independent set of the gadget graph avoiding F."""

    values: dict[frozenset, int]

    def __getitem__(self, fs) -> int:
        return self.values[frozenset(fs)]

    def is_antitone(self) -> bool:
        return not any(f1 <= f2 and v1 < v2
                       for f1, v1 in self.values.items()
                       for f2, v2 in self.values.items())


def _shape_certificate(gadget: CrossoverGadget) -> Graph:
    """The gadget graph plus the terminal 4-cycle u-v-u'-v' and an apex
    (vertex n) adjacent to all four terminals."""
    u, up, v, vp = gadget.terminals
    g = gadget.graph
    extra = [(u, v), (v, up), (up, vp), (vp, u),
             (g.n, u), (g.n, v), (g.n, up), (g.n, vp)]
    return Graph.from_edges(g.n + 1, list(g.edges) + extra)


_SHAPE = ("with the terminals on the outer face in the cyclic order "
          "u, v, u', v'")


def _lr_rotation(gadget: CrossoverGadget) -> list[list[int]]:
    """A rotation of the gadget taken from the left-right embedding of
    its shape certificate: the apex's slot at each terminal becomes the
    connector slot, the 4-cycle is dropped, and the whole rotation is
    mirrored when the apex sees the terminals the other way round."""
    g = gadget.graph
    u, up, v, vp = gadget.terminals
    rot = planar_rotation(_shape_certificate(gadget))
    if rot is None:
        raise GadgetError(f"gadget has no planar drawing {_SHAPE}")
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
        if w in gadget.terminals:
            i = r.index(apex)
            r = [CONNECTOR] + r[i + 1:] + r[:i]
        out.append(r)
    return out


def _proven_rotation(gadget: CrossoverGadget, rot: Sequence[Sequence[int]]
                     ) -> tuple[tuple[int, ...], ...]:
    """``rot`` as tuples, once proven to be the rotation that
    ``CrossoverGadget.rotation`` describes; raises GadgetError if not.

    The proof extends ``rot`` to a rotation of the shape certificate and
    runs ``check_embedding`` on it, in O(n log n).  At each terminal the
    connector slot becomes the terminal's predecessor in the cyclic
    order u, v, u', v', then the apex, then its successor (at u:
    v', apex, v), and the apex sees u, v', u', v counter-clockwise.  A
    planar embedding of the certificate is what
    ``validate_crossover_shape`` claims; the mirrored orientation fails.
    """
    u, up, v, vp = gadget.terminals
    apex = gadget.graph.n
    ring = (u, v, up, vp)
    ext = [list(r) for r in rot] + [[u, vp, up, v]]
    for i, t in enumerate(ring):
        if ext[t][:1] != [CONNECTOR]:
            raise GadgetError(
                f"rotation of terminal {gadget.graph.labels.get(t, str(t))} "
                f"does not start with its connector slot")
        ext[t][:1] = [ring[i - 1], apex, ring[(i + 1) % 4]]
    try:
        check_embedding(_shape_certificate(gadget), ext)
    except InvariantError as exc:
        raise GadgetError(
            f"rotation is not a planar drawing of the gadget {_SHAPE}: "
            f"{exc}") from exc
    return tuple(map(tuple, rot))


def validate_crossover_shape(gadget: CrossoverGadget) -> bool:
    """Certify the drawing requirements: the gadget graph together with
    the terminal 4-cycle u-v-u'-v' and an apex adjacent to all four
    terminals must remain planar.  This holds iff the gadget has a
    planar drawing with the terminals on the outer face in the cyclic
    order u, v, u', v'.  The proof is the gadget's rotation extended to
    this certificate graph and checked as its embedding: the built-in
    gadgets carry frozen rotations, proven when they are built, and any
    other gadget takes one from the left-right planarity test, once per
    gadget, and proves it the same way."""
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

# Frozen rotation of the IS gadget, keyed by layout position: entry i
# lists counter-clockwise the positions of the neighbours of the vertex
# at position i of _IS_GADGET_LAYOUT_LABELS, a terminal's CONNECTOR slot
# first.  Recorded once from the left-right embedding of networkx 3.6.1
# (the derivation in _lr_rotation); proven whenever the gadget is built.
_IS_GADGET_ROTATION = (
    (1, 5, 4, 3), (8, 2, 0), (CONNECTOR, 1), (4, 7, 0), (0, 5, 10, 3),
    (19, 17, 4, 0, 6), (CONNECTOR, 5), (3, 9, 8), (9, 11, 1, 7),
    (10, 11, 8, 7), (13, 9, 4), (15, 12, 8, 9, 14), (CONNECTOR, 11),
    (17, 14, 10), (11, 13, 16, 15), (20, 11, 14, 16), (14, 18, 15),
    (5, 19, 18, 13), (16, 17, 19), (18, 17, 5, 20), (15, 19, 21),
    (CONNECTOR, 20),
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
    gadget = CrossoverGadget("is", g, (u, up, v, vp), layout, 9,
                             _IS_GADGET_ROTATION)
    gadget.rotation   # proven now: a broken frozen rotation raises here
    return gadget


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

# Frozen rotation of the DS gadget, keyed by layout position as
# _IS_GADGET_ROTATION is; recorded and proven the same way.
_DS_GADGET_ROTATION = (
    (5, 2), (2, 16), (18, 16, 1, 5, 0, 3), (2, 18), (9, 5),
    (2, 11, 6, 9, 4, 0), (5, 11), (9, 21), (20, 9),
    (5, 11, 10, 21, 7, 20, 8, 4), (9, 11), (14, 21, 12, 10, 9, 6, 5, 13),
    (21, 11), (11, 14), (54, 11, 13, 15, 16), (16, 14),
    (36, 14, 15, 1, 2, 18, 17, 35), (18, 16), (16, 2, 3, 19, 20, 36, 22, 17),
    (20, 18), (9, 27, 25, 18, 19, 8), (11, 50, 24, 30, 23, 28, 7, 9, 12),
    (18, 36), (28, 21), (30, 21), (27, 20), (28, 27), (20, 28, 26, 37, 38, 25),
    (27, 21, 23, 30, 29, 33, 32, 26), (30, 28),
    (28, 21, 24, 47, 46, 31, 32, 29), (32, 30), (40, 28, 33, 30, 31, 39),
    (32, 28), (38, 36), (16, 36), (65, 16, 35, 22, 18, 34, 38, 44, 42, 49),
    (38, 27), (42, 36, 34, 27, 37, 40, 45, 43), (32, 40),
    (38, 32, 39, 42, 41, 45), (40, 42), (47, 36, 44, 38, 43, 41, 40, 48),
    (38, 42), (42, 36), (40, 38), (47, 30), (30, 163, 161, 42, 48, 46),
    (42, 47), (36, 65), (21, 53), (CONNECTOR, 52), (53, 51), (50, 52, 186),
    (55, 14), (56, 54, 89), (57, 55), (CONNECTOR, 56), (60, 62), (60, 63),
    (63, 62, 58, 76, 74, 59), (63, 62), (81, 58, 60, 61, 63, 65, 66, 69),
    (65, 62, 61, 60, 59, 67, 72, 64), (63, 65),
    (62, 63, 64, 70, 85, 68, 87, 36, 49, 66), (65, 62), (72, 63), (87, 65),
    (62, 81), (85, 65), (84, 72), (78, 84, 71, 63, 67, 73), (72, 78), (76, 60),
    (78, 76), (60, 80, 77, 78, 75, 74), (76, 80),
    (76, 80, 79, 95, 93, 72, 73, 75), (78, 80),
    (95, 79, 78, 77, 76, 81, 82, 94), (80, 62, 69, 138, 111, 82), (81, 80),
    (85, 84), (72, 97, 98, 85, 83, 71), (84, 90, 92, 87, 86, 65, 70, 83),
    (87, 85), (85, 91, 92, 89, 88, 65, 68, 86), (89, 87),
    (87, 104, 105, 55, 88), (92, 85), (92, 87), (101, 87, 91, 85, 90, 100),
    (78, 95), (80, 95), (107, 106, 104, 96, 98, 93, 78, 80, 94), (98, 95),
    (98, 84), (104, 101, 99, 84, 97, 95, 96, 102), (101, 98), (92, 101),
    (98, 104, 103, 92, 100, 99), (98, 104), (101, 104),
    (89, 103, 101, 98, 102, 95, 106, 105), (104, 89), (104, 95),
    (109, 110, 95), (CONNECTOR, 110), (120, 107), (107, 108), (138, 81),
    (115, 120), (115, 118), (116, 115),
    (133, 116, 114, 118, 113, 120, 112, 123), (115, 127, 122, 118, 117, 114),
    (116, 118), (125, 120, 119, 113, 115, 117, 116, 124), (120, 118),
    (118, 109, 135, 139, 121, 142, 112, 115, 119), (142, 120), (127, 116),
    (115, 133), (118, 125), (129, 212, 118, 124, 126), (125, 129),
    (116, 132, 131, 129, 128, 122), (127, 129),
    (152, 125, 126, 128, 127, 130, 132, 141), (132, 129), (132, 127),
    (127, 133, 136, 152, 147, 129, 130, 131), (145, 136, 132, 115, 123, 134),
    (133, 145), (139, 120), (132, 133), (139, 138),
    (81, 143, 151, 139, 137, 111), (138, 146, 149, 142, 140, 120, 135, 137),
    (142, 139), (129, 152), (139, 149, 148, 144, 145, 120, 121, 140),
    (151, 138), (145, 142), (157, 133, 134, 142, 144, 159), (149, 139),
    (132, 152), (149, 142), (142, 139, 146, 155, 150, 148), (155, 149),
    (155, 138, 143, 152, 153, 157, 160, 154),
    (174, 129, 141, 147, 132, 156, 157, 153, 151, 164), (151, 152), (151, 155),
    (149, 151, 154, 158, 157, 150), (157, 152),
    (151, 152, 156, 145, 159, 155, 158, 160), (157, 155), (145, 157),
    (157, 151), (163, 47), (167, 163), (47, 165, 179, 167, 162, 161),
    (152, 174), (179, 163), (172, 167),
    (163, 169, 170, 172, 166, 174, 168, 162), (167, 174), (170, 167),
    (172, 167, 169, 177, 176, 171), (170, 172),
    (167, 170, 171, 182, 183, 174, 173, 166), (172, 174),
    (205, 152, 164, 168, 167, 173, 172, 203, 202, 200), (181, 177), (177, 170),
    (170, 179, 178, 175, 181, 176), (179, 177),
    (177, 163, 165, 186, 187, 180, 181, 178), (181, 179),
    (186, 183, 184, 177, 175, 179, 180, 185), (183, 172),
    (181, 191, 190, 172, 182, 184), (183, 181), (181, 186),
    (179, 53, 188, 195, 189, 193, 181, 185, 187), (186, 179), (195, 186),
    (193, 186), (191, 183), (183, 192, 193, 202, 197, 190), (193, 191),
    (195, 199, 198, 191, 192, 186, 189, 194), (193, 195),
    (199, 193, 194, 186, 188, 210, 209, 196), (195, 199), (202, 191),
    (193, 199), (206, 198, 193, 195, 196, 208), (174, 205), (202, 205),
    (191, 206, 207, 205, 201, 174, 203, 197), (202, 174), (206, 205),
    (210, 174, 200, 201, 202, 204, 206, 211), (202, 199, 208, 205, 204, 207),
    (206, 202), (199, 206), (195, 210), (213, 205, 211, 209, 195), (205, 210),
    (125, 213), (215, 212, 210), (CONNECTOR, 215), (214, 213),
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
    gadget = CrossoverGadget("ds", g, terminals, layout, 48,
                             _DS_GADGET_ROTATION)
    gadget.rotation   # proven now: a broken frozen rotation raises here
    return gadget


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
    terminal-avoidance patterns, read off its IS transfer table T: F
    takes the input pair whose digit 1 before u resp. v keeps u resp. v
    out if in F, and h(F) is minus the least cost of its rows with digit
    0 at u' resp. v' if in F.  Exact, as a row T's prune dropped has a
    twin one digit lower that costs no more and meets every F it meets.
    """
    if gadget.problem != "is":
        raise GadgetError("boundary function applies to IS gadgets")
    table = gadget.transfer
    u, up, v, vp = gadget.terminals
    values = {}
    for k in range(5):
        for F in itertools.combinations(gadget.terminals, k):
            p = (u in F) << 1 | (v in F)
            rows = slice(table.starts[p], table.starts[p + 1])
            out = table.digits[rows, 2:] @ [up in F, vp in F] == 0
            values[frozenset(F)] = -int(table.costs[rows][out].min())
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
