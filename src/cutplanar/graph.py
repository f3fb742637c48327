"""Graph and layout data model with exact cut computations.

Vertices are dense 0-based integers.  A graph's edges, a layout's order
and a cut profile's widths are each stored once, as a read-only int64
array; the tuple and set views of Python ints are built from the array
when first read.  All types are immutable after construction and every
operation is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidLayoutError, InvariantError, OracleLimitError

if TYPE_CHECKING:
    import networkx as nx

Edge = tuple[int, int]

EXACT_CUTWIDTH_LIMIT = 18


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class CopyLabels(Mapping[int, str]):
    """Vertex labels of a graph that holds copies of one labelled graph,
    made when read.  Below ``start`` the labels are those of ``base``,
    whose keys all lie below ``start``.  From ``start`` on, the vertices
    come in blocks of len(names), one per copy, and vertex
    start + k * len(names) + i is labelled f"{tags[k]}:{names[i]}".
    Iteration lists the base labels, then the copies' vertices in id
    order."""

    def __init__(self, base: Mapping[int, str], start: int,
                 names: Sequence[str], tags: Sequence[str]):
        self.base = base
        self.start = start
        self.names = names
        self.tags = tags
        self.stop = start + len(tags) * len(names)

    def __getitem__(self, v: int) -> str:
        if self.start <= v < self.stop:
            k, i = divmod(v - self.start, len(self.names))
            return f"{self.tags[k]}:{self.names[i]}"
        return self.base[v]

    def __iter__(self):
        yield from self.base
        yield from range(self.start, self.stop)

    def __len__(self) -> int:
        return len(self.base) + self.stop - self.start

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    The edges are stored once, as ``edge_array``: a read-only (m, 2)
    int64 array of rows (u, v) with u < v, strictly sorted, so two graphs
    with the same edges hold equal arrays.  Construction accepts any
    pairs or (k, 2) array, in either orientation and with repeats, and
    normalizes them with numpy.  The frozenset ``edges`` is built from the
    array when first used.

    ``labels`` optionally tracks provenance of vertices through
    transformations (e.g. which gadget copy a vertex came from).
    """

    n: int
    edge_array: np.ndarray
    labels: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "edge_array",
                           _canonical_edges(self.n, self.edge_array))
        labels, top = self.labels, self.n
        if isinstance(labels, CopyLabels):
            # the copies' ids are one range; only the base labels are walked
            if labels.stop > top:
                raise ValueError(f"label on unknown vertex {labels.stop - 1}")
            labels, top = labels.base, labels.start
        for v in labels:
            if not (0 <= v < top):
                raise ValueError(f"label on unknown vertex {v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   labels: Mapping[int, str] | None = None) -> "Graph":
        """A graph that owns its labels: a dict is copied, and CopyLabels,
        which cannot change, is kept as it is."""
        if not isinstance(labels, CopyLabels):
            labels = dict(labels) if labels else {}
        return Graph(n, edges, labels)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.edge_array, other.edge_array)
                and self.labels == other.labels)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges())

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> set[int]:
        a = self.edge_array
        return set(a[a[:, 0] == v, 1].tolist()) | set(a[a[:, 1] == v, 0].tolist())

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edge_array.tolist():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_masks(self) -> list[int]:
        """Neighborhoods as bitmasks; the workhorse for brute-force solvers."""
        adj = [0] * self.n
        for u, v in self.edge_array.tolist():
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.edge_array == v))

    def sorted_edges(self) -> list[Edge]:
        a = self.edge_array
        return list(zip(a[:, 0].tolist(), a[:, 1].tolist()))

    def relabel(self, perm: Mapping[int, int], n: int | None = None) -> "Graph":
        """Map vertex u to perm[u]; vertices absent from perm are dropped."""
        new_n = self.n if n is None else n
        edges = [(perm[u], perm[v]) for u, v in self.edge_array.tolist()
                 if u in perm and v in perm]
        labels = {perm[v]: s for v, s in self.labels.items() if v in perm}
        return Graph.from_edges(new_n, edges, labels)

    def to_networkx(self) -> nx.Graph:
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edge_array.tolist())
        return g


def _canonical_edges(n: int, edges) -> np.ndarray:
    """Pairs or a (k, 2) array as the sorted, de-duplicated, read-only
    (m, 2) int64 array of rows (u, v), u < v.  Raises ValueError on a
    self-loop or an endpoint outside 0..n-1, naming the first in input
    order."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        a = np.array(edges, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"edge endpoint out of range for n={n}") from exc
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"edges must be pairs, got shape {a.shape}")
    lo, hi = np.minimum(*a.T), np.maximum(*a.T)
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    if bad.size:
        u, v = a[bad[0]].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    span = int(hi.max()) + 1 if len(hi) else 1
    if span <= 2**31:
        # the key lo * span + hi < 2**62 is exact and sorts as the rows do
        key = np.sort(lo * span + hi)
        keep = np.ones(len(key), dtype=bool)
        keep[1:] = key[1:] != key[:-1]
        key = key[keep]
        lo = key // span
        out = np.stack((lo, key - lo * span), axis=1)
    else:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.ones(len(lo), dtype=bool)
        keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        out = np.stack((lo[keep], hi[keep]), axis=1)
    out.flags.writeable = False
    return out


def _frozen_int64(values) -> np.ndarray:
    """A list, tuple or array as a read-only int64 array of its own."""
    a = np.array(values, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LinearLayout:
    """A linear layout: order[i] is the vertex at position i+1.

    Positions are 1-based in formulas (matching the usual cutwidth
    definition).  The layout is stored once, as ``order_array``: a
    read-only int64 array of the 0-indexed vertices in position order.
    Construction accepts a list, a tuple or an array.  The tuple of
    Python ints ``order``, for code that walks the vertices one at a
    time, is built from the array when first read.
    """

    order_array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order_array",
                           _frozen_int64(self.order_array))

    def __eq__(self, other):
        if not isinstance(other, LinearLayout):
            return NotImplemented
        return np.array_equal(self.order_array, other.order_array)

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(self.order_array.tolist())

    @staticmethod
    def identity(n: int) -> "LinearLayout":
        return LinearLayout(np.arange(n))

    def position(self) -> dict[int, int]:
        """vertex -> 1-based position."""
        return {v: i + 1 for i, v in enumerate(self.order)}

    def validate(self, g: Graph) -> None:
        a, n = self.order_array, g.n
        # the length test first: g.n may come from an untrusted file
        if len(a) != n or (n and not (a.min() >= 0 and a.max() < n and
                                      np.bincount(a, minlength=n).all())):
            raise layout_error(len(a), n)


def layout_error(entries: int, n: int) -> InvalidLayoutError:
    """The error of a layout over ``entries`` entries that is no
    permutation of 0..n-1."""
    return InvalidLayoutError(f"layout over {entries} entries is not a "
                              f"permutation of 0..{n - 1}")


@dataclass(frozen=True, eq=False)
class CutProfile:
    """Per-gap edge-crossing counts of a layout: ``width_array``[i], a
    read-only int64 array made from the list, tuple or array given, is
    the cut after position i+1 (so there are n-1 entries), and
    ``max_width`` its largest entry (0 if none).  The tuple of Python
    ints ``widths`` is built from the array when first read."""

    width_array: np.ndarray
    max_width: int = field(init=False)

    def __post_init__(self):
        a = _frozen_int64(self.width_array)
        object.__setattr__(self, "width_array", a)
        object.__setattr__(self, "max_width", int(a.max()) if a.size else 0)

    def __eq__(self, other):
        if not isinstance(other, CutProfile):
            return NotImplemented
        return np.array_equal(self.width_array, other.width_array)

    @cached_property
    def widths(self) -> tuple[int, ...]:
        return tuple(self.width_array.tolist())


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset[int], ...]
    width: int


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over the pairs (s, c)."""
    firsts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts - firsts, counts)


def edge_positions(g: Graph, layout: LinearLayout
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Validates the layout; the 1-based left and right position of every
    edge of g, as two int64 arrays in ``edge_array`` order."""
    layout.validate(g)
    pos = np.empty(g.n, dtype=np.int64)
    pos[layout.order_array] = np.arange(1, g.n + 1)
    ends = pos[g.edge_array]
    return np.minimum(*ends.T), np.maximum(*ends.T)


def cut_profile(g: Graph, layout: LinearLayout) -> CutProfile:
    """Count, for every gap i, the edges {u,v} with pi(u) <= i < pi(v)."""
    lo, hi = edge_positions(g, layout)
    diffs = (np.bincount(lo, minlength=g.n + 1)
             - np.bincount(hi, minlength=g.n + 1))
    widths = np.cumsum(diffs[1:g.n])
    return CutProfile(widths)


def exact_cutwidth(g: Graph) -> tuple[int, LinearLayout]:
    """Exact cutwidth by dynamic programming over vertex subsets.

    State = set of already-placed vertices; the cut of a state is the
    number of edges from placed to unplaced vertices, which depends only
    on the set.  Independent of every other module, so it serves as the
    cutwidth oracle in tests.  The three tables hold 2^n entries each, so
    graphs over EXACT_CUTWIDTH_LIMIT vertices raise OracleLimitError.
    """
    if g.n > EXACT_CUTWIDTH_LIMIT:
        raise OracleLimitError(
            f"graph has {g.n} vertices, exact cutwidth limit is "
            f"{EXACT_CUTWIDTH_LIMIT}")
    n = g.n
    adj = g.adjacency_masks()
    deg = [adj[v].bit_count() for v in range(n)]
    full = (1 << n) - 1
    size = 1 << n
    # cut[mask] = edges crossing from mask to its complement
    cut = [0] * size
    best = [0] * size
    parent = [-1] * size
    big = 1 << 30
    for mask in range(1, size):
        low = mask & (-mask)
        v = low.bit_length() - 1
        rest = mask ^ low
        cut[mask] = cut[rest] + deg[v] - 2 * (adj[v] & rest).bit_count()
        b = big
        arg = -1
        mm = mask
        while mm:
            lb = mm & (-mm)
            u = lb.bit_length() - 1
            prev = best[mask ^ lb]
            if prev < b:
                b = prev
                arg = u
            mm ^= lb
        c = cut[mask]
        best[mask] = b if b > c else c
        parent[mask] = arg
    order: list[int] = []
    mask = full
    while mask:
        v = parent[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return best[full], LinearLayout(tuple(order))


def is_planar(g: Graph) -> bool:
    """Planarity test (left-right algorithm via networkx, imported here
    so that the built-in pipeline runs without it)."""
    import networkx as nx
    ok, _ = nx.check_planarity(g.to_networkx(), counterexample=False)
    return ok


def planar_rotation(g: Graph) -> list[list[int]] | None:
    """Counter-clockwise rotation system of some planar embedding of g
    (left-right algorithm via networkx), or None if g is not planar."""
    import networkx as nx
    ok, emb = nx.check_planarity(g.to_networkx())
    if not ok:
        return None
    return [list(emb.neighbors_cw_order(v))[::-1] for v in range(g.n)]


def rotation_arrays(rotation: Sequence[Sequence[int]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A rotation system given as one sequence of neighbours per vertex,
    as the flat int64 arrays (lens, heads) of ``check_embedding_arrays``."""
    lens = np.fromiter(map(len, rotation), np.int64, count=len(rotation))
    heads = np.fromiter(itertools.chain.from_iterable(rotation), np.int64,
                        count=int(lens.sum()))
    return lens, heads


def check_embedding(g: Graph, rotation: Sequence[Sequence[int]]) -> int:
    """``check_embedding_arrays`` on a rotation system given as one
    sequence of neighbours per vertex."""
    return check_embedding_arrays(g, *rotation_arrays(rotation))


def check_embedding_arrays(g: Graph, lens: np.ndarray,
                           heads: np.ndarray) -> int:
    """Prove g planar from a rotation system in O((n + m) log(n + m)).

    The rotation system is flat: vertex v lists ``lens[v]`` neighbours in
    counter-clockwise order, and these lists follow one another in
    ``heads`` (int64 arrays both).  The faces of the rotation system are
    counted, and Euler's formula V - E + F = 2C - I (C components, I
    isolated vertices) holds iff every component is embedded in the
    sphere, i.e. the rotation system is a planar embedding of g.
    Returns F.  Raises InvariantError, before any pass over the darts,
    when ``lens`` has a negative entry or does not sum to ``len(heads)``;
    then naming the first vertex whose rotation is not a permutation of
    its neighbours, or giving V, E, F and C when the genus is positive.

    All steps are numpy passes over the darts: sorting the darts of
    each orientation by their edge's key proves the permutations and
    pairs every dart with its reverse (``_reverse_darts``); faces are
    labelled by their minimum dart (``_cycle_minima``), and components
    are counted by hooking each root to its lowest lower neighbouring
    root (``_component_count``), all in int64.
    """
    n = g.n
    if len(lens) != n:
        raise InvariantError(
            f"rotation system has {len(lens)} vertices, graph has {n}")
    darts, listed = len(heads), int(lens.sum())
    negative = bool((lens < 0).any())
    if negative or listed != darts:
        raise InvariantError(
            f"rotation system lens sum to {listed}"
            f"{' with a negative entry' if negative else ''}, heads has "
            f"{darts} darts")
    start = np.cumsum(lens) - lens
    rev = _reverse_darts(n, lens, heads, g.edge_array)
    if rev is None:
        adj = g.adjacency()
        flat = heads.tolist()
        v = next(v for v, (s, k) in enumerate(zip(start.tolist(), lens.tolist()))
                 if sorted(flat[s:s + k]) != sorted(adj[v]))
        raise InvariantError(
            f"rotation at vertex {g.labels.get(v, str(v))} is not a "
            f"permutation of its {len(adj[v])} neighbours")
    # succ[d] is the next dart around the tail of d, rev[d] the reverse of
    # d, and the face after dart v->w continues with the successor of w->v
    succ = np.arange(1, darts + 1)
    ends = np.flatnonzero(lens)
    succ[start[ends] + lens[ends] - 1] = start[ends]
    faces = int(np.count_nonzero(_cycle_minima(succ.take(rev))
                                 == np.arange(darts)))
    components = _component_count(n, g.edge_array)
    isolated = int(np.count_nonzero(lens == 0))
    m = darts // 2
    if n - m + faces != 2 * components - isolated:
        raise InvariantError(
            f"rotation system is not planar: V - E + F = {n} - {m} + "
            f"{faces} != 2C - I with C = {components} components, "
            f"I = {isolated} isolated")
    return faces


def _reverse_darts(n: int, lens: np.ndarray, heads: np.ndarray,
                   edges: np.ndarray) -> np.ndarray | None:
    """The reverse of every dart of a flat rotation system, as an int64
    array, or None if some rotation is not a permutation of its
    vertex's neighbours in the graph of the sorted edge rows ``edges``.

    Darts are numbered vertex by vertex in rotation order.  Every
    rotation is such a permutation iff every head is a vertex and two
    dart lists, sorted, give the keys of the edges in the order of
    ``edges``: the darts v->w with v < w by key v * n + w, and the other
    darts by key w * n + v.  The two darts of edge e then have rank e in
    the two lists."""
    tail = np.repeat(np.arange(n, dtype=np.int64), lens)
    up = tail < heads
    fwd, bwd = np.flatnonzero(up), np.flatnonzero(~up)
    fkey = tail.take(fwd) * n + heads.take(fwd)
    bkey = heads.take(bwd) * n + tail.take(bwd)
    # the first keys come sorted by tail, which a stable sort makes use of
    by_fkey = np.argsort(fkey, kind="stable")
    by_bkey = np.argsort(bkey, kind="stable")
    want = edges[:, 0] * n + edges[:, 1]
    if not (((heads >= 0) & (heads < n)).all()
            and np.array_equal(fkey.take(by_fkey), want)
            and np.array_equal(bkey.take(by_bkey), want)):
        return None
    fwd, bwd = fwd.take(by_fkey), bwd.take(by_bkey)
    rev = np.empty(len(heads), dtype=np.int64)
    rev[fwd] = bwd
    rev[bwd] = fwd
    return rev


def _cycle_minima(perm: np.ndarray) -> np.ndarray:
    """For a permutation, the smallest element of the cycle through each
    element, in the permutation's dtype.  Round k takes the minimum over
    the next 2^k elements; once a round changes nothing, that minimum is
    constant along each cycle."""
    label = np.arange(len(perm), dtype=perm.dtype)
    jump = perm
    while True:
        ahead = label.take(jump)
        if not (ahead < label).any():
            return label
        np.minimum(label, ahead, out=label)
        jump = jump.take(jump)


def _component_count(n: int, edges: np.ndarray) -> int:
    """Connected components by hooking and shortcutting on root labels.
    Each round drops the edges inside one tree, every root with a lower
    neighbouring root points at the lowest one, and paths are then
    compressed.  Pointers only go to lower ids, so no cycle can form.  A
    root with no lower neighbouring root either takes in a tree this
    round or, its neighbours having hooked to lower roots, sees a lower
    root in the next round and hooks then; so the trees with an edge to
    another tree halve every two rounds, and at most 2 * ceil(log2 n)
    rounds merge trees.  The labels take the edges' dtype."""
    parent = np.arange(n, dtype=edges.dtype)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        pu, pv = parent.take(u), parent.take(v)
        split = pu != pv
        if not split.any():
            return int(np.count_nonzero(parent == np.arange(n)))
        u, v, pu, pv = u[split], v[split], pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent.take(parent)
            if np.array_equal(grand, parent):
                break
            parent = grand


def bag_steps(g: Graph, layout: LinearLayout
              ) -> tuple[list[tuple[int, list[int], list[int]]], int]:
    """One sweep of a layout into the steps of its path decomposition, and
    the width; validates the layout.  Step i is (v at position i, the
    earlier neighbours of v in vertex order, the vertices that leave the
    bag after position i in position order).  Bag i holds v and every
    earlier vertex with a neighbour at position >= i, so the width never
    exceeds the layout's cutwidth."""
    layout.validate(g)
    pos = dict(zip(layout.order, range(g.n)))
    adj = g.adjacency()
    # a vertex stays in the bags up to its last neighbour's position,
    # whose leave list holds it
    leaves: list[list[int]] = [[] for _ in range(g.n)]
    steps = []
    active = width = 0
    for i, v in enumerate(layout.order):
        width = max(width, active)   # bag i holds the active vertices and v
        forget = leaves[i]
        active -= len(forget)
        back, last = [], i
        for u in adj[v]:
            if pos[u] < i:
                back.append(u)
            elif pos[u] > last:
                last = pos[u]
        back.sort()
        if last > i:
            leaves[last].append(v)
            active += 1
        else:
            forget.append(v)
        steps.append((v, back, forget))
    return steps, width


def layout_to_path_decomposition(g: Graph, layout: LinearLayout
                                 ) -> PathDecomposition:
    """The bags of ``bag_steps`` as frozensets."""
    steps, width = bag_steps(g, layout)
    bags, live = [], set()
    for v, _, forget in steps:
        live.add(v)
        bags.append(frozenset(live))
        live.difference_update(forget)
    return PathDecomposition(tuple(bags), width)


def random_graph(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi graph from a seeded random.Random instance."""
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.from_edges(n, edges)
