"""Independent brute-force oracles used only by the tests, the lemma
checks of the dominating-set gadget, and the benchmark's hosts.

The oracles deliberately avoid the library's own algorithms so that
each dual-route check (implementation vs oracle) stays meaningful.  The
lemma checks decide facts of the gadget's correctness argument, not the
library's results, so they run the library's brute_ds.
"""

import functools
import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

from cutplanar.drawing import Crossing, Element
from cutplanar.errors import InvariantError, PreconditionError
from cutplanar.graph import Graph, LinearLayout, bag_steps
from cutplanar.solvers import brute_ds


# ---------------------------------------------------------------------------
# planarity via exhaustive Kuratowski-subdivision search
# ---------------------------------------------------------------------------

def _has_subdivision(g: Graph, pattern_edges, k: int) -> bool:
    """Does g contain a subdivision of the pattern graph on k branch
    vertices?  Exhaustive: choose branch vertices, then pack internally
    vertex-disjoint paths for all pattern edges."""
    n = g.n
    adj = g.adjacency()
    verts = list(range(n))
    for branch in itertools.permutations(verts, k):
        # permutations, not combinations: K33 needs the bipartition split;
        # prune mirrored duplicates for speed
        if branch[0] != min(branch[:k]):
            continue
        branch_set = set(branch)
        pairs = [(branch[a], branch[b]) for a, b in pattern_edges]

        def extend(idx: int, used: set) -> bool:
            if idx == len(pairs):
                return True
            s, t = pairs[idx]

            def paths(cur, seen):
                if cur == t:
                    yield seen
                    return
                for w in adj[cur]:
                    if w == t:
                        yield seen
                        return
                for w in adj[cur]:
                    if w in used or w in seen or w in branch_set:
                        continue
                    yield from paths(w, seen | {w})

            for interior in paths(s, frozenset()):
                if extend(idx + 1, used | set(interior)):
                    return True
            return False

        if extend(0, set()):
            return True
    return False


def brute_planarity(g: Graph) -> bool:
    """Euler pre-filter plus exhaustive K5/K33-subdivision search.
    Only suitable for small graphs (n <= 10)."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    k5 = list(itertools.combinations(range(5), 2))
    k33 = [(a, b + 3) for a in range(3) for b in range(3)]
    if _has_subdivision(g, k5, 5):
        return False
    if _has_subdivision(g, k33, 6):
        return False
    return True


# ---------------------------------------------------------------------------
# cutwidth by exhaustive layout enumeration
# ---------------------------------------------------------------------------

def brute_cutwidth(g: Graph) -> int:
    """Minimum over all n! layouts; n <= 8 or so."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(perm)}
        width = 0
        for i in range(g.n - 1):
            cut = sum(1 for u, v in g.edges
                      if min(pos[u], pos[v]) <= i < max(pos[u], pos[v]))
            width = max(width, cut)
        if best is None or width < best:
            best = width
    return best or 0


def gap_cuts(g: Graph, layout: LinearLayout) -> tuple[int, ...]:
    """Cut after each position but the last, counted edge by edge."""
    pos = layout.position()
    return tuple(sum(1 for u, v in g.edges
                     if min(pos[u], pos[v]) <= i < max(pos[u], pos[v]))
                 for i in range(1, g.n))


# ---------------------------------------------------------------------------
# path decompositions by their definition
# ---------------------------------------------------------------------------

def validate_path_decomposition(g: Graph, pd) -> None:
    """Check the three path-decomposition invariants structurally, and the
    width; raises ValueError naming the first violation."""
    covered = set().union(*pd.bags) if pd.bags else set()
    if covered != set(range(g.n)):
        raise ValueError("bags do not cover the vertex set")
    for v in range(g.n):
        positions = [i for i, b in enumerate(pd.bags) if v in b]
        if not positions:
            raise ValueError(f"vertex {v} in no bag")
        if positions != list(range(positions[0], positions[-1] + 1)):
            raise ValueError(f"vertex {v} not contiguous in bags")
    for u, v in g.edges:
        if not any(u in b and v in b for b in pd.bags):
            raise ValueError(f"edge ({u},{v}) in no bag")
    if pd.width != max(len(b) for b in pd.bags) - 1:
        raise ValueError("width inconsistent with bags")


# ---------------------------------------------------------------------------
# arc crossings by testing every pair of edges
# ---------------------------------------------------------------------------

def crossing_x(pos, e1, e2) -> Fraction:
    """Intersection x-coordinate of the two semicircular arcs: with
    centers m_i and radii r_i, equal heights give
    x = (m1^2 - m2^2 + r2^2 - r1^2) / (2 (m1 - m2))."""
    a, b = Fraction(pos[e1[0]]), Fraction(pos[e1[1]])
    c, d = Fraction(pos[e2[0]]), Fraction(pos[e2[1]])
    m1, r1 = (a + b) / 2, abs(b - a) / 2
    m2, r2 = (c + d) / 2, abs(d - c) / 2
    return (m1 * m1 - m2 * m2 + r2 * r2 - r1 * r1) / (2 * (m1 - m2))


def pairwise_crossings(g: Graph, layout: LinearLayout) -> tuple:
    """Every pair of strictly interleaving arcs, with its semicircle
    intersection, in (x, tiebreak) order."""
    pos = layout.position()
    spans = sorted(tuple(sorted(e, key=pos.get)) for e in g.edges)
    crossings = []
    for e1, e2 in itertools.combinations(spans, 2):
        a, b = pos[e1[0]], pos[e1[1]]
        c, d = pos[e2[0]], pos[e2[1]]
        if a < c < b < d or c < a < d < b:
            pair = tuple(sorted((e1, e2), key=lambda e: (pos[e[0]], pos[e[1]])))
            crossings.append(Crossing(pair, crossing_x(pos, e1, e2)))
    crossings.sort(key=lambda c: (c.x, *(pos[w] for e in c.edges for w in e)))
    return tuple(crossings)


def pairwise_element_order(g: Graph, layout: LinearLayout) -> list:
    """The vertices, at their positions, and the crossings of
    ``pairwise_crossings``, sorted by (x, kind, tiebreak) as Fractions:
    a crossing above a vertex comes after it."""
    keyed = [((Fraction(i), 0), Element("vertex", i, vertex=v))
             for i, v in enumerate(layout.order, start=1)]
    keyed += [((c.x, 1), Element("crossing", c.x, crossing=c))
              for c in pairwise_crossings(g, layout)]
    # sort is stable and the crossings come in tiebreak order
    return [el for _, el in sorted(keyed, key=lambda item: item[0])]


# ---------------------------------------------------------------------------
# planar embedding check by tracing faces dart by dart
# ---------------------------------------------------------------------------

def rotation_lists(lens, heads) -> list[list[int]]:
    """A flat rotation system (lens, heads) as one neighbour list per
    vertex."""
    flat = list(map(int, heads))
    starts = itertools.accumulate(map(int, lens), initial=0)
    return [flat[s:s + k] for s, k in zip(starts, map(int, lens))]


def trace_faces(g: Graph, rotation) -> int:
    """Faces of a planar rotation system, with the same InvariantError
    texts as ``graph.check_embedding``: every face is walked dart by dart
    and components are found by depth-first search."""
    n = g.n
    if len(rotation) != n:
        raise InvariantError(
            f"rotation system has {len(rotation)} vertices, graph has {n}")
    adj = g.adjacency()
    # darts are numbered vertex by vertex in rotation order; index[v][w]
    # is the dart v->w and succ[d] the next dart around the tail of d
    index: list[dict[int, int]] = []
    succ: list[int] = []
    start = 0
    for v, r in enumerate(rotation):
        end = start + len(r)
        idx = dict(zip(r, range(start, end)))
        if len(idx) != len(r) or idx.keys() != adj[v]:
            raise InvariantError(
                f"rotation at vertex {g.labels.get(v, str(v))} is not a "
                f"permutation of its {len(adj[v])} neighbours")
        index.append(idx)
        succ.extend(range(start + 1, end))
        if r:
            succ.append(start)
        start = end
    # the face after dart v->w continues with w->x, x the successor of v at w
    nxt = [succ[index[w][v]] for v, r in enumerate(rotation) for w in r]
    seen = bytearray(len(nxt))
    faces = 0
    for first in range(len(nxt)):
        if not seen[first]:
            faces += 1
            d = first
            while not seen[d]:
                seen[d] = 1
                d = nxt[d]
    reached = bytearray(n)
    components = isolated = 0
    for s in range(n):
        if reached[s]:
            continue
        components += 1
        isolated += not adj[s]
        reached[s] = 1
        stack = [s]
        while stack:
            for w in rotation[stack.pop()]:
                if not reached[w]:
                    reached[w] = 1
                    stack.append(w)
    edges = len(nxt) // 2
    if n - edges + faces != 2 * components - isolated:
        raise InvariantError(
            f"rotation system is not planar: V - E + F = {n} - {edges} + "
            f"{faces} != 2C - I with C = {components} components, "
            f"I = {isolated} isolated")
    return faces


def cycle_minima_by_orbits(perm) -> list[int]:
    """For a permutation, the smallest element of the cycle through each
    element, found by walking every cycle once."""
    label = [-1] * len(perm)
    for first in range(len(perm)):
        if label[first] < 0:
            orbit = [first]
            while perm[orbit[-1]] != first:
                orbit.append(perm[orbit[-1]])
            for x in orbit:
                label[x] = first   # the first element met is the smallest
    return label


def components_by_bfs(n: int, edges) -> int:
    """The number of connected components of the graph on 0..n-1 with the
    given (u, v) pairs, found by breadth-first search."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for first in range(n):
        if not seen[first]:
            count += 1
            seen[first] = True
            queue = [first]
            for x in queue:
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        queue.append(y)
    return count


# ---------------------------------------------------------------------------
# file writers that format the sorted tuple edge set line by line
# ---------------------------------------------------------------------------

def write_graph_by_tuples(g: Graph) -> str:
    """The graph text format, as io.write_graph must produce it."""
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_layout_by_tuples(layout: LinearLayout) -> str:
    """The layout file format, as io.write_layout must produce it."""
    return " ".join(str(v + 1) for v in layout.order) + "\n"


def write_dot_by_tuples(g: Graph) -> str:
    """DOT, as io.write_dot must produce it."""
    lines = ["graph G {"]
    for v in range(g.n):
        label = g.labels.get(v)
        if label:
            label = "".join("\\" + c if c in '"\\' else c for c in label)
            lines.append(f'  {v + 1} [label="{label}"];')
        else:
            lines.append(f"  {v + 1};")
    lines += [f"  {u + 1} -- {v + 1};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_by_tuples(g: Graph) -> dict:
    """The JSON mirror, as io.graph_to_json must produce it."""
    out = {"n": g.n, "edges": [[u + 1, v + 1] for u, v in sorted(g.edges)]}
    if g.labels:
        out["labels"] = {str(v + 1): s for v, s in sorted(g.labels.items())}
    return out


# ---------------------------------------------------------------------------
# tiny exhaustive set-problem oracles (subset enumeration, no pruning)
# ---------------------------------------------------------------------------

def subsets_is(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        ok = all(not ((mask >> u) & 1 and (mask >> v) & 1) for u, v in g.edges)
        if ok:
            best = max(best, mask.bit_count())
    return best


def _dominating_sets(g: Graph):
    """Bitmasks of all dominating sets of g."""
    adj = g.adjacency_masks()
    closed = [adj[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for mask in range(1 << g.n):
        dom = 0
        mm = mask
        while mm:
            lb = mm & (-mm)
            dom |= closed[lb.bit_length() - 1]
            mm ^= lb
        if dom == full:
            yield mask


def subsets_ds(g: Graph, avoid=()) -> int | None:
    """Minimum dominating set disjoint from ``avoid``; None if there is
    none."""
    avoid_mask = sum(1 << v for v in avoid)
    return min((mask.bit_count() for mask in _dominating_sets(g)
                if not mask & avoid_mask), default=None)


def subsets_ds_covers(g: Graph, edges) -> bool:
    """Does some minimum dominating set contain an endpoint of every edge
    in ``edges``?"""
    sets = list(_dominating_sets(g))
    best = min(mask.bit_count() for mask in sets)
    return any(mask.bit_count() == best
               and all((mask >> a) & 1 or (mask >> b) & 1 for a, b in edges)
               for mask in sets)


def subsets_vc(g: Graph) -> int:
    best = g.n
    for mask in range(1 << g.n):
        if all((mask >> u) & 1 or (mask >> v) & 1 for u, v in g.edges):
            best = min(best, mask.bit_count())
    return best


# ---------------------------------------------------------------------------
# layout DP over dicts of named states (no integer keys)
# ---------------------------------------------------------------------------

# each problem's bag-vertex states, a state before every state it dominates
REFERENCE_STATES = {"is": ("out", "in"),
                    "ds": ("in", "dominated", "undominated")}


def reference_dp(g: Graph, layout: LinearLayout, problem: str,
                 prune: bool = False) -> tuple[int, int]:
    """(maximum independent set ("is") or minimum dominating set ("ds"),
    peak live states) by a DP over the steps of graph.bag_steps: a dict
    from the bag's states, a frozenset of (vertex, state) pairs, to the
    best set size.  States are those of REFERENCE_STATES; forgetting drops
    "undominated".  Without ``prune`` every state is kept.  With it, each
    step then drops the states that a twin with an earlier state at one
    vertex matches or beats, every twin looked up before any removal."""
    steps, _ = bag_steps(g, layout)
    better = max if problem == "is" else min
    table = {frozenset(): 0}
    peak = 1
    for v, back, forget in steps:
        grown = {}
        for bag, size in table.items():
            state = dict(bag)
            for choice, extended, gain in _reference_choices(problem, state,
                                                             back):
                extended[v] = choice
                key = frozenset(extended.items())
                grown[key] = better(grown.get(key, size + gain), size + gain)
        table = {}
        for bag, size in grown.items():
            state = dict(bag)
            if any(state[u] == "undominated" for u in forget):
                continue
            key = frozenset((u, s) for u, s in bag if u not in forget)
            table[key] = better(table.get(key, size), size)
        if prune:
            table = {bag: size for bag, size in table.items()
                     if not _reference_dominated(problem, table, bag, size)}
        peak = max(peak, len(table))
    return better(table.values()), peak


def _reference_dominated(problem: str, table: dict, bag: frozenset,
                         size: int) -> bool:
    better = max if problem == "is" else min
    states = REFERENCE_STATES[problem]
    for u, s in bag:
        for lower in states[:states.index(s)]:
            twin = (bag - {(u, s)}) | {(u, lower)}
            if twin in table and better(table[twin], size) == table[twin]:
                return True
    return False


def _reference_choices(problem: str, state: dict, back: list[int]):
    """(state of the new vertex, bag states after its back edges, set
    size gain) for each choice the new vertex has."""
    if problem == "is":
        yield "out", dict(state), 0
        if all(state[u] == "out" for u in back):
            yield "in", dict(state), 1
        return
    dominated = dict(state)
    for u in back:
        if dominated[u] == "undominated":
            dominated[u] = "dominated"
    yield "in", dominated, 1
    seen = any(state[u] == "in" for u in back)
    yield ("dominated" if seen else "undominated"), dict(state), 0


# ---------------------------------------------------------------------------
# lemma checks of the dominating-set gadget's correctness argument
# ---------------------------------------------------------------------------

# vertex limit of the brute-force searches behind the two lemma checks
LEMMA_LIMIT = 24


def simplicial_degree_two_vertices(g: Graph) -> list[int]:
    adj = g.adjacency()
    out = []
    for v in range(g.n):
        if len(adj[v]) == 2:
            a, b = sorted(adj[v])
            if g.has_edge(a, b):
                out.append(v)
    return out


def verify_simplicial_avoidance(g: Graph) -> bool:
    """Some minimum dominating set avoids a maximal independent set of
    simplicial degree-two vertices (vacuously true when none exist)."""
    cands = simplicial_degree_two_vertices(g)
    picked: set[int] = set()
    blocked: set[int] = set()
    adj = g.adjacency()
    for v in cands:
        if v not in blocked:
            picked.add(v)
            blocked |= adj[v] | {v}
    if not picked:
        return True
    opt = brute_ds(g, limit=LEMMA_LIMIT)
    return brute_ds(g, limit=LEMMA_LIMIT, avoid=picked) == opt


def verify_domset_is_vc(g: Graph, u_set: set[int]) -> bool:
    """Check that some minimum dominating set restricted to u_set covers
    every edge of the induced subgraph on u_set.

    Precondition: each such edge has a private watcher outside u_set
    whose open neighborhood is exactly that edge.

    Decided as: some minimum dominating set avoids the watchers W (the
    vertices outside u_set whose open neighborhood is an inner edge).  A
    watcher w of edge ab has N[w] within N[b], so any minimum dominating
    set can swap w for b and keep its size.  A dominating set that
    avoids W must dominate each watcher through a or b, so it covers
    every inner edge.
    """
    adj = g.adjacency()
    inner = [(a, b) for a, b in g.edges if a in u_set and b in u_set]
    inner_set = {frozenset(e) for e in inner}
    watchers = {w for w in range(g.n)
                if w not in u_set and frozenset(adj[w]) in inner_set}
    for a, b in inner:
        if not any(adj[w] == {a, b} for w in watchers):
            raise PreconditionError(
                f"edge ({a},{b}) of the induced subgraph has no private "
                "degree-two watcher")
    return (brute_ds(g, LEMMA_LIMIT, avoid=watchers)
            == brute_ds(g, LEMMA_LIMIT))


# ---------------------------------------------------------------------------
# non-isomorphic graph enumeration (tiny n)
# ---------------------------------------------------------------------------

def _canonical(n: int, edges: frozenset) -> frozenset:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        key = tuple(sorted(mapped))
        if best is None or key < best[0]:
            best = (key, mapped)
    return best[1]


def connected_graph_classes(max_n: int):
    """All non-isomorphic connected graphs with 2..max_n vertices and at
    least one edge."""
    import networkx as nx
    out = []
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1, 1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs))
                              if (bits >> i) & 1)
            canon = _canonical(n, edges)
            if canon in seen:
                continue
            seen.add(canon)
            g = Graph.from_edges(n, canon)
            if nx.is_connected(g.to_networkx()):
                out.append(g)
    return out


# ---------------------------------------------------------------------------
# the benchmark's hosts
# ---------------------------------------------------------------------------

@functools.cache
def _perfbench_gen():
    """perfbench/gen.py, the benchmark's seeded generators; it imports
    nothing from the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen   # dataclasses look their module up here
    spec.loader.exec_module(gen)
    return gen


def _as_instance(h) -> tuple[Graph, LinearLayout]:
    return Graph.from_edges(h.n, h.edges), LinearLayout(h.order)


def band24_host(seed: int) -> tuple[Graph, LinearLayout]:
    """The banded 24-vertex host of the benchmark's verify-is workload
    (48 edges, 140 crossings)."""
    return _as_instance(_perfbench_gen().banded_host(24, 48, 6, 140, seed))


def single_crossing_host(seed: int) -> tuple[Graph, LinearLayout]:
    """A host of the benchmark's verify-ds workload: one crossing, at
    most four edges over it."""
    return _as_instance(_perfbench_gen().single_crossing_host(seed))
