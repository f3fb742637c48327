"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms so that each
dual-route check (implementation vs oracle) stays meaningful.
"""

import itertools

from cutplanar.graph import Graph


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
