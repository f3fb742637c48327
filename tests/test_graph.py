import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cutplanar import graph
from cutplanar.errors import InvalidLayoutError, InvariantError, OracleLimitError
from cutplanar.graph import (CopyLabels, CutProfile, Graph, LinearLayout,
                             bag_steps, check_embedding,
                             check_embedding_arrays, cut_profile,
                             edge_positions,
                             exact_cutwidth,
                             is_planar, layout_to_path_decomposition,
                             planar_rotation, random_graph)

from oracles import (brute_cutwidth, brute_planarity, components_by_bfs,
                     cycle_minima_by_orbits, gap_cuts, trace_faces,
                     validate_path_decomposition)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


K33 = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_neighbors(self):
        g = cycle(4)
        assert g.neighbors(0) == {1, 3}


@st.composite
def edge_lists(draw):
    """n and up to 40 pairs over 0..n-1: shuffled, either orientation,
    repeats allowed, possibly empty; no self-loops."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=40))
    return n, pairs


def both_kinds(pairs):
    """The same pairs as a list of tuples and as an int64 array."""
    return [pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)]


class TestConstruction:
    # derandomized, so every run tries the same examples, and without an
    # example database
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(edge_lists())
    def test_pairs_and_arrays_agree(self, case):
        n, pairs = case
        as_list, as_array = (Graph.from_edges(n, e) for e in both_kinds(pairs))
        assert as_list == as_array
        expect = {(min(u, v), max(u, v)) for u, v in pairs}
        for g in (as_list, as_array):
            assert g.edges == expect
            a = g.edge_array
            assert a.dtype == np.int64 and a.shape == (len(expect), 2)
            assert not a.flags.writeable
            # strictly increasing rows
            assert all(tuple(x) < tuple(y) for x, y in zip(a[:-1], a[1:]))
            assert a.tolist() == [list(e) for e in sorted(g.edges)]

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(edge_lists(), st.data())
    def test_bad_pairs_rejected_for_both_kinds(self, case, data):
        n, pairs = case
        v = data.draw(st.integers(-3, n + 3))
        w = data.draw(st.integers(-3, n + 3))
        bad = (v, v) if data.draw(st.booleans()) else (v, w)
        assume(bad[0] == bad[1] or not (0 <= v < n and 0 <= w < n))
        at = data.draw(st.integers(0, len(pairs)))
        edges = pairs[:at] + [bad] + pairs[at:]
        for e in both_kinds(edges):
            with pytest.raises(ValueError):
                Graph.from_edges(n, e)


def lexsort_rows(edges) -> np.ndarray:
    """The distinct rows (min, max) of pairs, sorted by np.lexsort."""
    a = np.array(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = a.min(axis=1), a.max(axis=1)
    order = np.lexsort((hi, lo))
    rows = np.stack((lo[order], hi[order]), axis=1)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


@st.composite
def wide_edge_lists(draw):
    """n up to 2^62, pairs whose endpoints crowd both ends of 0..n-1,
    shuffled, with repeats in either orientation."""
    n = draw(st.sampled_from([2, 2**31 - 1, 2**31, 2**31 + 1, 2**40, 2**62]))
    ends = st.one_of(st.integers(0, 3), st.integers(n - 4, n - 1),
                     st.integers(0, n - 1)).filter(lambda v: 0 <= v < n)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                          max_size=30))
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs),
                                               max_size=10))] if pairs else []
    return n, draw(st.permutations(pairs))


class TestCanonicalEdges:
    """The one-key sort gives the rows of a lexsort; endpoints from 2^31
    on, where the key would overflow, are sorted by lexsort itself."""

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(st.one_of(edge_lists(), wide_edge_lists()))
    def test_matches_lexsort(self, case):
        n, pairs = case
        for e in both_kinds(pairs):
            got = graph._canonical_edges(n, e)
            assert got.dtype == np.int64 and got.shape[1:] == (2,)
            assert np.array_equal(got, lexsort_rows(pairs))

    def test_empty(self):
        for e in ([], np.empty((0, 2), dtype=np.int64)):
            assert graph._canonical_edges(4, e).shape == (0, 2)

    def test_endpoints_past_the_exact_key(self):
        # with span 2^40 + 2 the key lo * span + hi of (2^35, 2^40 + 1)
        # is past 2^75; only the lexsort path keeps these rows exact
        big = 2**40
        pairs = [(big + 1, 2**35), (big, 3), (7, 2**35), (3, big), (0, 1)]
        got = Graph.from_edges(big + 2, pairs).edge_array.tolist()
        assert got == [[0, 1], [3, big], [7, 2**35], [2**35, big + 1]]

    def test_first_bad_edge_in_input_order(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
            Graph.from_edges(4, [(0, 1), (2, 2), (0, 9)])
        with pytest.raises(ValueError, match=r"^edge \(0,9\) out of range"):
            Graph.from_edges(4, [(0, 1), (0, 9), (2, 2)])


class TestLabels:
    @pytest.mark.parametrize("labels", [{3: "x"}, {-1: "x"}, {0: "a", 7: "b"}])
    def test_label_outside_vertices_rejected(self, labels):
        bad = next(v for v in labels if not 0 <= v < 3)
        with pytest.raises(ValueError,
                           match=f"^label on unknown vertex {bad}$"):
            Graph.from_edges(3, [(0, 1)], labels)

    def test_copy_labels_outside_vertices_rejected(self):
        # vertices 0..2 and two copies of a 2-vertex graph: ids 3..6
        labels = CopyLabels({0: "h"}, 3, ["a", "b"], ["X1", "X4"])
        assert dict(Graph.from_edges(7, [(0, 6)], labels).labels) == {
            0: "h", 3: "X1:a", 4: "X1:b", 5: "X4:a", 6: "X4:b"}
        with pytest.raises(ValueError, match="^label on unknown vertex 6$"):
            Graph.from_edges(6, [(0, 5)], labels)
        for base in ({3: "h"}, {-1: "h"}):
            with pytest.raises(ValueError,
                               match=f"^label on unknown vertex {min(base)}$"):
                Graph.from_edges(7, [], CopyLabels(base, 3, ["a", "b"],
                                                   ["X1", "X4"]))

    def test_copy_labels_kept_without_a_walk(self, monkeypatch):
        labels = CopyLabels({}, 2, ["a"] * 1000, ["X0"] * 1000)

        def walked(*args):
            raise AssertionError("the labels were walked")
        for method in ("__iter__", "__getitem__", "keys", "items"):
            monkeypatch.setattr(CopyLabels, method, walked)
        g = Graph.from_edges(1_000_002, [(0, 1)], labels)
        assert g.labels is labels


class TestCutProfile:
    def test_path_natural_order(self):
        g = path(4)
        prof = cut_profile(g, LinearLayout.identity(4))
        assert prof.widths == (1, 1, 1)
        assert prof.max_width == 1

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        prof = cut_profile(g, LinearLayout.identity(1))
        assert prof.widths == ()
        assert prof.max_width == 0

    def test_c4_natural_order(self):
        prof = cut_profile(cycle(4), LinearLayout.identity(4))
        assert prof.widths == (2, 2, 2)

    def test_invalid_layout(self):
        with pytest.raises(InvalidLayoutError):
            cut_profile(path(3), LinearLayout((0, 1)))

    def test_short_layout_of_huge_graph(self):
        # rejected by its length, without listing 10^12 positions
        with pytest.raises(InvalidLayoutError):
            LinearLayout((0,)).validate(Graph.from_edges(10 ** 12, []))

    def test_matches_edge_by_edge_count(self):
        rng = random.Random(6)
        for n in [0, 1, 2] + [rng.randint(3, 16) for _ in range(30)]:
            g = random_graph(n, rng.random(), rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            widths = gap_cuts(g, layout)
            prof = cut_profile(g, layout)
            assert prof == CutProfile(widths)
            assert prof.max_width == max(widths, default=0)


class TestEdgePositions:
    def test_positions_of_every_edge_in_edge_array_order(self):
        rng = random.Random(8)
        for n in [0, 1, 2] + [rng.randint(3, 16) for _ in range(30)]:
            g = random_graph(n, rng.random(), rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(order)
            lo, hi = edge_positions(g, layout)
            pos = layout.position()
            assert lo.dtype == hi.dtype == np.int64
            assert (lo < hi).all()
            assert list(zip(lo.tolist(), hi.tolist())) == [
                tuple(sorted((pos[u], pos[v]))) for u, v in g.sorted_edges()]


class TestLayoutArrays:
    KINDS = [tuple, list, np.array, lambda x: np.array(x, dtype=np.int32)]

    @pytest.mark.parametrize("kind", KINDS, ids=["tuple", "list", "int64",
                                                  "int32"])
    def test_every_kind_gives_the_same_layout(self, kind):
        layout = LinearLayout(kind((2, 0, 1)))
        assert layout == LinearLayout((2, 0, 1)) != LinearLayout((2, 1, 0))
        assert layout.order == (2, 0, 1)
        assert all(type(v) is int for v in layout.order)
        a = layout.order_array
        assert a.dtype == np.int64 and not a.flags.writeable
        prof = CutProfile(kind((1, 2)))
        assert prof == CutProfile((1, 2)) != CutProfile((2, 1))
        assert prof.widths == (1, 2)
        assert all(type(w) is int for w in prof.widths)
        assert not prof.width_array.flags.writeable

    def test_array_is_copied(self):
        source = np.array([1, 0])
        layout = LinearLayout(source)
        source[0] = 0
        assert layout.order == (1, 0)

    def test_max_width_derived(self):
        assert CutProfile(np.array([1, 3])).max_width == 3
        assert CutProfile(()).max_width == 0
        assert type(CutProfile((1, 3)).max_width) is int
        with pytest.raises(TypeError):
            CutProfile((1, 3), 3)

    @pytest.mark.parametrize("order", [
        (0, 0, 2), (0, 2, 2), (0, 1, 3), (-1, 1, 2), (0, 1), (), (0, 1, 2, 0),
        (2, 1, 2**40)], ids=["duplicate", "duplicate-last", "above",
                             "negative", "short", "empty", "long", "huge"])
    def test_validate_rejects_with_one_message(self, order):
        message = (rf"^layout over {len(order)} entries is not a permutation "
                   rf"of 0\.\.2$")
        with pytest.raises(InvalidLayoutError, match=message):
            LinearLayout(order).validate(path(3))
        # the edge ends of cut profiles and arc drawings check it as well
        with pytest.raises(InvalidLayoutError, match=message):
            edge_positions(path(3), LinearLayout(order))

    def test_validate_accepts_permutations(self):
        LinearLayout(()).validate(Graph.from_edges(0, []))
        for order in itertools.permutations(range(4)):
            LinearLayout(order).validate(cycle(4))


class TestExactCutwidth:
    def test_p5(self):
        assert exact_cutwidth(path(5))[0] == 1

    def test_k4(self):
        w, layout = exact_cutwidth(complete(4))
        assert w == 4
        assert cut_profile(complete(4), layout).max_width == 4

    def test_edgeless(self):
        assert exact_cutwidth(Graph.from_edges(6, []))[0] == 0

    def test_empty(self):
        assert exact_cutwidth(Graph.from_edges(0, [])) == (0, LinearLayout(()))

    def test_limit(self):
        with pytest.raises(OracleLimitError):
            exact_cutwidth(Graph.from_edges(19, []))

    def test_witness_and_value_match_brute(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 6)
            g = random_graph(n, 0.5, rng)
            w, layout = exact_cutwidth(g)
            assert w == brute_cutwidth(g)
            assert cut_profile(g, layout).max_width == w

    def test_relabeling_invariance(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.randint(2, 7)
            g = random_graph(n, 0.4, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = g.relabel({i: perm[i] for i in range(n)})
            assert exact_cutwidth(g)[0] == exact_cutwidth(g2)[0]

    def test_any_layout_at_least_optimum(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(n, 0.4, rng)
            order = list(range(n))
            rng.shuffle(order)
            w = cut_profile(g, LinearLayout(tuple(order))).max_width
            assert w >= exact_cutwidth(g)[0]


class TestPlanarity:
    def test_k4_planar(self):
        assert is_planar(complete(4))

    def test_k5_not_planar(self):
        assert not is_planar(complete(5))

    def test_k33_not_planar(self):
        assert not is_planar(K33)

    def test_agrees_with_kuratowski_search(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randint(3, 10)
            g = random_graph(n, 0.3, rng)
            assert is_planar(g) == brute_planarity(g), sorted(g.edges)


def all_rotations(g):
    """Every rotation system of g: each vertex's neighbours in every
    cyclic order (the smallest neighbour first)."""
    per_vertex = []
    for nbrs in g.adjacency():
        ordered = sorted(nbrs)
        per_vertex.append([tuple(ordered[:1]) + p
                           for p in itertools.permutations(ordered[1:])])
    return itertools.product(*per_vertex)


def embedding_outcome(check, g, rotation):
    """The face count, or the InvariantError text, of a check."""
    try:
        return check(g, rotation)
    except InvariantError as exc:
        return str(exc)


class TestEmbeddingCheck:
    def test_rejects_every_rotation_of_k5_and_k33(self):
        for g, count in ((complete(5), 6 ** 5), (K33, 2 ** 6)):
            tried = 0
            for rot in all_rotations(g):
                with pytest.raises(InvariantError, match="not planar"):
                    check_embedding(g, rot)
                tried += 1
            assert tried == count

    def test_k4_accepts_exactly_its_two_embeddings(self):
        # K4 is 3-connected: its embedding is unique up to mirroring
        g = complete(4)
        faces = []
        for rot in all_rotations(g):
            try:
                faces.append(check_embedding(g, rot))
            except InvariantError as exc:
                assert "V - E + F = 4 - 6 + 2 " in str(exc)
        assert faces == [4, 4]

    def test_accepts_lr_embeddings(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng.randint(1, 12), 0.3, rng)
            rot = planar_rotation(g)
            assert (rot is not None) == is_planar(g)
            if rot is not None:
                check_embedding(g, rot)

    def test_components_and_isolated_vertices(self):
        # two triangles and an isolated vertex: 7 - 6 + 4 = 2*3 - 1
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2),
                                 (3, 4), (4, 5), (3, 5)])
        rot = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4], []]
        assert check_embedding(g, rot) == 4

    # vertex 1 is the first bad one; in the "later" cases vertex 2 or 3 is
    # bad as well, by a wrong count or an out-of-range entry
    @pytest.mark.parametrize("rotation", [
        [[1, 2], [2], [0, 1], []],
        [[1, 2], [0, 0], [0, 1], []],
        [[1, 2], [0, 2, 0], [0, 1], []],
        [[1, 2], [0, 3], [0, 1], []],
        [[1, 2], [2, -1], [0, 1], []],
        [[1, 2], [4, 2], [0, 1], []],
        [[1, 2], [0, 3], [0], []],
        [[1, 2], [0, 0], [0, 1, 3], []],
        [[1, 2], [0, 0], [0, -1], []],
        [[1, 2], [2, 3], [0, 4], []],
        [[1, 2], [0, 3], [0, 1], [4]],
        [[1, 2], [2], [0, 3], []],
        [[1, 2], [0, 1, 2], [0, 1], []],
    ], ids=["missing", "duplicate", "extra", "foreign", "below", "above",
            "later-missing", "later-extra", "later-below", "later-above",
            "later-out-of-range-count", "miscount-then-wrong-entry",
            "self"])
    def test_rotation_must_permute_neighbours(self, rotation):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)], {1: "X0:b"})
        with pytest.raises(InvariantError,
                           match=r"^rotation at vertex X0:b is not a perm"):
            check_embedding(g, rotation)

    def test_out_of_range_entry_aliases_no_dart(self):
        # as dart 1->4, the entry 4 would share the key 1 * 4 + 4 of dart
        # 2->0, which vertex 2 omits: the darts as a whole still match
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)], {1: "X0:b"})
        with pytest.raises(InvariantError,
                           match=r"^rotation at vertex X0:b is not a perm"):
            check_embedding(g, [[1, 2], [0, 2, 4], [1], []])

    # the path 0-1-2 has the flat rotation lens [1, 2, 1], heads
    # [1, 0, 2, 1]; these lens do not split the three heads given
    @pytest.mark.parametrize("lens, message", [
        ([1, 2, 1], r"^rotation system lens sum to 4, heads has 3 darts$"),
        ([2, -1, 2], r"^rotation system lens sum to 3 with a negative "
                     r"entry, heads has 3 darts$"),
    ], ids=["sum", "negative"])
    def test_lens_must_split_heads(self, lens, message):
        with pytest.raises(InvariantError, match=message):
            check_embedding_arrays(path(3), np.array(lens, dtype=np.int64),
                                   np.array([1, 0, 2], dtype=np.int64))

    def test_agrees_with_face_tracer(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng)
            rot = [rng.sample(sorted(nbrs), len(nbrs)) for nbrs in g.adjacency()]
            if rng.random() < 0.3:
                # corrupt one rotation: drop, repeat or add an entry
                v = rng.randrange(n)
                entry = rng.choice([-1, 0, n - 1, n, rng.randrange(n)])
                if rot[v] and rng.random() < 0.5:
                    rot[v][rng.randrange(len(rot[v]))] = entry
                else:
                    rot[v].append(entry)
            got = embedding_outcome(check_embedding, g, rot)
            assert got == embedding_outcome(trace_faces, g, rot)
            outcomes.add(got if isinstance(got, int) else got[:18])
        # accepted rotations, genus errors and permutation errors all occur
        assert {"rotation system is", "rotation at vertex"} < outcomes


@st.composite
def cycle_permutations(draw):
    """A permutation from cycle lengths: fixed points, cycles up to and
    past the plain steps, and cycles that take several doubling rounds;
    the elements are shuffled, and the dtype is int32 or int64."""
    lengths = draw(st.lists(st.one_of(st.integers(1, 8), st.integers(9, 300)),
                            max_size=12))
    ids = list(range(sum(lengths)))
    random.Random(draw(st.integers(0, 2**32))).shuffle(ids)
    perm = [0] * len(ids)
    at = 0
    for k in lengths:
        cyc = ids[at:at + k]
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % k]
        at += k
    return np.array(perm, dtype=draw(st.sampled_from([np.int32, np.int64])))


class TestCycleMinima:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(cycle_permutations())
    def test_matches_orbit_walk(self, perm):
        got = graph._cycle_minima(perm)
        assert got.dtype == perm.dtype
        assert got.tolist() == cycle_minima_by_orbits(perm.tolist())

    @pytest.mark.parametrize("n", [0, 1, graph._PLAIN_STEPS,
                                   graph._PLAIN_STEPS + 1, 1000])
    def test_one_cycle_and_fixed_points(self, n):
        # one cycle through 0..n-1 backwards, so every label must travel
        # the whole cycle, and as many fixed points after it
        perm = np.concatenate(((np.arange(n) - 1) % max(n, 1),
                               np.arange(n, 2 * n)))
        assert graph._cycle_minima(perm).tolist() == [0] * n + list(
            range(n, 2 * n))


def count_components(n, edges):
    """graph._component_count(n, edges) and its number of hooking rounds.
    The function runs on numpy except that each np.minimum.at call, one
    per round that merges trees, is counted, and a call past the
    docstring's bound of 2 * ceil(log2 n) rounds fails the test, so a
    hooking rule that stops merging fails instead of looping."""
    limit = 2 * (n - 1).bit_length() if n else 0
    rounds = 0

    def counted_at(*args):
        nonlocal rounds
        rounds += 1
        assert rounds <= limit, f"round {rounds} on {n} vertices"
        np.minimum.at(*args)

    class Minimum:
        __call__ = staticmethod(np.minimum)
        at = staticmethod(counted_at)

    class Numpy:
        minimum = Minimum()

        def __getattr__(self, name):
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "np", Numpy())
        return graph._component_count(n, edges), rounds


@st.composite
def component_graphs(draw):
    """n up to 60 with random edges on shuffled ids, often leaving
    isolated vertices, as a canonical int32 or int64 edge array."""
    n = draw(st.integers(0, 60))
    pairs = []
    if n >= 2:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1))
                              .filter(lambda p: p[0] != p[1]),
                              max_size=2 * n))
    ids = list(range(n))
    random.Random(draw(st.integers(0, 2**32))).shuffle(ids)
    g = Graph.from_edges(n, [(ids[u], ids[v]) for u, v in pairs])
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return n, g.edge_array.astype(dtype)


def zigzag(n):
    """0, n-1, 1, n-2, 2, ...: every id is a local extreme on the path."""
    return [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]


class TestComponentCount:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(component_graphs())
    def test_matches_bfs(self, case):
        n, edges = case
        count, _ = count_components(n, edges)
        assert count == components_by_bfs(n, edges.tolist())

    @pytest.mark.parametrize("walk", [
        lambda n: list(range(n)), zigzag,
        lambda n: random.Random(3).sample(range(n), n)],
        ids=["sorted", "zigzag", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_long_path(self, walk, dtype):
        n = 5000
        walk = walk(n)
        edges = Graph.from_edges(n, list(zip(walk, walk[1:]))).edge_array
        assert count_components(n, edges.astype(dtype))[0] == 1

    def test_star_with_the_largest_centre(self):
        # the centre hooks to leaf 0 in round 1, the other leaves in round 2
        n = 1000
        edges = np.array([(leaf, n - 1) for leaf in range(n - 1)])
        assert count_components(n, edges) == (1, 2)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_isolated_vertices(self, n):
        assert count_components(n, np.empty((0, 2), dtype=np.int64)) == (n, 0)

    def test_paths_and_isolated_vertices(self):
        # two zigzag paths of 50 on shuffled ids, with 20 isolated
        # vertices among them
        ids = random.Random(5).sample(range(120), 120)
        walk = [ids[k] for k in zigzag(50)]
        other = [ids[50 + k] for k in zigzag(50)]
        edges = list(zip(walk, walk[1:])) + list(zip(other, other[1:]))
        g = Graph.from_edges(120, edges)
        assert count_components(120, g.edge_array)[0] == 22


class TestPathDecomposition:
    def test_p3(self):
        g = path(3)
        pd = layout_to_path_decomposition(g, LinearLayout.identity(3))
        assert pd.bags == (frozenset({0}), frozenset({0, 1}), frozenset({1, 2}))
        assert pd.width == 1
        validate_path_decomposition(g, pd)

    def test_edgeless(self):
        g = Graph.from_edges(4, [])
        pd = layout_to_path_decomposition(g, LinearLayout.identity(4))
        assert all(len(b) == 1 for b in pd.bags)
        assert pd.width == 0

    def test_c4(self):
        g = cycle(4)
        pd = layout_to_path_decomposition(g, LinearLayout.identity(4))
        assert pd.width == 2
        validate_path_decomposition(g, pd)

    def test_width_bounded_by_cutwidth_random(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 9)
            g = random_graph(n, 0.4, rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            pd = layout_to_path_decomposition(g, layout)
            validate_path_decomposition(g, pd)
            assert pd.width <= cut_profile(g, layout).max_width

    def test_sweep_matches_definition(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 60)
            g = random_graph(n, rng.choice([0.05, 0.1, 0.3]), rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            pos = layout.position()
            last = {v: max((pos[u] for u in g.neighbors(v)), default=pos[v])
                    for v in range(n)}
            expect = tuple(
                frozenset({order[i - 1]} | {u for u in range(n)
                                            if pos[u] < i <= last[u]})
                for i in range(1, n + 1))
            pd = layout_to_path_decomposition(g, layout)
            assert pd.bags == expect
            validate_path_decomposition(g, pd)
            # the steps behind the bags: back lists are the earlier
            # neighbours, forget lists the vertices of bag i not in bag i + 1
            steps, width = bag_steps(g, layout)
            assert width == pd.width
            assert [v for v, _, _ in steps] == order
            bags = expect + (frozenset(),)
            for i, (v, back, forget) in enumerate(steps):
                assert back == sorted(u for u in g.neighbors(v)
                                      if pos[u] < pos[v])
                assert len(forget) == len(set(forget))
                assert set(forget) == bags[i] - bags[i + 1]
                assert forget == sorted(forget, key=pos.get)
