"""Exact optimization oracles for Independent Set, Dominating Set and
Vertex Cover.

Two independent routes are provided for IS and DS, and SOLVERS maps
each problem to its pair (brute, dp), so callers pick a solver by
indexing it instead of branching on the problem.  Its keys are the one
list of problem names, which gadgets and the CLI read:

* brute_* : branch-and-bound over vertex bitmasks, exact for small n.
* dp_*    : dynamic programming over the path decomposition derived from
  a linear layout, with 2 states per bag vertex for IS and 3 for DS.
  Peak live states stay within 2^(w+1) resp. 3^(w+1) for a layout of
  cutwidth w.  Both run on one engine, _sweep, that keeps only the
  live states, as sorted int64 keys with one resp. two bits per bag
  slot, and drops a state when a twin with a lower digit at one bag slot
  costs no more (the digit order is the dominance order of both
  problems), so it handles widths up to 61 (IS) resp. 30 (DS) within
  MEMORY_BUDGET_BYTES.  A step whose introduce provably keeps that table
  settled and that forgets nothing skips the dedupe and the prune; every
  other step runs the full dedupe and prune.  Both problems read, test
  and remove digits by shifts and masks; an introduce tests all earlier
  neighbours at once.
* block_dp: the one DP entry.  dp_* call it with no block vertices, and
  verify_planarization on a contracted graph whose vertex pairs stand for
  gadget copies, each crossed in one block step by the gadget's transfer
  table (transfer_table: the same sweep over the gadget with its two
  entering neighbours pinned), which gadgets.boundary_function reads too.

brute_ds is the only Dominating Set search.  Its ``avoid`` set, like
brute_is's, serves the gadgets' lemma checks in the tests.  brute_vc is a
separate edge-branching search, deliberately not derived from brute_is,
so the IS/VC complementarity can be asserted as a real cross-check.  Callers
that need an optimum with vertices deleted build that graph with
Graph.relabel and call these solvers on it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OracleLimitError, PreconditionError, ResourceLimitError
from .graph import Graph, LinearLayout, _ranges, bag_steps

BRUTE_LIMIT = 28
HEURISTIC_RESTARTS = 3
# the most vertices heuristic_layout takes; its greedy pass and each
# 2-opt pass cost at least n^2 steps
HEURISTIC_LIMIT = 10_000
MEMORY_BUDGET_BYTES = 2 << 30
# the most cells (live keys times bag slots) in one block of the prune,
# unless one slot alone has more keys
_VECTOR_PRUNE_CELLS = 1 << 15


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def _check_brute_size(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise OracleLimitError(
            f"graph has {g.n} vertices, brute-force limit is {limit}")


def brute_is(g: Graph, limit: int = BRUTE_LIMIT,
             avoid: Iterable[int] = ()) -> int:
    """Maximum size of an independent set disjoint from ``avoid`` by
    branch and bound."""
    _check_brute_size(g, limit)
    adj = g.adjacency_masks()
    avail = (1 << g.n) - 1
    for v in avoid:
        avail &= ~(1 << v)
    best = 0

    def grow(av: int, size: int) -> None:
        nonlocal best
        if size + av.bit_count() <= best:
            return
        if av == 0:
            best = max(best, size)
            return
        # branch on a vertex of maximum degree within the candidate set
        mm, pick, pick_deg = av, -1, -1
        while mm:
            lb = mm & (-mm)
            v = lb.bit_length() - 1
            d = (adj[v] & av).bit_count()
            if d > pick_deg:
                pick_deg, pick = d, v
            mm ^= lb
        if pick_deg == 0:
            best = max(best, size + av.bit_count())
            return
        grow(av & ~(adj[pick] | (1 << pick)), size + 1)  # take pick
        grow(av & ~(1 << pick), size)                    # skip pick
    grow(avail, 0)
    del grow    # it refers to itself: free the cycle now, not in gc
    return best


def brute_ds(g: Graph, limit: int = BRUTE_LIMIT,
             avoid: Iterable[int] = ()) -> int | None:
    """Minimum size of a dominating set disjoint from ``avoid`` by branch
    and bound; None if some vertex has no dominator outside ``avoid``.

    Branches on the closed neighborhood of an undominated vertex with the
    fewest allowed dominators.
    """
    _check_brute_size(g, limit)
    n = g.n
    adj = g.adjacency_masks()
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    allowed = full
    for v in avoid:
        allowed &= ~(1 << v)
    if any(not c & allowed for c in closed):
        return None
    best = allowed.bit_count()  # all allowed vertices always dominate
    # lower bound: undominated vertices / max closed degree
    maxdeg = max((c.bit_count() for c in closed), default=1)

    def search(dominated: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        if dominated == full:
            best = size
            return
        # pick the undominated vertex with the fewest allowed dominators
        undom = full & ~dominated
        pick, pick_cnt = -1, 1 << 30
        mm = undom
        while mm:
            lb = mm & (-mm)
            v = lb.bit_length() - 1
            c = (closed[v] & allowed).bit_count()
            if c < pick_cnt:
                pick_cnt, pick = c, v
            mm ^= lb
        if size + (undom.bit_count() + maxdeg - 1) // maxdeg >= best:
            return
        mm = closed[pick] & allowed
        while mm:
            lb = mm & (-mm)
            w = lb.bit_length() - 1
            search(dominated | closed[w], size + 1)
            mm ^= lb
    search(0, 0)
    del search    # it refers to itself: free the cycle now, not in gc
    return best


def brute_vc(g: Graph, limit: int = BRUTE_LIMIT) -> int:
    """Minimum vertex cover by edge branching (independent of brute_is)."""
    _check_brute_size(g, limit)
    adj = g.adjacency_masks()
    best = g.n

    def matching_bound(alive: int) -> int:
        # greedy matching gives a lower bound on the cover size
        bound = 0
        used = 0
        mm = alive
        while mm:
            lb = mm & (-mm)
            v = lb.bit_length() - 1
            mm ^= lb
            if used & (1 << v):
                continue
            cand = adj[v] & alive & ~used
            if cand:
                w = (cand & (-cand)).bit_length() - 1
                used |= (1 << v) | (1 << w)
                bound += 1
        return bound

    def search(alive: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        # find any uncovered edge among alive vertices
        edge = None
        mm = alive
        while mm:
            lb = mm & (-mm)
            v = lb.bit_length() - 1
            nb = adj[v] & alive
            if nb:
                w = (nb & (-nb)).bit_length() - 1
                edge = (v, w)
                break
            mm ^= lb
        if edge is None:
            best = size
            return
        if size + matching_bound(alive) >= best:
            return
        v, w = edge
        search(alive & ~(1 << v), size + 1)
        search(alive & ~(1 << w), size + 1)
    search((1 << g.n) - 1, 0)
    del search    # it refers to itself: free the cycle now, not in gc
    return best


# ---------------------------------------------------------------------------
# layout-based dynamic programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DPReport:
    optimum: int
    max_live_states: int
    bag_count: int
    width_used: int


def dp_is(g: Graph, layout: LinearLayout) -> DPReport:
    """Maximum independent set via 2-state DP over the layout's bags.

    Per-vertex states: 0 = out of the set, 1 = in.  Costs are negated
    sizes, so the shared engine minimizes.
    """
    return block_dp(g, layout, g.n, None, "is")


def _introduce_is(keys, costs, top, low):
    # v out keeps every state; v in needs every earlier neighbor out, one
    # bit test against the sum of their weights.  Always settled (_sweep).
    free = (keys & low) == 0
    return (np.concatenate([keys, keys[free] + top]),
            np.concatenate([costs, costs[free] - 1]), True)


def dp_ds(g: Graph, layout: LinearLayout) -> DPReport:
    """Minimum dominating set via 3-state DP over the layout's bags.

    Per-vertex states: 0 = in the set, 1 = out and dominated,
    2 = out and not yet dominated.  Forgetting rejects state 2, so
    isolated vertices are forced into the set.
    """
    return block_dp(g, layout, g.n, None, "ds")


def _introduce_ds(keys, costs, top, low):
    # v in the set (0) dominates its earlier neighbors; v out is
    # dominated (1) if an earlier neighbor is in the set, else 2.  The in
    # block comes first, then the dominated and the undominated out states
    # (that out block is sorted and unique).  Digits 0, 1, 2 are the bit
    # pairs 00, 01, 10: a back digit is 2 iff its bit in low << 1 is set,
    # and 0 iff its bit in low is clear in keys | keys >> 1.  Subtracting
    # half of the set high bits lowers every back 2 to 1.  Settled when
    # no back digit is 2 in any state, so that v_in is still keys (_sweep).
    undominated = keys & low << 1
    settled = not undominated.any()
    v_in = keys if settled else keys - (undominated >> 1)
    dominated = (keys | keys >> 1) & low != low
    free = ~dominated
    return (np.concatenate([v_in, keys[dominated] + top,
                            keys[free] + 2 * top]),
            np.concatenate([costs + 1, costs[dominated], costs[free]]),
            settled)


def _prune_candidates(keys: np.ndarray, nslots: int, bits: int):
    """Yield (flat, twin_key) pairs covering every (state, slot, k) with
    1 <= k <= the state's digit at the slot: flat % N is the state's
    position among the N ``keys`` and twin_key the key whose digit there
    is k lower.  Every digit d >= 1 meets its twin with digit 0 (k = d),
    and a DS digit 2 also its twin with digit 1 (k = 1).

    The slots go in blocks of b = max(1, _VECTOR_PRUNE_CELLS // N), and
    flat indexes the block's b x N matrices slot-major, so no matrix
    holds more than max(_VECTOR_PRUNE_CELLS, N) cells: a small table is
    one block, saving the fixed numpy calls per slot that dominate it,
    and one of over _VECTOR_PRUNE_CELLS / 2 keys takes a slot per block.
    Twin keys are read by flat from the keys with the digit lowered, so
    _prune recovers a position only where the twin exists.  Bit tests
    compare with 0 or with the keys; the broadcast weights are slower.
    """
    n = keys.size
    block = max(1, _VECTOR_PRUNE_CELLS // n)
    for lo in range(0, nslots, block):
        w = 1 << bits * np.arange(lo, min(lo + block, nslots),
                                  dtype=np.int64)[:, None]
        lower = keys & ~(((1 << bits) - 1) * w)    # the slot's digit 0
        flat = np.flatnonzero(lower != keys)
        twin_key = lower.ravel()[flat]
        del lower    # so no matrix outlives its block's pass
        yield flat, twin_key
        if bits == 2:                               # a digit 2 against 1
            flat = np.flatnonzero((keys & 2 * w) != 0)
            yield flat, (keys - w).ravel()[flat]


class _Rule(NamedTuple):
    """How one problem's DP reads its digits: ``bits`` bits per bag slot
    hold the digits 0 .. ``highest``; ``introduce`` and ``reject_on_forget``
    are as in _sweep; the optimum is ``sign`` times the least cost."""
    bits: int
    highest: int
    introduce: Callable
    reject_on_forget: int | None
    sign: int


def _rule(problem: str) -> _Rule:
    """The DP rule of ``problem``, with the introduce the module holds
    when called.  An unknown problem raises PreconditionError."""
    if problem == "is":
        return _Rule(1, 1, _introduce_is, None, -1)
    if problem == "ds":
        return _Rule(2, 2, _introduce_ds, 2, 1)
    raise PreconditionError(f"unknown problem {problem!r}")


# the table of the one state with no slots, at cost 0
_EMPTY = np.zeros(1, dtype=np.int64)
_EMPTY.flags.writeable = False


def _check_key_width(steps, bits: int, held: int = 0) -> None:
    """Raise ResourceLimitError, before anything is allocated, when some
    step of ``steps`` holds more bag slots than 62 bits of key fit;
    ``held`` slots are live before the first step."""
    peak = held
    for v, _, forget in steps:
        held += len(v) if isinstance(v, tuple) else 1
        peak = max(peak, held)
        held -= len(forget)
    if bits * peak > 62:
        raise ResourceLimitError(
            f"DP state keys of width {peak - 1} do not fit in int64")


def _reserve(need: int, states: int) -> None:
    """Raise ResourceLimitError when a step that grows the table to
    ``states`` states needs ``need`` bytes, over MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise ResourceLimitError(
            f"DP step of {states} states needs {need} bytes, over the "
            f"{MEMORY_BUDGET_BYTES}-byte budget")


def _sweep(steps, keys: np.ndarray, costs: np.ndarray, slots, rule: _Rule,
           transfer: Transfer | None = None):
    """Run ``steps`` from the table (keys, costs) whose bag slots hold
    the vertices ``slots``; return the final keys, costs and slots and
    the most live states after any step.

    The table is a sorted, unique int64 array of keys, bits bits * i to
    bits * i + bits - 1 holding the digit of bag slot i (an introduced
    vertex takes the top slot), with a parallel int64 cost array.  Slot
    i's weight is 1 << bits * i.  DS digits are at most 2, so the keys
    order the states exactly as base-3 keys of the same digits would: both
    compare the highest differing digit first.

    A step is (v, back, forget).  A vertex step introduces v with its
    earlier neighbours ``back``: ``introduce(keys, costs, top, low)``
    returns the states with the new top digit set and the back edges
    applied, and whether they are settled already (see below); ``top`` is
    the new slot's weight and ``low`` the sum of the earlier neighbours'
    weights.  A block step, with v the pair (U, V) of a gadget copy's
    merged terminals and back the pair (a, b) of the vertices before its
    entry terminals, grows each state by the rows of ``transfer`` for
    its digits at a and b (_transfer_step): it rewrites those two digits
    and sets U's and V's in two new top slots.  Then the step forgets the
    vertices that leave the bag: a forget drops the states whose digit is
    ``reject_on_forget`` and removes the digit, the bits below it staying
    and the bits above it moving down by ``bits``.  A step that forgets,
    a block step, and a step whose introduce is not settled end with the
    full dedupe (_dedupe) and prune (_prune).  The forgets of a step
    commute and the dedupe follows the last of them, so their order does
    not change the table.

    The prune drops a state when its twin with a lower digit at some slot
    costs no more.  In both problems the digit order is the dominance
    order: a lower digit allows every extension a higher one does, at no
    extra cost to come.  For IS, out (0) allows all that in (1) does.  For
    DS, in the set (0) passes the forget rule, dominates every later
    neighbour at introduce and has its cost already paid, so it allows
    all that dominated (1) or undominated (2) does; dominated allows all
    that undominated does.  Introduce, block steps (their rows depend on
    the digits at a and b only through the same order, see
    transfer_table) and forget keep this order slot by slot, so a dropped
    state's twin keeps an extension at least as cheap as each of the
    state's.  All twins are looked up in the table before any state is
    removed, so the dead set does not depend on the slot order.  A twin's
    key is strictly lower than its state's, so every chain of dead states
    ends at a survivor that costs no more.

    Every step ends with a settled table: sorted, unique keys, and no
    state with a twin that costs no more (a survivor's twin was looked
    up before the removals, so it either was absent or cost more; it is
    still absent or costs more).  Below, x is an old key, c(x) its cost
    and w_i the weight of old slot i.  An introduce that reports itself
    settled returns a settled table again, so a step that forgets nothing
    skips the dedupe and the prune; they could not change it.
    _introduce_is is always settled.  Its out states keep the old keys x
    and costs c(x), so their twins are the old twins.  Its in state
    x + top costs c(x) - 1.  The twin at the new slot, x, costs more.  A
    twin x - w_i + top at an old slot exists only if x - w_i is an old
    key, and it costs c(x - w_i) - 1, which is no more than c(x) - 1 only
    if x - w_i already dominated x in the old table.  Keys stay sorted
    and unique because every old key is below top.

    _introduce_ds returns an in block, each x with its back digits 2
    lowered to 1 at cost c(x) + 1, then an out block, the images x + d top
    at cost c(x), where d is 1 if x has a back digit 0 (v is dominated)
    and 2 otherwise, those with d = 1 first.  It is settled when no x has
    a back digit 2 (always so without back edges).  Then the in block is
    the old table at cost c(x) + 1: in keys lie below top and out keys do
    not, and each part of the out block is the sorted old keys shifted by
    a constant, with all x + top below 2 top, so the table is sorted and
    unique.  An in state has top digit 0, so its twins lie at old slots
    and are in states: the old twins at one more cost, so no in state
    dies.  The twin of an out state x + d top at old slot i, digit k
    lower, is x - k w_i + d top.  Out keys are the images of distinct old
    keys (an out key's bits below top are its x), so this twin exists only
    as the image of x - k w_i, an old twin of x, which cost more than c(x)
    since the old table was settled: no out state dies at an old slot.
    At the top slot, x + 2 top has no twin x + top (that would be the
    image of x, which is x + 2 top), so the one twin of x + d top there is
    the in state x, at cost c(x) + 1, more than it.

    Memory: each step checks, before allocating, that 64 bytes (eight
    int64 arrays) per state it may hold fit MEMORY_BUDGET_BYTES: 2n
    states for a vertex step from n states, and n (R + 1) for a block
    step, R the most rows of one input pair of ``transfer``.  An
    introduce makes two arrays of at most 2n; _transfer_step holds at
    most six arrays of n R and seven of n.  A forget filters the keys and
    costs (both, and their filtered copies: four arrays) and then shifts
    them, holding the keys, the costs, the kept low bits, the shifted
    high bits and their union: five.  _dedupe holds at most eight: its
    input keys and costs, the sort order, the sorted keys and costs, the
    run starts and the unique keys and least costs (its boolean arrays
    are freed before the last two are made).  _prune holds the keys and
    costs, and per block of _prune_candidates about six arrays of at most
    max(2^15, N) elements for a table of N states: a few MiB together for
    a table below 2^15 states, and arrays no longer than the table for a
    larger one.
    """
    bits, reject = rule.bits, rule.reject_on_forget
    mask = (1 << bits) - 1
    slots = list(slots)
    max_live = keys.size
    rows = transfer.widest if transfer is not None else 0
    for v, back, forget in steps:
        at = [bits * slots.index(u) for u in back]
        st = bits * len(slots)    # the bit offset of the new top slot
        if isinstance(v, tuple):
            _reserve(64 * keys.size * (rows + 1), keys.size * rows)
            keys, costs = _transfer_step(keys, costs, transfer, *at, st,
                                         bits)
            slots.extend(v)
            settled = False
        else:
            _reserve(64 * 2 * keys.size, 2 * keys.size)
            keys, costs, settled = rule.introduce(
                keys, costs, 1 << st, sum(1 << s for s in at))
            slots.append(v)
        for u in forget:
            s = bits * slots.index(u)
            if reject is not None:
                keep = (keys & mask << s) != reject << s
                keys, costs = keys[keep], costs[keep]
            keys = (keys & (1 << s) - 1) | (keys >> s + bits << s)
            slots.remove(u)
        if forget or not settled:
            keys, costs = _dedupe(keys, costs)
            keys, costs = _prune(keys, costs, len(slots), bits)
        max_live = max(max_live, keys.size)
    return keys, costs, slots, max_live


def _transfer_step(keys: np.ndarray, costs: np.ndarray, transfer: Transfer,
                   sa: int, sb: int, st: int, bits: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The states of a block step, unsorted: a state x with digits i at
    bit offset sa and j at sb becomes, for each row (i', j', s, t, c) of
    the input pair (i, j) of ``transfer``, x with digits i' and j' there
    and s and t at the new offsets st and st + bits, at cost
    c(x) + c."""
    mask = (1 << bits) - 1
    pair = (keys >> sa & mask) << bits | keys >> sb & mask
    first = transfer.starts[pair]
    count = transfer.starts[pair + 1] - first
    del pair
    state = np.repeat(np.arange(keys.size), count)
    row = _ranges(first, count)
    d = transfer.digits
    delta = (d[:, 0] << sa | d[:, 1] << sb | d[:, 2] << st
             | d[:, 3] << st + bits)
    return ((keys & ~(mask << sa | mask << sb))[state] + delta[row],
            costs[state] + transfer.costs[row])


class Transfer(NamedTuple):
    """A gadget's transfer table under one problem's DP: what a gadget
    copy does to the digits around it in a block step of _sweep.

    An input pair (i, j) gives the digits of a and b, the vertices before
    the entry terminals u and v.  Its rows are starts[p] to
    starts[p + 1] - 1, with p = i << bits | j; row r holds the digits
    (a', b', u', v') that a, b and the exit terminals u' and v' have after
    the gadget, in digits[r], and the cost of the gadget's vertices, in
    costs[r].  Built by transfer_table."""

    starts: np.ndarray
    digits: np.ndarray
    costs: np.ndarray

    @property
    def widest(self) -> int:
        """The most rows of one input pair."""
        return int(np.diff(self.starts).max())


def transfer_table(h: Graph, terminals: tuple[int, int, int, int],
                   layout: LinearLayout, problem: str) -> Transfer:
    """The transfer table of the gadget graph ``h`` with terminals
    (u, u', v, v') under ``problem``'s DP, from the gadget's ``layout``.

    Each input pair runs _sweep over the gadget's steps in that layout on
    h plus pinned vertices a-u and b-v and a sentinel adjacent to a, b,
    u' and v', whose step is left off: the run starts from the one state
    with the pair's digits at a and b, at cost 0, and ends with the
    table over exactly a, b, u' and v', each gadget vertex paid for.  Its
    rows are all that the gadget can do to those four digits, pruned as
    any table of the sweep is.  A pruned row has a twin, a lower digit at
    one of the four, that costs no more.  In a host that twin stays the
    better choice: every state of the block step that takes the row has
    a twin that takes the twin row, at no more cost, and that twin
    allows all that the state allows (the dominance order of _sweep).

    The DS introduce reads a back digit only as 0 or not 0 and lowers a
    back digit 2 to 1, so the digits 1 and 2 at a pinned vertex run
    alike: from 1 the digit ends as 1, from 2 as 1 or 2.  So only the
    digits 0 and ``highest`` are run at each pinned vertex (four runs; IS
    has no other digit), and the rows of a DS digit 1 are those of 2
    with the digit lowered to 1, deduped and pruned again.
    """
    rule = _rule(problem)
    bits = rule.bits
    u, up, v, vp = terminals
    a, b, z = h.n, h.n + 1, h.n + 2
    g = Graph.from_edges(h.n + 3, np.concatenate((h.edge_array, [
        (a, u), (b, v), (z, a), (z, b), (z, up), (z, vp)])))
    order = np.concatenate(([a, b], layout.order_array, [z]))
    steps = bag_steps(g, LinearLayout(order))[0][2:-1]
    _check_key_width(steps, bits, 2)
    shifts = bits * np.arange(4, dtype=np.int64)
    runs = {}
    for i, j in itertools.product((0, rule.highest), repeat=2):
        keys, costs, slots, _ = _sweep(
            steps, np.array([i | j << bits], dtype=np.int64), _EMPTY,
            [a, b], rule)
        at = np.array([bits * slots.index(w) for w in (a, b, up, vp)])
        runs[i, j] = keys[:, None] >> at & (1 << bits) - 1, costs
    digits, costs, counts = [], [], []
    for p in range(1 << 2 * bits):
        i, j = p >> bits, p & (1 << bits) - 1
        if max(i, j) > rule.highest:
            counts.append(0)
            continue
        d, c = runs[i and rule.highest, j and rule.highest]
        d = np.concatenate((np.minimum(d[:, :2], (i, j)), d[:, 2:]), axis=1)
        keys, c = _prune(*_dedupe((d << shifts).sum(axis=1), c), 4, bits)
        digits.append(keys[:, None] >> shifts & (1 << bits) - 1)
        costs.append(c)
        counts.append(keys.size)
    starts = np.concatenate(([0], np.cumsum(counts)))
    return Transfer(starts, np.concatenate(digits), np.concatenate(costs))


def block_dp(g: Graph, layout: LinearLayout, first: int,
             transfer: Transfer | None, problem: str) -> DPReport:
    """DP of ``problem`` over the layout's bags, run by _sweep from the
    one empty state: one vertex step of graph.bag_steps per position,
    but each pair U = first + 2k, V = first + 2k + 1 of ``g`` (none if
    first = g.n: dp_is, dp_ds) is the merged entry and exit terminals of
    a copy of the gadget of ``transfer``, crossed in one block step.

    The layout must place V right after U, and each of them after
    exactly one neighbour: the vertex before u resp. v on its crossed
    edge; block vertices need ``transfer``; else PreconditionError.
    Keys must fit in 62 bits, else ResourceLimitError.
    """
    rule = _rule(problem)
    if transfer is None and first < g.n:
        raise PreconditionError(
            f"block vertices {first} to {g.n - 1} have no transfer table")
    vertex_steps, width = bag_steps(g, layout)
    vertex_steps = iter(vertex_steps)
    steps = []
    for v, back, forget in vertex_steps:
        if v < first:
            steps.append((v, back, forget))
            continue
        w, back_w, forget_w = next(vertex_steps, (None, (), ()))
        if w != v + 1 or len(back) != 1 or len(back_w) != 1:
            raise PreconditionError(
                f"block vertex {v} is not followed by its pair, or one of "
                f"them has no single earlier neighbour")
        steps.append(((v, w), (back[0], back_w[0]), forget + forget_w))
    _check_key_width(steps, rule.bits)
    _, costs, _, live = _sweep(steps, _EMPTY, _EMPTY, [], rule, transfer)
    return DPReport(rule.sign * int(costs.min()), live, g.n, width)


def _prune(keys: np.ndarray, costs: np.ndarray, nslots: int,
           bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted, unique table (keys, costs) without the states whose
    twin with a lower digit at some slot costs no more."""
    n = keys.size
    dead = np.zeros(n, dtype=bool)
    for flat, twin_key in _prune_candidates(keys, nslots, bits):
        twin = np.searchsorted(keys, twin_key)    # below the state: in range
        found = keys[twin] == twin_key
        flat, twin = flat[found], twin[found]
        flat -= flat // n * n                     # the states' positions
        dead[flat[costs[twin] <= costs[flat]]] = True
    return keys[~dead], costs[~dead]


def _dedupe(keys: np.ndarray, costs: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The keys sorted and unique, each with the least of its costs."""
    order = np.argsort(keys, kind="stable")
    keys, costs = keys[order], costs[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.minimum.reduceat(costs, starts)


# the exact solvers of each problem: (brute force, layout DP)
SOLVERS = {"is": (brute_is, dp_is), "ds": (brute_ds, dp_ds)}


# ---------------------------------------------------------------------------
# heuristic layouts
# ---------------------------------------------------------------------------

def heuristic_layout(g: Graph, seed: int = 0) -> LinearLayout:
    """Greedy min-incremental-cut insertion with 2-opt refinement, from
    the vertex of least degree and HEURISTIC_RESTARTS - 1 random starts.

    Deterministic for fixed (graph, seed).  No optimality guarantee; the
    result is a valid layout whose width the caller can measure.  Graphs
    over HEURISTIC_LIMIT vertices raise ResourceLimitError before anything
    is allocated.
    """
    import random
    if g.n > HEURISTIC_LIMIT:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, heuristic layout limit is "
            f"{HEURISTIC_LIMIT}")
    if g.n == 0:
        return LinearLayout(())
    adj = g.adjacency_masks()
    deg = [adj[v].bit_count() for v in range(g.n)]
    rng = random.Random(seed)

    def greedy(start: int) -> list[int]:
        order = [start]
        placed = 1 << start
        cut = deg[start]
        remaining = set(range(g.n)) - {start}
        while remaining:
            best_v, best_key = -1, None
            for v in sorted(remaining):
                newcut = cut + deg[v] - 2 * (adj[v] & placed).bit_count()
                # prefer small new cut, then strong attachment to placed
                key = (newcut, -(adj[v] & placed).bit_count(), v)
                if best_key is None or key < best_key:
                    best_key, best_v = key, v
            order.append(best_v)
            placed |= 1 << best_v
            cut = best_key[0]
            remaining.discard(best_v)
        return order

    def width_of(order: list[int]) -> int:
        # the cut grows by the edges from v to the right minus those back
        placed = cut = width = 0
        for v in order:
            cut += deg[v] - 2 * (adj[v] & placed).bit_count()
            placed |= 1 << v
            width = max(width, cut)
        return width

    def two_opt(order: list[int]) -> list[int]:
        improved = True
        cur = width_of(order)
        order = list(order)
        while improved:
            improved = False
            for i in range(len(order) - 1):
                hi = min(len(order), i + 9)  # local window keeps this cheap
                for j in range(i + 1, hi):
                    order[i], order[j] = order[j], order[i]
                    w = width_of(order)
                    if w < cur:
                        cur = w
                        improved = True
                    else:
                        order[i], order[j] = order[j], order[i]
        return order

    starts = [min(range(g.n), key=lambda v: (deg[v], v))]
    for _ in range(HEURISTIC_RESTARTS - 1):
        starts.append(rng.randrange(g.n))
    best_order, best_w = None, None
    for s in starts:
        order = two_opt(greedy(s))
        w = width_of(order)
        if best_w is None or w < best_w:
            best_order, best_w = order, w
    return LinearLayout(tuple(best_order))
