"""File formats.

Graph text format (1-based vertex ids):
    c <comment>
    p <n> <m>
    e <u> <v>

Layout file: one line of n whitespace-separated 1-based vertex ids in
position order.  JSON mirrors use the same 1-based convention; a
gadget file is the JSON mirror of a CrossoverGadget.
Vertex ids are dense and 0-based internally; conversion happens here.
The parsers take text, never a path: read_input alone reads an input
file, and returns its text with the digest of the same bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import (InvalidLayoutError, ParseError, PreconditionError,
                     ResourceLimitError)
from .gadgets import CrossoverGadget
from .graph import Graph, LinearLayout, layout_error


# ---------------------------------------------------------------------------
# graph text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    n = None
    m = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p' line", ln)
            if len(parts) != 3:
                raise ParseError("'p' line must be 'p <n> <m>'", ln)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("'p' line has non-integer fields", ln)
            if n < 0 or m < 0:
                raise ParseError("negative sizes in 'p' line", ln)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("'e' line before 'p' line", ln)
            if len(parts) != 3:
                raise ParseError("'e' line must be 'e <u> <v>'", ln)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("'e' line has non-integer endpoints", ln)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", ln)
            if u == v:
                raise ParseError("self-loop", ln)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", ln)
    if n is None:
        raise ParseError("missing 'p' line")
    g = Graph.from_edges(n, edges)
    if m is not None and g.m != m:
        raise ParseError(f"'p' line promises {m} edges, found {g.m}")
    return g


def _decimal_rows(values: np.ndarray, fields: tuple[str, ...],
                  end: str) -> str:
    """The text of an (r, k) array of non-negative ints: row i is
    fields[0], values[i, 0], ..., fields[k - 1], values[i, k - 1], end,
    each int in decimal.

    Every row is first written at the width w of the largest int into an
    (r, L) uint8 matrix that starts as r copies of the separators with w
    zeros per int.  Each column's digits come from unsigned division by
    10, in uint32 when the largest int is below 2**32 and in uint64
    otherwise; a bool matrix of the same shape marks the leading zeros,
    and one boolean index compacts the matrix into the text.  Transient
    bytes per row: 3L + 3s, for the two matrices, the compacted text and
    three one-column work arrays of s = 4 or 8 bytes per entry.  For an
    edge row of two 5-digit ids (L = 14) that is 54 bytes, against the 88
    of the list and tuple that %-formatting built (an 8-byte slot in each
    and a 28-byte int per id)."""
    r = len(values)
    top = int(values.max(initial=0))
    w = len(str(top))
    dtype = np.uint32 if top < 2**32 else np.uint64
    row = "".join(f + "0" * w for f in fields) + end
    text = np.frombuffer(bytearray(row.encode() * r), np.uint8)
    text = text.reshape(r, len(row))
    keep = np.ones(text.shape, bool)
    q, quot, work = (np.empty(r, dtype) for _ in range(3))
    stop = 0
    for j, f in enumerate(fields):
        stop += len(f) + w
        np.copyto(q, values[:, j], casting="unsafe")
        # right to left; left of the units digit a zero quotient is a
        # leading zero
        for col in range(stop - 1, stop - w - 1, -1):
            if col < stop - 1:
                np.not_equal(q, 0, out=keep[:, col])
            np.floor_divide(q, 10, out=quot)
            np.multiply(quot, 10, out=work)
            np.subtract(q, work, out=work)
            np.add(work, ord("0"), out=text[:, col], casting="unsafe")
            q, quot = quot, q
    return str(text[keep].data, "ascii")


def write_graph(g: Graph) -> str:
    return f"p {g.n} {g.m}\n" + _decimal_rows(g.edge_array + 1,
                                              ("e ", " "), "\n")


def parse_layout(text: str, g: Graph) -> LinearLayout:
    parts = text.split()
    try:
        order = [int(p) - 1 for p in parts]
    except ValueError:
        raise ParseError("layout file must contain integers")
    layout = _layout_of(order, g)
    layout.validate(g)
    return layout


def _layout_of(order: list[int], g: Graph) -> LinearLayout:
    """The layout of 0-based ids; an id beyond int64 is no vertex of any
    graph, and raises the InvalidLayoutError of ``validate``."""
    try:
        return LinearLayout(order)
    except OverflowError:
        raise layout_error(len(order), g.n) from None


def write_layout(layout: LinearLayout) -> str:
    return _decimal_rows(layout.order_array[:, None] + 1, ("",),
                         " ")[:-1] + "\n"


# ---------------------------------------------------------------------------
# JSON mirrors
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    out = {"n": g.n, "edges": (g.edge_array + 1).tolist()}
    if g.labels:
        out["labels"] = {str(v + 1): s for v, s in sorted(g.labels.items())}
    return out


# what _json_int, int(), indexing and .items() raise on JSON of the wrong
# shape, and an integer conversion past int64; Graph and CrossoverGadget
# raise ValueError
_BAD_JSON = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _json_int(value) -> int:
    """A JSON integer as it is: int() would truncate 4.5 to 4 and take
    true or "3" as well."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def graph_from_json(obj: dict) -> Graph:
    try:
        n = _json_int(obj["n"])
        edges = [(_json_int(u) - 1, _json_int(v) - 1)
                 for u, v in obj["edges"]]
        labels = {int(k) - 1: str(s)
                  for k, s in obj.get("labels", {}).items()}
        return Graph.from_edges(n, edges, labels)
    except _BAD_JSON as exc:
        raise ParseError(f"bad graph JSON: {exc}")


def gadget_to_json(gadget: CrossoverGadget) -> dict:
    return {
        "problem": gadget.problem,
        "shift": gadget.shift,
        "terminals": [t + 1 for t in gadget.terminals],
        "graph": graph_to_json(gadget.graph),
        "layout": [v + 1 for v in gadget.layout.order],
    }


def gadget_from_json(obj: dict) -> CrossoverGadget:
    try:
        problem = obj["problem"]
        shift = _json_int(obj["shift"])
        terminals = tuple(_json_int(t) - 1 for t in obj["terminals"])
        graph = graph_from_json(obj["graph"])
        layout = _layout_of([_json_int(v) - 1 for v in obj["layout"]], graph)
        return CrossoverGadget(problem, graph, terminals, layout, shift)
    except (*_BAD_JSON, InvalidLayoutError, ParseError) as exc:
        raise ParseError(f"bad gadget JSON: {exc}")


def parse_gadget(text: str) -> CrossoverGadget:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad gadget JSON: {exc}")
    return gadget_from_json(obj)


def read_input(path: str) -> tuple[str, str]:
    """An input file read once: its bytes decoded as UTF-8, and the first
    16 hex digits of the SHA-256 of those same bytes.  A file that cannot
    be opened, read or decoded (missing, a directory, binary bytes)
    raises ParseError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()[:16]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be opened or written (a
    directory, a missing parent directory) raises PreconditionError."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

# the most vertices write_dot takes; its text grows by about 10 bytes per
# declared vertex, edges or not
DOT_VERTEX_LIMIT = 10**7


def write_dot(g: Graph) -> str:
    """DOT text with one line per vertex and per edge.  A graph of more
    than DOT_VERTEX_LIMIT vertices raises ResourceLimitError before any
    line is built."""
    if g.n > DOT_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, DOT export limit is "
            f"{DOT_VERTEX_LIMIT}")
    lines = ["graph G {"]
    for v in range(g.n):
        label = g.labels.get(v)
        if label:
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v + 1} [label="{label}"];')
        else:
            lines.append(f"  {v + 1};")
    lines.append(_decimal_rows(g.edge_array + 1, ("  ", " -- "), ";\n")
                 + "}")
    return "\n".join(lines) + "\n"
