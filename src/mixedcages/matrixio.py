"""Adjacency-matrix text I/O and DOT export for mixed graphs.

Matrix format: an n x n 0/1 matrix, one row per line.  A symmetric pair
A[i][j] = A[j][i] = 1 encodes the edge {i,j}; an asymmetric 1 encodes
the arc (i,j).  The diagonal must be zero.  Two row layouts are
accepted: whitespace-separated tokens ("0 1 0") and contiguous digit
strings ("010").  Output uses the space-separated layout with rows
joined by newlines.
"""

from __future__ import annotations

import warnings

from .graphs import MixedGraph, new_graph


class MatrixParseError(ValueError):
    """Base class for adjacency-matrix parse failures."""


class NonSquareError(MatrixParseError):
    """Row count and row lengths disagree."""


class BadTokenError(MatrixParseError):
    """A matrix entry is something other than 0 or 1."""


class NonzeroDiagonalError(MatrixParseError):
    """A diagonal entry is set (loops are not representable)."""


class UnrepresentableError(ValueError):
    """The graph does not fit the 0/1 adjacency-matrix format.

    Symmetric 1-entries are defined to mean an undirected edge, so a
    pair of antiparallel arcs, or an edge coexisting with an arc on the
    same pair, cannot be written without silently collapsing to an
    edge.  These are exactly the girth-2 configurations; graphs
    exchanged as matrices never contain them.
    """


class MatrixHeaderWarning(UserWarning):
    """Emitted when leading non-matrix lines are skipped under allow_header."""


def read_adjacency_matrix(
    text: str | bytes,
    allow_header: bool = False,
) -> MixedGraph:
    """Parse an adjacency-matrix text into a MixedGraph.

    With ``allow_header=True``, leading lines that do not parse as 0/1
    rows are skipped; each skipped line is flagged with a
    MatrixHeaderWarning rather than dropped silently.  A text with no
    matrix rows raises MatrixParseError: nobody supplied a graph, and so
    do bytes that are not ASCII.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"undecodable bytes: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    rows: list[list[int]] = []
    started = False
    for idx, line in enumerate(lines):
        try:
            rows.append(_parse_row(line, idx))
            started = True
        except BadTokenError:
            if allow_header and not started:
                warnings.warn(
                    f"skipping header line {idx + 1}: {line!r}",
                    MatrixHeaderWarning,
                    stacklevel=2,
                )
                continue
            raise
    n = len(rows)
    if n == 0:
        raise MatrixParseError("no matrix rows")
    for idx, row in enumerate(rows):
        if len(row) != n:
            raise NonSquareError(
                f"row {idx + 1} has {len(row)} entries, expected {n}"
            )
    edges = []
    arcs = []
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonalError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if a and b:
                edges.append((i, j))
            elif a:
                arcs.append((i, j))
            elif b:
                arcs.append((j, i))
    return new_graph(n, edges, arcs)


_BIT_VALUES = {"0": 0, "1": 1}
_BITS = frozenset(_BIT_VALUES)


def _parse_row(line: str, idx: int) -> list[int]:
    """The entries of one stripped row: its whitespace-separated tokens,
    or its characters when it holds no whitespace."""
    tokens = line.split()
    if len(tokens) == 1:
        tokens = list(line)
    if not _BITS.issuperset(tokens):
        bad = next(tok for tok in tokens if tok not in _BITS)
        raise BadTokenError(f"bad token {bad!r} in row {idx + 1}")
    return list(map(_BIT_VALUES.__getitem__, tokens))


def write_adjacency_matrix(g: MixedGraph) -> str:
    """Serialize a graph to matrix text; round-trips through the reader.

    Raises UnrepresentableError for graphs with antiparallel arcs or an
    edge sharing a pair with an arc, which the format cannot encode.
    """
    for u, v in g.arcs:
        if (v, u) in g.arcs:
            raise UnrepresentableError(
                f"antiparallel arcs ({u},{v}),({v},{u}) do not fit the matrix format"
            )
        if g.has_edge(u, v):
            raise UnrepresentableError(
                f"edge {{{u},{v}}} coexisting with arc ({u},{v}) does not fit"
                " the matrix format"
            )
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u][v] = 1
        m[v][u] = 1
    for u, v in g.arcs:
        m[u][v] = 1
    return "\n".join(" ".join(map(str, row)) for row in m)


def export_dot(g: MixedGraph) -> str:
    """Emit the graph in DOT form with deterministic statement order.

    Arcs become plain directed statements; edges carry ``dir=none`` so
    standard renderers draw them without arrowheads.
    """
    out = ["digraph mixed {"]
    for v in range(g.n):
        out.append(f"  {v};")
    for u, v in g.sorted_arcs():
        out.append(f"  {u} -> {v};")
    for u, v in g.sorted_edges():
        out.append(f"  {u} -> {v} [dir=none];")
    out.append("}")
    return "\n".join(out)
