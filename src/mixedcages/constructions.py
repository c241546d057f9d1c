"""Algebraic three-row constructions, including the order-30 cage.

The order-30 graph lives on vertices v(i,j), 0 <= i < 3, 0 <= j < 10,
numbered 10*i + j.  Each row induces a directed 10-cycle
(v(i,j) -> v(i,j+1)), and four cross-row edge families connect the rows
(second indices mod 10):

    {v(0,j), v(1,j)}      {v(0,j), v(2,j+5)}
    {v(1,j), v(2,j+2)}    {v(1,j), v(2,j-2)}

Those families alone leave row 0 with edge-degree 2, so they cannot be
the whole story for a graph that is edge-regular of degree 3.  The
missing incidences are recovered by `find_completion`, an exhaustive
scan over single-offset edge families, which finds exactly one
completion meeting degree (3,1) and girth 6: the five "diameter" chords
{v(0,j), v(0,j+5)} inside row 0.  `build_g30` bakes that completion in
and re-verifies the defining parameters on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from .girth import GirthResult, girth
from .graphs import (
    DegreeProfile,
    MixedGraph,
    Pair,
    Permutation,
    _normalize_edge,
    degree_profile,
    new_graph,
)

ROW_LENGTH = 10
CHORD_OFFSET = 5  # the completion found by find_completion, pinned

# an edge family (row a, row b, offset o): edges {v(a,j), v(b,j+o)}
_Family = tuple[int, int, int]


class CollisionError(ValueError):
    """Two recipe families produce the same edge."""


class VerificationFailedError(ValueError):
    """A construction did not meet its target parameters.

    Carries the measured degree profile and girth so the discrepancy is
    explicit instead of silently shipping a wrong graph.
    """

    def __init__(
        self,
        message: str,
        profile: DegreeProfile,
        girth_result: GirthResult,
    ) -> None:
        super().__init__(message)
        self.profile = profile
        self.girth_result = girth_result


class ThreeRowRecipe(NamedTuple):
    """Parameterized three-row construction.

    ``m`` is the row length.  Every row carries a directed m-cycle, and
    row 0 joins row 1 by {v(0,j), v(1,j)}.  ``cross_offset`` joins row 0
    to row 2 ({v(0,j), v(2,j+o)}), and ``upper_offsets`` gives the two
    row-1-to-row-2 families.  ``chord_offset``, if set, adds edges
    {v(0,j), v(0,j+o)} inside row 0.  Offsets are taken mod m.
    """

    m: int = ROW_LENGTH
    cross_offset: int = 5
    upper_offsets: tuple[int, int] = (2, -2)
    chord_offset: int | None = CHORD_OFFSET


def build_three_row(recipe: ThreeRowRecipe) -> MixedGraph:
    """Materialize a recipe as a mixed graph on 3m vertices."""
    return _build(recipe.m, _families(recipe))


def _families(recipe: ThreeRowRecipe) -> list[_Family]:
    families = [(0, 1, 0), (0, 2, recipe.cross_offset)]
    families += [(1, 2, off) for off in recipe.upper_offsets]
    if recipe.chord_offset is not None:
        families.append((0, 0, recipe.chord_offset))
    return families


def _build(m: int, families: list[_Family]) -> MixedGraph:
    """Three directed m-cycles, v(i,j) = m*i + j, plus edge families.

    A family (a, b, o) gives the edges {v(a,j), v(b,j+o)}, j mod m.
    Within one family the double cover (j and j+o naming the same chord)
    is collapsed; a coincidence between two different families raises
    CollisionError because it means the offsets are degenerate.
    """
    if m < 3:
        raise ValueError(f"row length must be >= 3, got {m}")
    for a, b, off in families:
        if a == b and off % m == 0:
            raise ValueError(f"offset {off} in row {a} makes self-loops")
    arcs = [(m * i + j, m * i + (j + 1) % m)
            for i in range(3) for j in range(m)]
    edges: set[Pair] = set()
    for a, b, off in families:
        fam = {_normalize_edge(m * a + j, m * b + (j + off) % m)
               for j in range(m)}
        overlap = edges & fam
        if overlap:
            raise CollisionError(
                f"edge families collide on {sorted(overlap)[:3]}"
            )
        edges |= fam
    return new_graph(3 * m, sorted(edges), arcs)


def g30_recipe() -> ThreeRowRecipe:
    """The pinned recipe for the order-30 (3,1,6) graph."""
    return ThreeRowRecipe()


def build_g30() -> MixedGraph:
    """The order-30 graph, verified to be (3,1)-regular with girth 6.

    Raises VerificationFailedError if the construction ever stops
    meeting its parameters (which would indicate a recipe regression).
    """
    g = build_three_row(g30_recipe())
    verify_parameters(g, r=3, z=1, g_target=6)
    return g


def build_g30_literal() -> MixedGraph:
    """The four cross-row families plus all three arc rows, no chords.

    Kept for inspection: row 0 has edge-degree 2 here, so this graph is
    not edge-regular of degree 3.  `find_completion` documents the
    unique repair.
    """
    return build_three_row(ThreeRowRecipe(chord_offset=None))


def verify_parameters(g: MixedGraph, r: int, z: int, g_target: int) -> None:
    """Require exact regularity (r, z) and girth == g_target."""
    profile = degree_profile(g)
    gr = girth(g)
    if profile.regular != (r, z) or gr.girth != g_target:
        raise VerificationFailedError(
            f"expected regular ({r},{z}) with girth {g_target}; "
            f"got regular={profile.regular}, girth={gr.girth}",
            profile,
            gr,
        )


def find_completion() -> list[tuple[str, int]]:
    """Scan single-offset edge families that repair the literal rules.

    Adds one extra family to the literal construction's families and
    keeps those whose result passes `verify_parameters` for (3,1) and
    girth 6.  Families tried: chords inside row 0 ({v(0,j), v(0,j+o)},
    o in 1..5) and one extra row-0-to-row-1 or row-0-to-row-2 family
    (offset 0..9).  Returns the surviving (family, offset) descriptors;
    the library pins the unique survivor ("row0_chord", 5).
    """
    literal = _families(ThreeRowRecipe(chord_offset=None))
    candidates = [("row0_chord", 0, o) for o in range(1, ROW_LENGTH // 2 + 1)]
    candidates += [("row0_row1", 1, o) for o in range(ROW_LENGTH)]
    candidates += [("row0_row2", 2, o) for o in range(ROW_LENGTH)]
    survivors = []
    for fam, row, off in candidates:
        try:
            g = _build(ROW_LENGTH, [*literal, (0, row, off)])
            verify_parameters(g, r=3, z=1, g_target=6)
        except (CollisionError, VerificationFailedError):
            continue
        survivors.append((fam, off))
    return survivors


def rotation_automorphism() -> Permutation:
    """v(i,j) -> v(i,j+1): rotates all three rows one step."""
    m = ROW_LENGTH
    image = [0] * (3 * m)
    for i in range(3):
        for j in range(m):
            image[m * i + j] = m * i + (j + 1) % m
    return Permutation(tuple(image))


def row_transposition_automorphism() -> Permutation:
    """Involution fixing row 0 and swapping rows 1 and 2 with a half turn.

    v(0,j) -> v(0,j); v(1,j) -> v(2,j+5); v(2,j) -> v(1,j+5).
    """
    m = ROW_LENGTH
    image = [0] * (3 * m)
    for j in range(m):
        image[j] = j
        image[m + j] = 2 * m + (j + 5) % m
        image[2 * m + j] = m + (j + 5) % m
    return Permutation(tuple(image))
