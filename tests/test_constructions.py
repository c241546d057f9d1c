from dataclasses import dataclass
from itertools import product

import pytest

from mixedcages import (
    CollisionError,
    ThreeRowRecipe,
    VerificationFailedError,
    apply_permutation,
    build_three_row,
    degree_profile,
    find_completion,
    g30_recipe,
    girth,
    rotation_automorphism,
    row_transposition_automorphism,
)
from mixedcages.constructions import (
    CHORD_OFFSET,
    ROW_LENGTH,
    _build,
    _families,
    build_g30_literal,
    verify_parameters,
)
from mixedcages.graphs import MixedGraph, Pair, new_graph

from conftest import check_result_record


def test_build_g30_parameters(g30):
    assert g30.n == 30
    assert len(g30.arcs) == 30  # three directed 10-cycles
    assert len(g30.edges) == 45  # four cross families of 10 plus 5 chords
    assert degree_profile(g30).regular == (3, 1)
    assert girth(g30).girth == 6


def test_literal_rules_fail_the_gate():
    literal = build_g30_literal()
    profile = degree_profile(literal)
    # the four cross-row families leave row 0 at edge-degree 2
    assert profile.deg[:10] == (2,) * 10
    assert profile.deg[10:] == (3,) * 20
    assert profile.regular is None
    with pytest.raises(VerificationFailedError) as exc:
        verify_parameters(literal, r=3, z=1, g_target=6)
    assert exc.value.profile.regular is None


@pytest.mark.parametrize("g_target", [3, 5, 7])
def test_verify_parameters_needs_the_exact_girth(g30, g_target):
    with pytest.raises(VerificationFailedError) as exc:
        verify_parameters(g30, r=3, z=1, g_target=g_target)
    assert exc.value.girth_result.girth == 6


def test_completion_search_finds_unique_repair():
    assert find_completion() == [("row0_chord", 5)]


def test_recipe_reproduces_g30(g30):
    assert build_three_row(g30_recipe()) == g30


def test_coinciding_upper_families_collide():
    with pytest.raises(CollisionError):
        build_three_row(ThreeRowRecipe(upper_offsets=(2, 2)))


def test_chord_offset_zero_rejected():
    with pytest.raises(ValueError):
        build_three_row(ThreeRowRecipe(chord_offset=10))  # 10 mod 10 == 0


def test_row_length_floor():
    with pytest.raises(ValueError):
        build_three_row(ThreeRowRecipe(m=2))


def test_wider_variant_measured():
    # m=12 with the mirrored offsets: parameters measured, then frozen
    recipe = ThreeRowRecipe(
        m=12, cross_offset=6, upper_offsets=(2, -2), chord_offset=6
    )
    g = build_three_row(recipe)
    assert g.n == 36
    assert degree_profile(g).regular == (3, 1)
    assert girth(g).girth == 5


def test_rotation_symmetry(g30):
    rho = rotation_automorphism()
    assert apply_permutation(g30, rho) == g30
    assert rho.order() == 10


def test_row_transposition_symmetry(g30):
    tau = row_transposition_automorphism()
    assert apply_permutation(g30, tau) == g30
    assert tau.order() == 2
    assert (tau @ tau).is_identity()


def test_generators_commute():
    rho = rotation_automorphism()
    tau = row_transposition_automorphism()
    assert rho @ tau == tau @ rho


def test_gate_runs_on_every_build():
    # build_g30 re-verifies; a sabotaged recipe must raise, not return
    bad = ThreeRowRecipe(chord_offset=4)
    with pytest.raises((VerificationFailedError, CollisionError)):
        verify_parameters(build_three_row(bad), r=3, z=1, g_target=6)


# ---------------------------------------------------------------------------
# reference oracle: the recipe builder and the completion scan's extra
# family as they were before both went through one family builder


@dataclass(frozen=True)
class _ReferenceRecipe:
    m: int = ROW_LENGTH
    arc_rows: tuple[int, ...] = (0, 1, 2)
    pair_offset: int = 0
    cross_offset: int = 5
    upper_offsets: tuple[int, int] = (2, -2)
    chord_offset: int | None = CHORD_OFFSET

    def vertex(self, i: int, j: int) -> int:
        return self.m * i + (j % self.m)


def _reference_build_three_row(recipe: _ReferenceRecipe) -> MixedGraph:
    m = recipe.m
    if m < 3:
        raise ValueError(f"row length must be >= 3, got {m}")
    arcs = []
    for i in recipe.arc_rows:
        for j in range(m):
            arcs.append((recipe.vertex(i, j), recipe.vertex(i, j + 1)))
    families: list[set[Pair]] = []
    families.append(
        {
            _norm(recipe.vertex(0, j), recipe.vertex(1, j + recipe.pair_offset))
            for j in range(m)
        }
    )
    families.append(
        {
            _norm(recipe.vertex(0, j), recipe.vertex(2, j + recipe.cross_offset))
            for j in range(m)
        }
    )
    for off in recipe.upper_offsets:
        families.append(
            {
                _norm(recipe.vertex(1, j), recipe.vertex(2, j + off))
                for j in range(m)
            }
        )
    if recipe.chord_offset is not None:
        off = recipe.chord_offset % m
        if off == 0:
            raise ValueError("chord offset 0 would create self-loops")
        families.append(
            {
                _norm(recipe.vertex(0, j), recipe.vertex(0, j + off))
                for j in range(m)
            }
        )
    edges: set[Pair] = set()
    for fam in families:
        overlap = edges & fam
        if overlap:
            raise CollisionError(
                f"edge families collide on {sorted(overlap)[:3]}"
            )
        edges |= fam
    return new_graph(3 * m, sorted(edges), arcs)


def _norm(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def _with_extra_family(base: MixedGraph, fam: str, off: int) -> MixedGraph:
    m = ROW_LENGTH
    extra: set[Pair] = set()
    for j in range(m):
        if fam == "row0_chord":
            if off % m == 0:
                raise ValueError("offset 0 is a self-loop")
            extra.add(_norm(j, (j + off) % m))
        elif fam == "row0_row1":
            extra.add(_norm(j, m + (j + off) % m))
        elif fam == "row0_row2":
            extra.add(_norm(j, 2 * m + (j + off) % m))
        else:
            raise ValueError(f"unknown family {fam!r}")
    overlap = base.edges & frozenset(extra)
    if overlap:
        raise CollisionError(f"extra family collides on {sorted(overlap)[:3]}")
    return new_graph(base.n, sorted(base.edges | extra), base.sorted_arcs())


def _outcome(build, *args):
    """The built graph, or the class of the exception the build raised."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc)


def test_builder_matches_reference_on_every_recipe():
    # every m in 3..12, and 2 below the floor, with every cross, upper
    # and chord offset mod m: valid graphs, collisions and self-loops
    outcomes = set()
    for m in range(2, 13):
        offsets = range(m)
        for cross, up1, up2, chord in product(
            offsets, offsets, offsets, [None, *offsets]
        ):
            fields = dict(m=m, cross_offset=cross, upper_offsets=(up1, up2),
                          chord_offset=chord)
            new = _outcome(build_three_row, ThreeRowRecipe(**fields))
            assert new == _outcome(
                _reference_build_three_row, _ReferenceRecipe(**fields)
            ), fields
            outcomes.add(new if isinstance(new, type) else MixedGraph)
    assert outcomes == {MixedGraph, CollisionError, ValueError}


def test_completion_candidates_match_reference():
    # every offset of the three extra families find_completion tries
    # (a superset of its candidates), built through the shared builder
    literal = _families(ThreeRowRecipe(chord_offset=None))
    base = _reference_build_three_row(_ReferenceRecipe(chord_offset=None))
    for (fam, row), off in product(
        [("row0_chord", 0), ("row0_row1", 1), ("row0_row2", 2)],
        range(ROW_LENGTH),
    ):
        new = _outcome(_build, ROW_LENGTH, [*literal, (0, row, off)])
        assert new == _outcome(_with_extra_family, base, fam, off), (fam, off)


def test_recipe_is_an_immutable_tuple():
    check_result_record(ThreeRowRecipe(chord_offset=None), (
        f"ThreeRowRecipe(m={ROW_LENGTH}, cross_offset=5, "
        "upper_offsets=(2, -2), chord_offset=None)"))
    assert ThreeRowRecipe().chord_offset == CHORD_OFFSET
