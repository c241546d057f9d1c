import random

import pytest

from mixedcages import (
    BadTokenError,
    MatrixHeaderWarning,
    MatrixParseError,
    NonSquareError,
    NonzeroDiagonalError,
    UnrepresentableError,
    export_dot,
    new_graph,
    read_adjacency_matrix,
    write_adjacency_matrix,
)

from conftest import random_mixed_graph


def test_symmetric_pair_is_edge():
    g = read_adjacency_matrix("0 1\n1 0")
    assert g.edges == frozenset({(0, 1)}) and not g.arcs


def test_asymmetric_entry_is_arc():
    g = read_adjacency_matrix("0 1\n0 0")
    assert g.arcs == frozenset({(0, 1)}) and not g.edges


def test_contiguous_digit_layout():
    assert read_adjacency_matrix("01\n10") == read_adjacency_matrix("0 1\n1 0")


def test_write_examples():
    assert write_adjacency_matrix(new_graph(2, edges=[(0, 1)])) == "0 1\n1 0"
    assert write_adjacency_matrix(new_graph(2, arcs=[(0, 1)])) == "0 1\n0 0"


def test_non_square_rejected():
    with pytest.raises(NonSquareError):
        read_adjacency_matrix("0 1 0\n1 0 0")
    with pytest.raises(NonSquareError):
        read_adjacency_matrix("0 1\n1 0 0\n0 0")


def test_bad_token_rejected():
    with pytest.raises(BadTokenError):
        read_adjacency_matrix("0 2\n1 0")
    with pytest.raises(BadTokenError):
        read_adjacency_matrix("header line\n0 1\n1 0")


def test_row_layouts_and_bad_token_positions():
    """Compact, space- and tab-separated rows parse alike, and a bad
    token is named, first, in the middle or last, as the first one of
    its row."""
    spaced = read_adjacency_matrix("0 1 0\n0 0 1\n1 0 0")
    assert read_adjacency_matrix("010\n001\n100") == spaced
    assert read_adjacency_matrix("0\t1\t0\n0 \t0\t 1\n1\t0\t0\n") == spaced
    cases = {
        "x 1 0\n0 0 1\n1 0 0": "bad token 'x' in row 1",
        "0 1 0\n0 2 1\n1 0 0": "bad token '2' in row 2",
        "0 1 0\n0 0 1\n1 0 01": "bad token '01' in row 3",
        "010\n0a1\n10b": "bad token 'a' in row 2",
        "010\n001\n1 0\t-": "bad token '-' in row 3",
    }
    for text, message in cases.items():
        with pytest.raises(BadTokenError) as info:
            read_adjacency_matrix(text)
        assert str(info.value) == message


def test_undecodable_bytes_rejected():
    # the same text as str has a bad token; as bytes it does not decode
    with pytest.raises(BadTokenError):
        read_adjacency_matrix("0 1\n1 \xc3")
    with pytest.raises(MatrixParseError, match="undecodable bytes"):
        read_adjacency_matrix(b"0 1\n1 \xc3")


def test_nonzero_diagonal_rejected():
    with pytest.raises(NonzeroDiagonalError):
        read_adjacency_matrix("1 0\n0 0")


def test_header_lines_are_flagged_not_silent():
    text = "n = 2\n0 1\n1 0"
    with pytest.warns(MatrixHeaderWarning):
        g = read_adjacency_matrix(text, allow_header=True)
    assert g.edges == frozenset({(0, 1)})
    # a non-row line after the matrix started is still an error
    with pytest.raises(BadTokenError):
        read_adjacency_matrix("0 1\nodd\n1 0", allow_header=True)


def test_no_rows_rejected():
    # an order-0 graph is not something a matrix file can supply
    for text in ("", "\n  \n"):
        with pytest.raises(MatrixParseError, match="no matrix rows"):
            read_adjacency_matrix(text)
    with pytest.warns(MatrixHeaderWarning):
        with pytest.raises(MatrixParseError, match="no matrix rows"):
            read_adjacency_matrix("order 2\nsize 1", allow_header=True)


def representable(g):
    """Fits the 0/1 matrix format: no girth-2 pair configurations."""
    return not any(
        (v, u) in g.arcs or g.has_edge(u, v) for u, v in g.arcs
    )


def test_round_trip_random_graphs():
    rng = random.Random(3)
    seen_unrepresentable = 0
    for _ in range(300):
        g = random_mixed_graph(rng)
        if representable(g):
            assert read_adjacency_matrix(write_adjacency_matrix(g)) == g
        else:
            seen_unrepresentable += 1
            with pytest.raises(UnrepresentableError):
                write_adjacency_matrix(g)
    assert seen_unrepresentable > 0


def test_unrepresentable_cases_are_loud():
    with pytest.raises(UnrepresentableError):
        write_adjacency_matrix(new_graph(2, arcs=[(0, 1), (1, 0)]))
    with pytest.raises(UnrepresentableError):
        write_adjacency_matrix(new_graph(2, edges=[(0, 1)], arcs=[(0, 1)]))


def test_ones_count_matches_incidences():
    rng = random.Random(5)
    for _ in range(100):
        g = random_mixed_graph(rng)
        if not representable(g):
            continue
        ones = write_adjacency_matrix(g).count("1")
        assert ones == 2 * len(g.edges) + len(g.arcs)


def test_g30_round_trip_and_golden(g30):
    text = write_adjacency_matrix(g30)
    assert read_adjacency_matrix(text) == g30
    with open("tests/golden/g30.matrix.txt") as fh:
        assert fh.read().strip() == text


def test_export_dot_empty():
    dot = export_dot(new_graph(0))
    assert dot.splitlines() == ["digraph mixed {", "}"]


def test_export_dot_single_arc():
    lines = export_dot(new_graph(2, arcs=[(0, 1)])).splitlines()
    assert "  0 -> 1;" in lines
    assert not any("dir=none" in line for line in lines)


def test_export_dot_g30_statement_counts(g30):
    lines = export_dot(g30).splitlines()
    nodes = [l for l in lines if l.strip().rstrip(";").isdigit()]
    arcs = [l for l in lines if "->" in l and "dir=none" not in l]
    edges = [l for l in lines if "dir=none" in l]
    assert len(nodes) == 30
    assert len(arcs) == 30
    # three directed 10-cycles plus 45 edges: 4 families of 10 and 5 chords
    assert len(edges) == 45


def test_export_dot_deterministic(g30):
    assert export_dot(g30) == export_dot(g30)
