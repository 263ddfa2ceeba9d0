"""Interconnect topology tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.topology import (
    Interconnect,
    full_topology,
    mesh_plus_topology,
    mesh_topology,
)


def test_mesh_4x4_neighbour_edges():
    ic = mesh_topology(4, 4)
    # Unit 5 (row 1, col 1) has 4 neighbours + itself.
    assert ic.predecessors(5) == [1, 4, 5, 6, 9]
    # Corner unit 0 has 2 neighbours + itself.
    assert ic.predecessors(0) == [0, 1, 4]


def test_mesh_is_symmetric():
    ic = mesh_topology(3, 5)
    for src, dst in ic.edges:
        assert ic.connected(dst, src)


def test_self_loop_implicit():
    ic = mesh_topology(2, 2)
    for u in range(4):
        assert ic.connected(u, u)
        assert u in ic.predecessors(u)


def test_mesh_plus_includes_row_column_buses_and_diagonals():
    ic = mesh_plus_topology(4, 4)
    # Same row, non-adjacent.
    assert ic.connected(0, 3)
    # Same column, non-adjacent.
    assert ic.connected(0, 12)
    # Diagonal.
    assert ic.connected(0, 5)
    # Not connected: different row, column, and not diagonal neighbours.
    assert not ic.connected(0, 6)


def test_mesh_plus_is_denser_than_mesh():
    assert mesh_plus_topology(4, 4).wire_count > mesh_topology(4, 4).wire_count


def test_full_topology_connects_everything():
    ic = full_topology(16)
    for u in range(16):
        for v in range(16):
            assert ic.connected(u, v)
    assert ic.wire_count == 16 * 15


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Interconnect(4, frozenset({(0, 7)}))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_successor_predecessor_duality(rows, cols):
    ic = mesh_plus_topology(rows, cols)
    for u in range(ic.n_units):
        for v in ic.successors(u):
            assert u in ic.predecessors(v)


def test_degree_histogram_counts_all_units():
    ic = mesh_plus_topology(4, 4)
    hist = ic.degree_histogram()
    assert sum(hist.values()) == 16
    # Dense interconnect: every unit sees at least 9 inputs (8-neighbourhood
    # can overlap with buses; all units see >= 9 due to row+col buses + self).
    assert min(hist) >= 7


def test_neighbour_lists_are_fresh_copies():
    """The lists are precomputed per interconnect; a caller mutating the
    one it got must not change what the next caller sees."""
    ic = mesh_topology(4, 4)
    succs = ic.successors(5)
    preds = ic.predecessors(5)
    succs.append(99)
    preds.clear()
    assert ic.successors(5) == [1, 4, 5, 6, 9]
    assert ic.predecessors(5) == [1, 4, 5, 6, 9]
    assert ic.successors(5) is not ic.successors(5)


def test_neighbour_lists_match_edges():
    ic = mesh_plus_topology(3, 4)
    for u in range(ic.n_units):
        assert ic.successors(u) == sorted({v for s, v in ic.edges if s == u} | {u})
        assert ic.predecessors(u) == sorted({s for s, v in ic.edges if v == u} | {u})
