"""Tests for good-labeling utilities (Section 5 data model)."""

from __future__ import annotations

from repro.core.labeling import is_good_labeling, layer_zero
from repro.graphs import cycle_graph, path_graph


def test_trivial_all_zero_is_good():
    g = path_graph(4)
    assert is_good_labeling(g, [0, 0, 0, 0])


def test_bfs_labels_are_good():
    g = path_graph(4)
    assert is_good_labeling(g, [0, 1, 2, 3])


def test_gap_is_not_good():
    g = path_graph(3)
    assert not is_good_labeling(g, [0, 2, 1])


def test_negative_or_wrong_length_rejected():
    g = path_graph(3)
    assert not is_good_labeling(g, [0, -1, 0])
    assert not is_good_labeling(g, [0, 1])


def test_layer_zero():
    assert layer_zero([0, 1, 0, 2]) == [0, 2]


def test_cycle_labeling_good():
    g = cycle_graph(6)
    labels = [0, 1, 2, 3, 2, 1]
    assert is_good_labeling(g, labels)
