"""A graph with more than one connected component is flexible: the graph
check decides it before any ladder or energy numerics."""

import json

import numpy as np
import pytest

from rigidkit import Framework, pin_with_permutation, rigidity_order, save_framework
from rigidkit.cli import main
from rigidkit.ladder import _component_count
from oracles import component_count_by_union_find


def _triangle_plus_isolated_vertex():
    return Framework(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [3.0, 2.0]]),
                     [(0, 1), (1, 2), (0, 2)])


def _two_triangles():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [3.0, 2.0], [4.0, 2.0], [3.5, 3.2]])
    return Framework(2, pts, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.mark.parametrize("build, dim_k, parts", [
    (_triangle_plus_isolated_vertex, 2, 2),
    (_two_triangles, 3, 2),
])
def test_disconnected_graph_is_flex_found(build, dim_k, parts):
    pf, _, _ = pin_with_permutation(build())
    rep = rigidity_order(pf)
    assert (rep.verdict, rep.method, rep.dim_K) == ("flex-found", "graph", dim_k)
    assert f"{parts} connected components" in rep.reason
    assert rep.summary() == f"flexible: {rep.reason}"
    assert rep.order is None and rep.witness is None


def test_three_components_are_counted():
    fw = Framework(3, np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]), [(0, 1)])
    pf, _, _ = pin_with_permutation(fw)
    rep = rigidity_order(pf)
    assert rep.method == "graph" and "3 connected components" in rep.reason


def test_analyze_json_reports_graph_verdict(tmp_path, capsys):
    path = tmp_path / "two_triangles.json"
    save_framework(_two_triangles(), path)
    assert main(["analyze", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    verdict = out["verdict"]
    assert (verdict["verdict"], verdict["method"], verdict["dim_K"]) == ("flex-found", "graph", 3)
    assert "2 connected components" in verdict["reason"]
    assert out["dim_K"] == 3


def _random_graph(rng):
    # up to 40 vertices, sparse enough that some stay isolated
    n = int(rng.integers(2, 41))
    pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(int(rng.integers(0, n + 1)))}
    return Framework(2, rng.standard_normal((n, 2)), sorted(pairs))


def test_component_count_matches_union_find():
    rng = np.random.default_rng(21)
    graphs = [_random_graph(rng) for _ in range(300)]
    assert sum(fw.n_vertices - len({v for e in fw.edges for v in e}) > 0 for fw in graphs) >= 100
    # a 600-vertex path, in order and with its vertices shuffled
    perm = rng.permutation(600)
    for order in (np.arange(600), perm):
        graphs.append(Framework(2, rng.standard_normal((600, 2)), [(int(order[i]), int(order[i + 1]))
                                                                 for i in range(599)]))
    for fw in graphs:
        assert _component_count(fw) == component_count_by_union_find(fw.n_vertices, fw.edges)
    assert _component_count(graphs[-1]) == 1
