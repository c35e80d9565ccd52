import json
from collections import Counter

import numpy as np
import pytest

import rigidkit.framework as framework_mod
from rigidkit import (
    DegenerateLeadingVertices,
    Framework,
    FrameworkValidationError,
    affine_span_dimension,
    framework_from_dict,
    framework_to_dict,
    load_corpus,
    load_framework,
    permute_framework,
    pin,
    pin_with_permutation,
    rigidity_matrix,
    save_framework,
)
from oracles import corpus_items, embed_tangent, sum_blocks_onto_free_by_add_at, sum_onto_free_by_add_at
from test_linear import strip_minus_edge


def test_validation_rejects_self_loop():
    with pytest.raises(FrameworkValidationError):
        Framework(2, np.zeros((2, 2)) + [[0, 0], [1, 0]], [(0, 0)])


def test_validation_rejects_duplicate_edges():
    with pytest.raises(FrameworkValidationError):
        Framework(2, np.array([[0.0, 0], [1, 0]]), [(0, 1), (1, 0)])


def test_validation_rejects_out_of_range():
    with pytest.raises(FrameworkValidationError):
        Framework(2, np.array([[0.0, 0], [1, 0]]), [(0, 2)])


def test_validation_rejects_coincident_adjacent():
    with pytest.raises(FrameworkValidationError):
        Framework(2, np.array([[0.0, 0], [0, 0]]), [(0, 1)])


def test_validation_rejects_non_finite_coordinates():
    edges = [(0, 1), (1, 2), (0, 2)]
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.array([[0.0, 0], [1, 0], [0.5, 1]])
        pts[2, 1] = bad
        with pytest.raises(FrameworkValidationError, match="vertex 2 has a non-finite"):
            Framework(2, pts, edges)
    # no edge touches the vertex, so no edge check can catch it
    with pytest.raises(FrameworkValidationError, match="vertex 1 has a non-finite"):
        Framework(2, np.array([[0.0, 0], [np.nan, 0]]), [])


_V = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

# (build, exception type, message): the constructor reads its input by the
# file loader's rules, and permute_framework takes permutations only
_REFUSALS = [
    (lambda: Framework(2, _V, [(0, 1.7), (1, 2)]), FrameworkValidationError,
     "edges must be pairs of vertex indices: 1.7 is not an integer"),
    (lambda: Framework(2, _V, [(0, True)]), FrameworkValidationError,
     "edges must be pairs of vertex indices: True is not an integer"),
    (lambda: Framework(2, _V, [("0", "1")]), FrameworkValidationError,
     "edges must be pairs of vertex indices: '0' is not an integer"),
    (lambda: Framework(2, _V, [(0, 1, 2)]), FrameworkValidationError,
     "edges must be pairs of vertex indices: too many values to unpack (expected 2)"),
    (lambda: Framework(2, _V, [0, 1]), FrameworkValidationError,
     "edges must be pairs of vertex indices: cannot unpack non-iterable int object"),
    (lambda: Framework(2, _V, np.array([[0, 1, 2]])), FrameworkValidationError,
     "edges must be pairs of vertex indices"),
    (lambda: Framework(2, [[0, 0], ["1", 0], [0, 1]], []), FrameworkValidationError,
     "malformed vertices: entries of type str are not numbers"),
    (lambda: Framework(2, [[0, 0], [True, 0], [0, 1]], []), FrameworkValidationError,
     "malformed vertices: entries of type bool are not numbers"),
    (lambda: Framework(2, np.ones((3, 2), dtype=bool), []), FrameworkValidationError,
     "malformed vertices: entries of type bool are not numbers"),
    (lambda: Framework(2, [[0, 0], [1]], []), FrameworkValidationError,
     "malformed vertices: entries of type list are not numbers"),
    (lambda: Framework(2, [[0, 0], [10**400, 0]], []), FrameworkValidationError,
     "malformed vertices: int too large to convert to float"),
    (lambda: Framework(2, np.zeros((3, 3)), []), FrameworkValidationError, "vertices must be (n, 2), got (3, 3)"),
    (lambda: Framework(2, [0.0, 1.0], []), FrameworkValidationError, "vertices must be (n, 2), got (2,)"),
    (lambda: Framework(0, np.zeros((3, 0)), []), FrameworkValidationError, "dimension must be a positive integer"),
    (lambda: Framework(2.5, _V, []), FrameworkValidationError, "dimension must be a positive integer"),
    (lambda: Framework(True, _V, []), FrameworkValidationError, "dimension must be a positive integer"),
    (lambda: Framework("2", _V, []), FrameworkValidationError, "dimension must be a positive integer"),
    (lambda: permute_framework(Framework(2, _V, [(0, 1)]), [0, 0, 1]), ValueError,
     "perm must be a permutation of 0..n-1"),
]


@pytest.mark.parametrize("build, error, message", _REFUSALS)
def test_framework_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_constructor_reads_what_the_loader_reads():
    # an integral float is an integer, as in a file; a fraction in a float
    # array of edges is refused like one in a list
    fw = Framework(2.0, np.array(_V), np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert (fw.dimension, type(fw.dimension), fw.edges) == (2, int, ((0, 1), (0, 2)))
    data = {"dimension": 2.0, "vertices": _V, "edges": [[1.0, 3.0], [2, 1]]}
    assert framework_to_dict(framework_from_dict(data)) == framework_to_dict(fw)
    with pytest.raises(FrameworkValidationError, match="^edges must be pairs of vertex indices: .*1.5.* is not an"):
        Framework(2, _V, np.array([[0.0, 1.5]]))


def test_loader_and_relabelling_arrays_are_not_scanned_again(monkeypatch):
    # the loader's float vertices and integer edges, and permute_framework's
    # arrays, go straight to the array checks: one entry scan per load
    calls = Counter()
    for name in ("_check_numbers", "_as_index_pairs"):
        def counted(rows, _name=name, _fn=getattr(framework_mod, name)):
            calls[_name] += 1
            return _fn(rows)

        monkeypatch.setattr(framework_mod, name, counted)
    fw = load_corpus("k33")
    assert dict(calls) == {"_check_numbers": 1, "_as_index_pairs": 1}
    permute_framework(fw, [3, 1, 5, 0, 2, 4])
    assert dict(calls) == {"_check_numbers": 1, "_as_index_pairs": 1}


def test_coincident_nonadjacent_allowed():
    fw = Framework(2, np.array([[0.0, 0], [1, 0], [1, 0]]), [(0, 1), (0, 2)])
    assert fw.n_vertices == 3


def test_edges_canonicalized():
    fw = Framework(2, np.array([[0.0, 0], [1, 0], [0, 1]]), [(2, 0), (1, 0)])
    assert fw.edges == ((0, 1), (0, 2))


def test_affine_span_single_point():
    assert affine_span_dimension(np.array([[1.0, 2.0, 3.0]])) == 0


def test_affine_span_general_position():
    assert affine_span_dimension(np.array([[0.0, 0], [1, 0], [0.5, 1]])) == 2


def test_affine_span_collinear():
    assert affine_span_dimension(np.array([[0.0, 0], [1, 0], [2, 0]])) == 1


def test_affine_span_half_flat_prism():
    assert affine_span_dimension(load_corpus("half_flat_prism").vertices) == 2


def test_measure_unit_segment():
    seg = Framework(2, np.array([[0.0, 0], [1, 0]]), [(0, 1)])
    assert seg.edge_lengths().tolist() == [1.0]
    assert (seg.edge_lengths() ** 2).tolist() == [1.0]


def test_measure_half_flat_prism_edge_56():
    fw = load_corpus("half_flat_prism")
    idx = fw.edges.index((4, 5))
    assert fw.edge_lengths()[idx] == pytest.approx(3.0, abs=1e-15)
    # vertices 5 and 6 sit at (-1, 0) and (2, 0)
    assert np.allclose(fw.vertices[4], [-1, 0])
    assert np.allclose(fw.vertices[5], [2, 0])


def test_pin_already_pinned_is_identity(triangle_pinned):
    pf2, iso = pin(triangle_pinned.base)
    assert np.array_equal(pf2.base.vertices, triangle_pinned.base.vertices)
    assert np.array_equal(iso.rotation, np.eye(2))
    assert np.array_equal(iso.translation, np.zeros(2))


def test_pin_idempotent(corpus_analysis):
    # re-pinning a pinned framework runs the full map, which must leave
    # every coordinate bit for bit, the sign of each zero included
    for name, item in corpus_analysis.items():
        pf = item["pf"]
        again, iso = pin(pf.base)
        assert np.array_equal(again.base.vertices, pf.base.vertices), name
        assert np.array_equal(np.signbit(again.base.vertices), np.signbit(pf.base.vertices)), name


def test_pin_recovers_rotated_triangle():
    theta = np.deg2rad(30.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    pts = np.array([[0.0, 0], [1, 0], [0.5, 1]])
    fw = Framework(2, pts @ rot.T, [(0, 1), (1, 2), (0, 2)])
    pf, iso = pin(fw)
    assert np.allclose(pf.base.vertices, pts, atol=1e-12)
    # the returned isometry maps the input onto the pinned coordinates
    assert np.allclose(iso.apply(fw.vertices), pf.base.vertices, atol=1e-12)


def test_pin_preserves_k33_lengths():
    fw = load_corpus("k33")
    pf, _ = pin(fw)
    assert np.allclose(
        pf.base.edge_lengths(), fw.edge_lengths(), atol=1e-12
    )


def test_measure_invariant_under_pin(corpus_analysis):
    for item in corpus_analysis.values():
        fw = item["framework"]
        pf, _, _ = pin_with_permutation(fw)
        before = np.sort(fw.edge_lengths())
        after = np.sort(pf.base.edge_lengths())
        assert np.allclose(before, after, atol=1e-10)


def test_pin_degenerate_leading_vertices_raises():
    # coned prism: its first four vertices are coplanar, so 3-pinning in the
    # given order must fail and auto-permutation must recover
    fw = load_corpus("coned_prism")
    with pytest.raises(DegenerateLeadingVertices):
        pin(fw)
    pf, _, perm = pin_with_permutation(fw)
    assert perm != list(range(fw.n_vertices))
    assert pf.span_dim == 3


def test_free_coordinate_count(corpus_analysis):
    for item in corpus_analysis.values():
        pf = item["pf"]
        n, d, ell = pf.base.n_vertices, pf.base.dimension, pf.span_dim
        pinned_count = d + sum(d - i for i in range(1, ell + 1))
        assert pf.n_free == n * d - pinned_count


def test_corpus_files_validate_and_span(corpus_analysis):
    for name, item in corpus_analysis.items():
        fw = item["framework"]
        assert affine_span_dimension(fw.vertices) == fw.dimension, name


def test_json_round_trip(tmp_path):
    fw = load_corpus("leonardo3")
    path = tmp_path / "leo.json"
    save_framework(fw, path)
    back = load_framework(path)
    assert back.dimension == fw.dimension
    assert back.edges == fw.edges
    assert np.array_equal(back.vertices, fw.vertices)


def test_json_edges_are_one_based(tmp_path):
    seg = Framework(2, np.array([[0.0, 0], [1, 0]]), [(0, 1)], labels=("a", "b"))
    data = framework_to_dict(seg)
    assert data["edges"] == [[1, 2]]
    assert data["labels"] == ["a", "b"]
    assert framework_from_dict(data).edges == ((0, 1),)


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0]]}))
    with pytest.raises(FrameworkValidationError):
        load_framework(path)


# the first offender is named, as the file numbers it (from 1): a
# self-loop or an out-of-range index in input order, then any duplicate,
# then coincident endpoints in canonical order; entries that are no integers, and rows that are no pairs, are
# malformed data, named in input order (vertices 4 and 5 coincide)
_LOADER_CASES = [
    ([[1, 2], [2, 9], [3, 3]], "edge (2,9) out of range for 5 vertices"),
    ([[1, 2], [3, 3], [2, 9]], "edge (3,3) connects a vertex to itself"),
    ([[0, 2]], "edge (0,2) out of range for 5 vertices"),
    ([[7, 7]], "edge (7,7) connects a vertex to itself"),
    ([[4, 5], [1, 2], [2, 1]], "duplicate edges"),
    ([[5, 4], [4, 5]], "duplicate edges"),
    ([[2, 3], [5, 4], [1, 2]], "edge (4,5) connects coincident points"),
    ([[1, 2], [2.5, 3]], "malformed framework data: 2.5 is not an integer"),
    ([[1, 2.0], [2, 3.25]], "malformed framework data: 3.25 is not an integer"),
    ([[1, 2], [True, 3]], "malformed framework data: True is not an integer"),
    ([[1, 2], ["3", 1]], "malformed framework data: '3' is not an integer"),
    ([[1, float("nan")]], "malformed framework data: nan is not an integer"),
    ([[1, 2, 3]], "malformed framework data: too many values to unpack (expected 2)"),
    ([[1], [2, 3]], "malformed framework data: not enough values to unpack (expected 2, got 1)"),
    ([[1, 2], 3], "malformed framework data: cannot unpack non-iterable int object"),
    (5, "malformed framework data: 'int' object is not iterable"),
    ([[1, 2**70]], f"edge (1,{2**70}) out of range for 5 vertices"),
    ([[1.0, 2**60 + 1]], f"edge (1,{2**60 + 1}) out of range for 5 vertices"),
]


@pytest.mark.parametrize("edges, message", _LOADER_CASES)
def test_loader_names_the_first_offending_edge(edges, message):
    data = {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [1, 1]], "edges": edges}
    with pytest.raises(FrameworkValidationError) as info:
        framework_from_dict(data)
    assert str(info.value) == message


def test_loader_names_a_non_finite_vertex_as_the_file_numbers_it():
    # JSON readers take NaN; the file's third vertex is vertex 3
    data = json.loads('{"dimension": 2, "vertices": [[0, 0], [1, 0], [NaN, 1]], "edges": [[1, 2]]}')
    with pytest.raises(FrameworkValidationError) as info:
        framework_from_dict(data)
    assert str(info.value) == "vertex 3 has a non-finite coordinate"


def test_edges_from_arrays_lists_and_integral_floats_agree():
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
    pairs = [(3, 1), (0, 1), (2, 0), (1, 2)]
    want = ((0, 1), (0, 2), (1, 2), (1, 3))
    for edges in (pairs, np.array(pairs), np.array(pairs, dtype=float), np.array(pairs).astype(np.int32)):
        fw = Framework(2, pts, edges)
        assert fw.edges == want and all(type(i) is int for e in fw.edges for i in e)
        assert [tuple(e) for e in np.column_stack(fw.edge_index_arrays()).tolist()] == list(want)
    data = {"dimension": 2, "vertices": pts.tolist(), "edges": [[4.0, 2], [1, 2], [3, 1], [2, 3]]}
    assert framework_from_dict(data).edges == want
    assert framework_from_dict({**data, "edges": []}).edges == ()
    # pinning and relabelling rebuild the framework from its endpoint arrays
    pf, _ = pin(Framework(2, pts, pairs))
    assert pf.base.edges == want
    perm = [2, 0, 3, 1]
    relabelled = permute_framework(Framework(2, pts, pairs), perm)
    inv = np.argsort(perm)
    assert relabelled.edges == tuple(sorted(tuple(sorted((int(inv[i]), int(inv[j])))) for i, j in want))


def test_permute_framework_round_trip():
    fw = load_corpus("k33")
    perm = [3, 1, 5, 0, 2, 4]
    pfw = permute_framework(fw, perm)
    assert sorted(np.sort(pfw.edge_lengths())) == pytest.approx(
        sorted(np.sort(fw.edge_lengths()))
    )
    inv = [perm.index(v) for v in range(6)]
    back = permute_framework(pfw, inv)
    assert np.array_equal(back.vertices, fw.vertices)
    assert back.edges == fw.edges


def test_corpus_has_eight_frameworks():
    names = [name for name, _, _ in corpus_items()]
    assert len(names) == 8


def test_planar_framework_in_three_dimensions():
    # a triangle living in a 2-plane of R^3: pinning uses span 2, the free
    # coordinates collapse to the planar ones, and the order is 1
    from rigidkit import kernel_decomposition, rigidity_matrix, rigidity_order

    tri3 = Framework(
        3,
        np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 2.0], [1.5, 2.5, 1.5]]),
        [(0, 1), (1, 2), (0, 2)],
    )
    pf, iso = pin(tri3)
    assert pf.span_dim == 2
    assert pf.n_free == 3
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 0
    rep = rigidity_order(pf)
    assert (rep.verdict, rep.order) == ("order", 1)


def _pinned_3d():
    # K6 in general position in R^3: vertex 0 has all three coordinates
    # pinned, vertex 1 two and vertex 2 one
    pts = np.random.default_rng(3).standard_normal((6, 3))
    pf, _ = pin(Framework(3, pts, [(i, j) for i in range(6) for j in range(i + 1, 6)]))
    assert pf.span_dim == 3 and pf.n_free == 18 - 6
    return pf


def test_edge_differences_give_the_rigidity_matrix_product(corpus_analysis):
    # row vw of R holds p_v - p_w at v's free coordinates and its negative
    # at w's, so R x is each edge vector dotted with x_v - x_w, to rounding;
    # the differences read 0 at pinned coordinates, and a batch of columns
    # is the columns taken one at a time
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for pf in [item["pf"] for item in corpus_analysis.values()] + [_pinned_3d()]:
        x = rng.standard_normal((pf.n_free, 3))
        diffs = pf.edge_differences(x)
        assert diffs.shape == (pf.base.n_edges, pf.dimension, 3)
        mat = rigidity_matrix(pf)
        got = np.einsum("ed,edb->eb", pf.base.edge_vectors(), diffs)
        assert np.all(np.abs(got - mat @ x) <= 8 * eps * (np.abs(mat) @ np.abs(x)))
        ev, ew = pf.base.edge_index_arrays()
        for b in range(3):
            full = embed_tangent(pf, x[:, b])
            assert np.array_equal(pf.edge_differences(x[:, b]), full[ev] - full[ew])
            assert np.array_equal(diffs[..., b], full[ev] - full[ew])


def _pinned_below_its_dimension():
    # K5 and an isolated vertex on a tilted plane of R^3: span 2 < 3, so
    # vertices past the third keep a free coordinate off the plane, and the
    # isolated vertex's three coordinates are touched by no edge
    rng = np.random.default_rng(5)
    plane = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]
    pts = rng.standard_normal((6, 2)) @ plane.T + rng.standard_normal(3)
    pf, _ = pin(Framework(3, pts, [(i, j) for i in range(5) for j in range(i + 1, 5)]))
    assert pf.span_dim == 2 and pf.n_free == 18 - 6
    return pf


def _scatter_cases(corpus_analysis):
    return [item["pf"] for item in corpus_analysis.values()] + [_pinned_3d(), _pinned_below_its_dimension()]


def test_sum_onto_free_is_the_adjoint_of_edge_differences(corpus_analysis):
    # <edge_differences(x), rows> = <x, sum_onto_free(rows)> to rounding,
    # for one column and for a batch of them
    rng = np.random.default_rng(9)
    eps = np.finfo(float).eps
    for pf in _scatter_cases(corpus_analysis):
        for tail in ((), (4,)):
            x = rng.standard_normal((pf.n_free,) + tail)
            rows = rng.standard_normal((pf.base.n_edges, pf.dimension) + tail)
            summed = pf.sum_onto_free(rows)
            assert summed.shape == x.shape
            diffs = pf.edge_differences(x)
            lhs = np.einsum("ed...,ed...->...", diffs, rows)
            rhs = np.einsum("i...,i...->...", x, summed)
            scale = np.einsum("ed...,ed...->...", np.abs(diffs), np.abs(rows))
            assert np.all(np.abs(lhs - rhs) <= 64 * eps * scale)


def test_sum_blocks_onto_free_gives_the_edge_quadratic_form(corpus_analysis):
    # x' H x = sum_e X_e' M_e X_e for H the sum of the blocks M_e and X the
    # edge differences of x, with each row of a batch of blocks its own H;
    # coordinates no edge touches get zero rows and columns
    rng = np.random.default_rng(10)
    eps = np.finfo(float).eps
    for pf in _scatter_cases(corpus_analysis):
        d = pf.dimension
        blocks = rng.standard_normal((3, pf.base.n_edges, d, d))
        hess = pf.sum_blocks_onto_free(blocks)
        assert hess.shape == (3, pf.n_free, pf.n_free)
        x = rng.standard_normal(pf.n_free)
        diffs = pf.edge_differences(x)
        want = np.einsum("ea,neab,eb->n", diffs, blocks, diffs)
        scale = np.einsum("ea,neab,eb->n", np.abs(diffs), np.abs(blocks), np.abs(diffs))
        got = np.einsum("i,nij,j->n", x, hess, x)
        assert np.all(np.abs(got - want) <= 64 * eps * (scale + np.abs(x) @ np.abs(hess) @ np.abs(x)))
        touched = np.isin(pf.free_vertex, pf.base.edge_index_arrays())
        assert not hess[:, ~touched].any() and not hess[:, :, ~touched].any()


def _summation_cases(corpus_analysis):
    return [item["pf"] for item in corpus_analysis.values()] + [strip_minus_edge(600, seed=600)]


def test_sum_onto_free_adds_left_to_right_in_edge_order(corpus_analysis):
    # bit for bit the np.add.at sum: first endpoints in canonical edge
    # order, then second ones, for a column, a batch, and a batch of jets
    # passed as a transposed view, as gradient_along_trajectory passes them
    rng = np.random.default_rng(12)
    for pf in _summation_cases(corpus_analysis):
        shape = (pf.base.n_edges, pf.dimension)
        jets = rng.standard_normal((6,) + shape + (5,)).transpose(1, 2, 0, 3)
        for rows in (rng.standard_normal(shape), rng.standard_normal(shape + (6,)), jets):
            summed = pf.sum_onto_free(rows)
            assert summed.shape == (pf.n_free,) + rows.shape[2:]
            assert np.array_equal(summed, sum_onto_free_by_add_at(pf, rows))


def test_sum_blocks_onto_free_adds_left_to_right_in_edge_order(corpus_analysis):
    rng = np.random.default_rng(13)
    for pf in _summation_cases(corpus_analysis):
        blocks = rng.standard_normal((2, pf.base.n_edges, pf.dimension, pf.dimension))
        assert np.array_equal(pf.sum_blocks_onto_free(blocks), sum_blocks_onto_free_by_add_at(pf, blocks))

