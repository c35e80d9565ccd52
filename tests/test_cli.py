import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidkit
from rigidkit import (Framework, framework_to_dict, load_corpus, load_framework, pin_with_permutation, rigidity_order,
                      save_framework)
from rigidkit.cli import (
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    render_json,
)
from oracles import render_json_per_item


@pytest.fixture()
def k33_file(tmp_path):
    path = tmp_path / "k33.json"
    save_framework(load_corpus("k33"), path)
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "dimension": 2,
                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "edges": [[1, 2], [2, 3], [3, 4], [4, 1]],
            },
            fh,
        )
    return str(path)


def test_analyze_human_output(k33_file, capsys):
    assert main(["analyze", k33_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rigidity order 3 (ladder)" in out
    assert "dim K = 1" in out


def test_analyze_square_reports_flex(square_file, capsys):
    assert main(["analyze", square_file, "--max-k", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no rigidity certificate up to k=10; (1,10)-flex found" in out


def test_order_json_stays_finite_up_to_the_max_k_cap(square_file, capsys):
    # the largest rhs norm at --max-k 64 is about 6.6e76, still a float
    assert main(["order", square_file, "--max-k", "64", "--json"]) == EXIT_OK

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["verdict"] == "flex-found" and len(report["residuals"]) == 63


def test_analyze_json_round_trips(k33_file, capsys):
    assert main(["analyze", k33_file, "--json"]) == EXIT_OK
    text = capsys.readouterr().out.strip()
    parsed = json.loads(text)
    assert render_json(parsed) == text
    assert parsed["verdict"]["order"] == 3
    assert parsed["dim_K"] == 1
    assert len(parsed["hash"]) == 64


def test_analyze_json_reports_kernel_split(k33_file, square_file, capsys):
    # k33 has a self-stress (SVD path); the square's rows are independent
    assert main(["analyze", k33_file, "--json"]) == EXIT_OK
    kernel = json.loads(capsys.readouterr().out)["kernel"]
    assert kernel["method"] == "svd" and kernel["rank_margin"] > 1
    assert main(["analyze", square_file, "--json"]) == EXIT_OK
    kernel = json.loads(capsys.readouterr().out)["kernel"]
    assert kernel["method"] == "qr" and kernel["rank_margin"] > 1


def test_order_json_feeds_energy_command(k33_file, tmp_path, capsys):
    assert main(["order", k33_file, "--json"]) == EXIT_OK
    report = capsys.readouterr().out
    traj_path = tmp_path / "witness.json"
    traj_path.write_text(report)
    csv_path = tmp_path / "jet.csv"
    assert main([
        "energy", k33_file, "--family", "harmonic",
        "--traj", str(traj_path), "--order", "6", "--csv", str(csv_path),
    ]) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "order,coefficient,condition"
    coeffs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(coeffs) == 7
    assert coeffs[6] > 0
    assert max(abs(c) for c in coeffs[1:6]) < 1e-8 * coeffs[6]


def test_growth_csv(k33_file, tmp_path, capsys):
    csv_path = tmp_path / "growth.csv"
    code = main([
        "growth", k33_file, "--family", "harmonic",
        "--rmin", "1e-2", "--rmax", "1e-1", "--n", "5",
        "--seed", "0", "--csv", str(csv_path),
    ])
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "r,m_r,log_r,log_m"
    assert len(lines) == 6
    out = capsys.readouterr().out
    assert "fit [harmonic]" in out


def test_growth_on_mechanism_is_numerical_failure(square_file, capsys):
    code = main(["growth", square_file, "--n", "4"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_critpoint_poly(tmp_path, capsys):
    poly = [
        {"exps": [2, 0], "coef": 1.0},
        {"exps": [1, 2], "coef": -2.0},
        {"exps": [0, 4], "coef": 2.0},
    ]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    assert main(["critpoint", "--poly", str(path)]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"] == "strict-min"
    assert rep["nullity"] == 1


def test_critpoint_framework_order(k33_file, capsys):
    assert main(["critpoint", k33_file, "--family", "harmonic", "--order", "3"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"] == "strict-min"
    assert rep["order"] == 6


def test_critpoint_second_order(k33_file, capsys):
    assert main(["critpoint", k33_file, "--family", "harmonic"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"] == "inconclusive"


def test_corpus_verify_ok(capsys):
    assert main(["corpus-verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "8/8 match" in out


def test_corpus_verify_mismatch_exit(monkeypatch, capsys):
    import rigidkit.cli as cli_mod

    tampered = dict(cli_mod.corpus_mod.EXPECTED_ORDERS)
    tampered["k33"] = 5
    monkeypatch.setattr(cli_mod.corpus_mod, "EXPECTED_ORDERS", tampered)
    assert main(["corpus-verify"]) == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/file.json"]) == EXIT_USAGE


def test_analyze_no_permute_fails_on_coned_prism(tmp_path, capsys):
    path = tmp_path / "coned.json"
    save_framework(load_corpus("coned_prism"), path)
    assert main(["analyze", str(path), "--no-permute"]) == EXIT_NUMERICAL
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pinning permutation" in out


def test_render_json_floats_17_digits():
    text = render_json({"x": 0.1})
    assert text == '{\n "x": 0.10000000000000001\n}'
    assert json.loads(text)["x"] == 0.1


CORPUS_HASHES = {
    "asym_flipped_prism": "d53d12f14001df2f929ad479d4f6dd6af6b68b5a53f799b7f1babaa839ebb29a",
    "coned_prism": "f7af953dac7bc560c924ab933addc6f8d1a94cb0abe997384d1ae66389d0168e",
    "flipped_prism": "ef430cb57aa49d7c7bf3968f7d16cc2d0d586704b50102f9db17a3891c3c50fd",
    "half_flat_prism": "e9ac4f3a6ac62cc098267d9778577efaf7beaa76ad00cd41432cb492d8bfce97",
    "k33": "61e97e073c0e3f4a12298b4bbe704a3cda13b6cb7d1c72079d11e8b80c935957",
    "leonardo3": "0db98ee9353fca74c14badce4f28be9ebeea5b7c8dc3a9817d402ba8d6d64bd6",
    "sphere_packing_1": "13f1cd930340f2c6e0669da9609a8dfbb3c70c74b6333deb16ae419f5ce06500",
    "sphere_packing_2": "0998dab83d51ea591605efc871c3752f49f6b58e164f53f82cc2d21cceb178f3",
}


def test_framework_hashes_are_pinned(tmp_path, capsys):
    for name, digest in CORPUS_HASHES.items():
        path = tmp_path / f"{name}.json"
        save_framework(load_corpus(name), path)
        assert main(["analyze", str(path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["hash"] == digest, name


def test_analyze_json_bytes_match_the_per_item_rendering(tmp_path, capsys):
    # a 30-vertex strip minus one diagonal: long lists of ints and floats
    rng = np.random.default_rng(30)
    x = np.repeat(np.arange(15, dtype=float), 2)
    x[0::2] += 0.5
    pts = np.column_stack([x, np.tile([1.0, 0.0], 15)]) + rng.uniform(-0.02, 0.02, size=(30, 2))
    edges = [(i, i + 1) for i in range(29)] + [(i, i + 2) for i in range(28)]
    edges.remove((15, 16))
    path = tmp_path / "strip.json"
    save_framework(Framework(2, pts, edges), path)
    assert main(["analyze", str(path), "--json"]) == EXIT_OK
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["hash"] == "d86c3a5830a73ab8408f165912f9288fc5dfcaa48a7767083ba87fef9e5af1ac"
    assert len(report["pinning_permutation"]) == 30 and len(report["verdict"]["residuals"]) > 1
    assert text == render_json_per_item(report) + "\n"
    fw = Framework(2, pts, edges)
    nested = {"vertices": fw.vertices, "edges": fw.edges, "flags": [True, None, 1, 2.5, "a"], "empty": []}
    assert render_json(nested) == render_json_per_item(nested)


def _strip_file(tmp_path, n: int) -> str:
    """A jittered triangulated strip on n vertices minus one diagonal, saved
    as a framework file: dim K = 1, 2n - 4 independent rows."""
    rng = np.random.default_rng(n)
    x = np.repeat(np.arange(n // 2, dtype=float), 2)
    x[0::2] += 0.5
    pts = np.column_stack([x, np.tile([1.0, 0.0], n // 2)]) + rng.uniform(-0.02, 0.02, size=(n, 2))
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    edges.remove((n // 2, n // 2 + 1))
    path = tmp_path / f"strip{n}.json"
    save_framework(Framework(2, pts, edges), path)
    return str(path)


def test_analyze_json_witness_summary_matches_the_list_round_trip(tmp_path, capsys):
    # analyze summarizes the witness from its array; the text must be byte
    # for byte what the norms of the witness's tolist() round trip print
    path = _strip_file(tmp_path, 60)
    assert main(["analyze", path, "--json"]) == EXIT_OK
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["kernel"]["method"] == "qr" and report["verdict"]["verdict"] == "flex-found"
    rep = rigidity_order(pin_with_permutation(load_framework(path))[0])
    coeffs = np.asarray(rep.witness.coeffs.tolist())
    report["verdict"]["witness_degree"] = int(coeffs.shape[0])
    report["verdict"]["witness_coeff_norms"] = np.linalg.norm(coeffs, axis=1).tolist()
    assert text == render_json(report) + "\n"
    assert "witness" not in report["verdict"]


def _run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_in_a_process(k33_file, square_file, tmp_path, capsys):
    # the parser is built once; a run of mixed calls, usage errors among
    # them, gives what the same calls give with a parser built for each
    calls = [
        ["order", k33_file, "--json"],
        ["analyze", square_file],
        ["analyze", k33_file, "--max-k", "1"],
        ["no-such-command"],
        ["order", _strip_file(tmp_path, 20), "--json", "--max-k", "5"],
        ["analyze", k33_file, "--family", "nonsense"],
        ["analyze", k33_file],
        ["order", square_file],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run_main(argv, capsys))
    build_parser.cache_clear()
    shared = [_run_main(argv, capsys) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                               EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]


def test_analyze_with_growth_summary(tmp_path, capsys):
    tri = Framework(2, np.array([[0.0, 0], [1, 0], [0.5, 1]]), [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "tri.json"
    save_framework(tri, path)
    assert main(["analyze", str(path), "--growth", "--json"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"]["order"] == 1
    assert rep["growth"]["fitted_s"] == pytest.approx(2.0, abs=0.2)


def test_analyze_json_off_dim_k_one(tmp_path, capsys):
    # a triangle is first-order rigid; a collinear midpoint on two of its
    # edges adds one first-order flex each, and the order-4 test decides
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.7, 1.6]])
    edges = [(0, 1), (1, 2), (0, 2)]
    mids = np.vstack([pts, 0.5 * (pts[0] + pts[1]), 0.5 * (pts[1] + pts[2])])
    cases = (
        (Framework(2, pts, edges), 0, 1, "first-order"),
        (Framework(2, mids, edges + [(0, 3), (1, 3), (1, 4), (2, 4)]), 2, 2, "order4-energy"),
    )
    for fw, dim_k, order, method in cases:
        path = tmp_path / "fw.json"
        save_framework(fw, path)
        assert main(["analyze", str(path), "--json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["dim_K"] == rep["verdict"]["dim_K"] == dim_k
        assert rep["verdict"]["verdict"] == "order"
        assert rep["verdict"]["order"] == order
        assert rep["verdict"]["method"] == method


def test_analyze_growth_text_output(k33_file, tmp_path, capsys):
    # the fit's line, then its notes (half_flat_prism's m(r) reach the
    # floating-point floor), in analyze --growth and in growth
    assert main(["analyze", k33_file, "--growth"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    fit = [ln for ln in lines if ln.startswith("growth fit [harmonic]: s = ")]
    assert len(fit) == 1 and "(nu = " in fit[0] and ", r2 = " in fit[0]
    assert not any(ln.startswith("  note: ") for ln in lines)
    path = tmp_path / "half_flat_prism.json"
    save_framework(load_corpus("half_flat_prism"), path)
    assert main(["analyze", str(path), "--growth"]) == EXIT_OK
    assert "\n  note: some m(r) sit at the floating-point floor" in capsys.readouterr().out
    assert main(["growth", str(path)]) == EXIT_OK
    assert "\nnote: some m(r) sit at the floating-point floor" in capsys.readouterr().out


@pytest.mark.parametrize("vertices, edges, reason", [
    pytest.param([[0, 0], [1, 0], [1, 1], [0, 1]], [[1, 2], [2, 3], [3, 4], [4, 1]], "flexible", id="square"),
    pytest.param([[0, 0]], [], "no edges", id="edgeless-one-vertex"),
    pytest.param([[0, 0], [1, 0.5]], [], "no edges", id="edgeless-two-vertices"),
])
def test_failed_growth_fit_is_reported(tmp_path, capsys, vertices, edges, reason):
    # a flexible square and a framework with no edges have no growth
    # order: growth exits 3, analyze --growth reports the failure
    path = tmp_path / "fw.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": vertices, "edges": edges}))
    assert main(["growth", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    message = err.removeprefix("numerical failure: ").strip()
    assert reason in message
    assert main(["analyze", str(path), "--growth", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["growth"] == {"error": message}
    assert main(["analyze", str(path), "--growth"]) == EXIT_OK
    assert f"growth fit: failed ({message})" in capsys.readouterr().out.splitlines()


def test_growth_deterministic_given_seed(k33_file, tmp_path):
    # k33 has dim K = 1, where the fit draws no random numbers: any seed
    # gives the same bytes
    paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
    for p, seed in zip(paths, ("7", "7", "0")):
        assert main([
            "growth", k33_file, "--rmin", "1e-2", "--rmax", "1e-1",
            "--n", "4", "--seed", seed, "--csv", str(p),
        ]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_analyze_corpus_examples(tmp_path, capsys):
    for name, phrase in (
        ("half_flat_prism", "rigidity order 4 (ladder)"),
        ("leonardo3", "rigidity order 8 (ladder)"),
    ):
        path = tmp_path / f"{name}.json"
        save_framework(load_corpus(name), path)
        assert main(["analyze", str(path)]) == EXIT_OK
        assert phrase in capsys.readouterr().out


def test_corpus_verify_detects_perturbed_framework(monkeypatch, capsys):
    # sliding asym_flipped_prism's vertex 5 by 1e-2 keeps dim K = 1 but
    # drops the order to 2, which corpus-verify must report as a mismatch
    import rigidkit.cli as cli_mod

    real_load = cli_mod.corpus_mod.load_corpus

    def tampered_load(name):
        fw = real_load(name)
        if name == "asym_flipped_prism":
            verts = fw.vertices.copy()
            verts[4, 0] += 1e-2
            fw = Framework(fw.dimension, verts, fw.edges)
        return fw

    monkeypatch.setattr(cli_mod.corpus_mod, "load_corpus", tampered_load)
    assert main(["corpus-verify"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "asym_flipped_prism: computed 2  expected 3  [MISMATCH]" in out
    assert "7/8 match" in out


def test_energy_accepts_bare_coefficient_file(k33_file, tmp_path, capsys):
    from rigidkit import kernel_decomposition, load_framework, pin, rigidity_matrix, solve_ladder

    pf, _ = pin(load_framework(k33_file))
    rep = solve_ladder(pf, kernel_decomposition(rigidity_matrix(pf)))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"coeffs": rep.witness.coeffs.tolist()}))
    assert main([
        "energy", k33_file, "--family", "algebraic",
        "--traj", str(bare), "--order", "6",
    ]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[-1].split(",")[1]) > 0


def test_growth_reports_newton_steps_and_tangent_ratio(k33_file, capsys):
    assert main(["analyze", k33_file, "--growth", "--json"]) == EXIT_OK
    block = json.loads(capsys.readouterr().out)["growth"]
    per_radius = (block["radii"], block["newton_steps"], block["tangent_grad_ratio"])
    assert [len(v) for v in per_radius] == [12, 12, 12]
    assert all(steps >= 1 for steps in block["newton_steps"])
    assert main(["growth", k33_file, "--n", "4", "--rmin", "1e-2"]) == EXIT_OK
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("r = ")]
    assert len(rows) == 4 and all("newton steps = " in ln and "|g_tan|/|g| = " in ln for ln in rows)


@pytest.fixture()
def bad_input_files(tmp_path, k33_file):
    k33 = framework_to_dict(load_corpus("k33"))
    square = {"dimension": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
              "edges": [[True, 2], [2, 3], [3, 4], [4, 1]]}
    nan_witness = rigidity_order(pin_with_permutation(load_corpus("k33"))[0]).witness.coeffs.tolist()
    nan_witness[0][0] = float("nan")
    contents = {
        "self_loop": {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "edges": [[1, 1], [2, 3]]},
        "no_edges": {"dimension": 2, "vertices": [[0, 0], [1, 0]]},
        "ragged": {"dimension": 2, "vertices": [[0, 0], [1, 0, 0], [0, 1]], "edges": [[1, 2]]},
        "text_vertex": {"dimension": 2, "vertices": [[0, 0], ["one", 0]], "edges": [[1, 2]]},
        "fraction_edge": {**k33, "edges": [[i + 0.7, j] for i, j in k33["edges"]]},
        "bool_edge": square,
        "fraction_dim": {**square, "dimension": 2.5, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "bool_dim": {"dimension": True, "vertices": [[0], [1]], "edges": [[1, 2]]},
        "short_traj": {"coeffs": [[1.0, 0.0, 0.0]]},
        "nan_traj": {"coeffs": nan_witness},
        "empty_poly": [],
        "poly_no_coef": [{"exps": [2, 0]}],
        "fraction_exp": [{"exps": [2.5], "coef": 1.0}],
        "bool_exp": [{"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": 1.0}, {"exps": [True, 1], "coef": 0.5}],
        "nan_coef": [{"exps": [2], "coef": float("nan")}],
        "inf_coef": [{"exps": [2], "coef": 1.0}, {"exps": [4], "coef": float("inf")}],
        "poly": [{"exps": [2, 0], "coef": 1.0}, {"exps": [0, 4], "coef": 1.0}],
        "no_vars": [{"exps": [], "coef": 1.0}],
    }
    paths = {"k33": k33_file}
    for name, data in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv, prefix", [
    pytest.param(["analyze", "{self_loop}"], "input error: ", id="self-loop-edge"),
    pytest.param(["analyze", "{no_edges}"], "input error: ", id="missing-edges-key"),
    pytest.param(["analyze", "{ragged}"], "input error: ", id="ragged-vertices"),
    pytest.param(["analyze", "{text_vertex}"], "input error: ", id="non-numeric-vertex"),
    pytest.param(["analyze", "{fraction_edge}"], "input error: ", id="fractional-edge-index"),
    pytest.param(["analyze", "{bool_edge}"], "input error: ", id="boolean-edge-index"),
    pytest.param(["analyze", "{fraction_dim}"], "input error: ", id="fractional-dimension"),
    pytest.param(["analyze", "{bool_dim}"], "input error: ", id="boolean-dimension"),
    pytest.param(["energy", "{k33}", "--family", "harmonic", "--traj", "{nan_traj}", "--order", "6"],
                 "input error: ", id="traj-nan-coefficient"),
    pytest.param(["energy", "{k33}", "--family", "harmonic", "--traj", "{short_traj}", "--order", "4"],
                 "input error: ", id="traj-coordinate-count"),
    pytest.param(["energy", "{k33}", "--family", "harmonic", "--traj", "{k33}", "--order", "4"],
                 "input error: ", id="traj-without-coeffs"),
    pytest.param(["critpoint", "--poly", "{empty_poly}"], "input error: ", id="empty-poly"),
    pytest.param(["critpoint", "--poly", "{poly_no_coef}"], "input error: ", id="monomial-without-coef"),
    pytest.param(["critpoint", "--poly", "{fraction_exp}"], "input error: ", id="fractional-exponent"),
    pytest.param(["critpoint", "--poly", "{bool_exp}"], "input error: ", id="boolean-exponent"),
    pytest.param(["critpoint", "--poly", "{nan_coef}"], "input error: ", id="nan-coefficient"),
    pytest.param(["critpoint", "--poly", "{inf_coef}"], "input error: ", id="infinite-coefficient"),
    pytest.param(["critpoint", "--poly", "{no_vars}"], "input error: ", id="polynomial-in-no-variables"),
    pytest.param(["analyze", "{k33}", "--max-k", "1"], "usage error: ", id="max-k-below-2"),
    pytest.param(["analyze", "{k33}", "--max-k", "65"], "usage error: ", id="max-k-above-jet-cap"),
    pytest.param(["growth", "{k33}", "--rmin", "0.2", "--rmax", "0.1"], "usage error: ", id="rmin-above-rmax"),
    pytest.param(["growth", "{k33}", "--rmax", "inf"], "usage error: ", id="rmax-infinite"),
    pytest.param(["critpoint"], "usage error: critpoint needs --poly or a framework file",
                 id="critpoint-without-target"),
    pytest.param(["critpoint", "{k33}", "--order", "1"], "usage error: ", id="order-below-2"),
    pytest.param(["critpoint", "{k33}", "--order", "33"], "usage error: ", id="order-above-jet-cap"),
    pytest.param(["critpoint", "--poly", "{poly}", "--order", "3"], "usage error: ", id="poly-with-order"),
    pytest.param(["critpoint", "{k33}", "--poly", "{poly}"], "usage error: ", id="poly-with-file"),
    pytest.param(["critpoint", "--poly", "{poly}", "--family", "lj"], "usage error: ", id="poly-with-family"),
    pytest.param(["critpoint", "--poly", "{poly}", "--family", "harmonic"], "usage error: ",
                 id="poly-with-default-family"),
    pytest.param(["analyze", "{k33}", "--tol", "-1"], "usage error: ", id="negative-tol"),
    pytest.param(["order", "{k33}", "--tol", "0"], "usage error: ", id="zero-tol"),
    pytest.param(["analyze", "{k33}", "--tol", "inf"], "usage error: ", id="infinite-tol"),
    pytest.param(["growth", "{k33}", "--n", "0"], "usage error: ", id="no-radii"),
    pytest.param(["growth", "{k33}", "--n", "1"], "usage error: ", id="one-radius"),
    pytest.param(["growth", "{k33}", "--seed", "-1"], "usage error: ", id="growth-negative-seed"),
    pytest.param(["analyze", "{k33}", "--growth", "--seed", "-3"], "usage error: ", id="analyze-negative-seed"),
    pytest.param(["energy", "{k33}", "--family", "harmonic", "--traj", "{short_traj}", "--order", "0"],
                 "usage error: ", id="energy-order-0"),
    pytest.param(["energy", "{k33}", "--family", "harmonic", "--traj", "{short_traj}", "--order", "70"],
                 "usage error: ", id="energy-order-above-jet-cap"),
])
def test_bad_input_exits_with_input_or_usage_error(bad_input_files, capsys, argv, prefix):
    # malformed files and out-of-range arguments exit 1 with a message; an
    # escaping exception would fail this test, and "numerical failure"
    # (exit 3) is kept for the computations themselves
    assert main([arg.format(**bad_input_files) for arg in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err


def test_integral_floats_are_read_as_integers(k33_file, tmp_path, capsys):
    # 3.0 and 4.0 in a framework file are the integers 3 and 4
    data = framework_to_dict(load_corpus("k33"))
    data = {**data, "dimension": float(data["dimension"]), "edges": [[float(i), j] for i, j in data["edges"]]}
    path = tmp_path / "k33_floats.json"
    path.write_text(json.dumps(data))
    assert main(["order", k33_file, "--json"]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(["order", str(path), "--json"]) == EXIT_OK
    assert capsys.readouterr().out.replace(str(path), k33_file) == want


@pytest.mark.parametrize("vertices", [
    pytest.param([[0, 0], [True, 0], [1, 1], [0, 1]], id="boolean-coordinate"),
    pytest.param([[0, 0], [1, 0], ["1", "1"], [0, 1]], id="numeric-string-coordinate"),
    pytest.param([[0, 0], [1, 0], [10**400, 1], [0, 1]], id="integer-beyond-float-range"),
])
def test_vertex_coordinates_must_be_numbers(tmp_path, capsys, vertices):
    # JSON true and "1" would read as the number 1, and this square would
    # get a verdict; an integer no float can hold would escape as an
    # OverflowError
    data = {"dimension": 2, "vertices": vertices, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("input error: ") and "rigidity order" not in out


@pytest.mark.parametrize("labels", [
    pytest.param(5, id="number-labels"),
    pytest.param("abc", id="string-labels"),
    pytest.param([1, True, None], id="non-string-labels"),
])
def test_vertex_labels_must_be_a_list_of_strings(tmp_path, capsys, labels):
    # a number escaped as a TypeError, and a string or non-string entries
    # were read as the labels "a", "b", "c" or "1", "True", "None"
    data = {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "edges": [[1, 2], [2, 3], [1, 3]],
            "labels": labels}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("input error: ") and "Traceback" not in err and "rigidity order" not in out


@pytest.mark.parametrize("kind, bad", [
    pytest.param("coef", True, id="boolean-coefficient"),
    pytest.param("coef", "1", id="numeric-string-coefficient"),
    pytest.param("traj", True, id="boolean-trajectory-entry"),
    pytest.param("traj", "0", id="numeric-string-trajectory-entry"),
])
def test_polynomial_and_trajectory_numbers_must_be_numbers(k33_file, tmp_path, capsys, kind, bad):
    # the polynomial and trajectory readers refuse what the framework reader does
    if kind == "coef":
        path = tmp_path / "poly.json"
        path.write_text(json.dumps([{"exps": [2, 0], "coef": bad}, {"exps": [0, 4], "coef": 1.0}]))
        argv = ["critpoint", "--poly", str(path)]
    else:
        coeffs = rigidity_order(pin_with_permutation(load_corpus("k33"))[0]).witness.coeffs.tolist()
        coeffs[0][0] = bad
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"coeffs": coeffs}))
        argv = ["energy", k33_file, "--family", "harmonic", "--traj", str(path), "--order", "6"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("input error: ")


TRIANGLE = ([[0, 0], [1, 0], [0, 1]], [[1, 2], [2, 3], [1, 3]])
COLLINEAR_CHAIN = ([[0, 0], [1, 0], [2, 0], [3, 0]], [[1, 2], [2, 3], [3, 4], [1, 4]])


@pytest.mark.parametrize("framework, extra", [
    pytest.param(TRIANGLE, [], id="triangle"),
    pytest.param(TRIANGLE, ["--order", "2"], id="triangle-order-2"),
    pytest.param(COLLINEAR_CHAIN, ["--order", "2"], id="dimk2-order-2"),
])
def test_critpoint_without_an_applicable_test_is_inapplicable(tmp_path, capsys, framework, extra):
    # dim K = 0 leaves no degenerate direction to test, and the order-2k
    # family test needs dim K = 1
    vertices, edges = framework
    path = tmp_path / "fw.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": vertices, "edges": edges}))
    assert main(["critpoint", str(path), *extra]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["classification"] == "inapplicable"


@pytest.mark.parametrize("extra", [[], ["--order", "2"], ["--order", "3"]], ids=["order-4", "order-2", "order-3"])
def test_critpoint_on_a_disconnected_graph_is_inapplicable(tmp_path, capsys, extra):
    # a triangle plus an isolated vertex: analyze decides flex-found by the
    # graph check, so critpoint has nothing to test either (it read
    # inconclusive with a_min 0, the isolated vertex's free directions
    # leaving mu identically zero)
    path = tmp_path / "triangle_and_vertex.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0], [0.5, 1], [3, 2]],
                                "edges": [[1, 2], [2, 3], [1, 3]]}))
    assert main(["analyze", str(path), "--json"]) == EXIT_OK
    reason = json.loads(capsys.readouterr().out)["verdict"]["reason"]
    assert reason == "the graph has 2 connected components, which move apart freely"
    assert main(["critpoint", str(path), *extra]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"classification": "inapplicable", "reason": reason}


def test_energy_refuses_a_trajectory_nested_three_deep(k33_file, tmp_path, capsys):
    # the library takes (B, degree, n_free) batches of trajectories; a
    # trajectory file holds one, so a batch never reaches the energy command
    coeffs = rigidity_order(pin_with_permutation(load_corpus("k33"))[0]).witness.coeffs.tolist()
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"coeffs": [coeffs, coeffs]}))
    argv = ["energy", k33_file, "--family", "harmonic", "--traj", str(path), "--order", "6"]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("input error: ") and "not a trajectory" in err and out == ""


def test_critpoint_order_past_the_ladder_certificate_is_inapplicable(k33_file, capsys):
    # k33 has order 3, so it has no (1,3)-flex for the order-8 family test
    assert main(["critpoint", k33_file, "--order", "4"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"classification": "inapplicable", "reason": "no (1,3)-flex exists: ladder certifies order 3"}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_ends_quietly(k33_file, unbuffered):
    # the reader is gone before anything is written, as in
    # `rigidkit analyze k33.json --json | true`: that is no input error.
    # Buffered, the pipe breaks at the final flush; unbuffered, at the write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rigidkit.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "rigidkit.cli", "analyze", k33_file, "--json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


def test_readme_command_lines_parse():
    # every `rigidkit ...` line of README's "Command line" block, with its
    # optional [ ] groups included, \ continuations joined and # comments
    # dropped, must parse: a removed option cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].replace("[", " ").replace("]", " ").split()
             for ln in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "rigidkit"]
    assert len(commands) == 8
    for argv in commands:
        build_parser().parse_args(argv)
