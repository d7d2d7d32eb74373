from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import shlex
import sys
import tracemalloc

import numpy as np
import pytest

from glwalk import (
    ConvergenceError,
    Generalized,
    eigendecompose,
    from_edge_list,
    hamiltonian_matrix,
    pair_spectrum,
    path_graph,
    cospectrality,
    to_edge_list,
    two_level_candidate_time,
    verify_involution,
)
import glwalk.bounds
import glwalk.cli
import glwalk.cospectral
import glwalk.dynamics
import glwalk.spectral
from glwalk.cli import main
from generators import PATH6_RELABELLED, late_divergence_graph, relabelled
from oracles import walk_count_oracle


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fidelity_csv_shape(capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "fidelity", "--graph", "path:6", "--model", "adjacency",
        "--u", "0", "--v", "5", "--tmax", "50", "--samples", "5001",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "t,probability"
    assert len(lines) == 5002
    first_t, first_p = lines[1].split(",")
    assert float(first_t) == 0.0 and float(first_p) <= 1e-12
    assert out.endswith("\n")


def test_fidelity_generalized_zero_equals_adjacency(capsys) -> None:
    args = ["--graph", "path:6", "--u", "0", "--v", "5", "--tmax", "40", "--samples", "2001"]
    _, out_adj, _ = run_cli(capsys, "fidelity", "--model", "adjacency", *args)
    _, out_gen, _ = run_cli(capsys, "fidelity", "--model", "generalized:0", *args)
    assert out_adj == out_gen


def test_fidelity_generalized_143_peaks_high(capsys) -> None:
    dec = eigendecompose(hamiltonian_matrix(Generalized(143.0), path_graph(6)))
    t_star = two_level_candidate_time(pair_spectrum(dec, 0, 5))
    code, out, _ = run_cli(
        capsys,
        "fidelity", "--graph", "path:6", "--model", "generalized:143",
        "--u", "0", "--v", "5", "--tmax", str(2.0 * t_star), "--samples", "4001",
    )
    assert code == 0
    probs = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert max(probs) >= 0.81


def test_fidelity_deterministic(capsys) -> None:
    args = [
        "fidelity", "--graph", "bipartite:2,4", "--model", "generalized:7.5",
        "--u", "0", "--v", "1", "--tmax", "30", "--samples", "501",
    ]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_peak_p2(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "peak", "--graph", "path:2", "--model", "adjacency", "--u", "0", "--v", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert report["t_star"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert report["probability"] == report["fidelity"] ** 2
    assert report["cospectrality_order"] == "infinite"
    assert list(report) == [
        "schema_version", "graph", "model", "u", "v", "fidelity", "probability",
        "t_star", "method", "threshold", "cospectrality_order", "sign_pattern",
        "localization_mass_top_groups",
    ]


def test_peak_generalized_143(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "peak", "--graph", "path:6", "--model", "generalized:143", "--u", "0", "--v", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] >= 0.9
    assert report["threshold"]["k_min"] == pytest.approx(143.108, abs=1e-3)
    assert report["t_star"] < report["threshold"]["t_bound"]


@pytest.mark.parametrize("model", ["generalized:143", "generalized:-1.5e2"])
def test_peak_mirror_pair_sign_pattern_has_no_false_mixed(capsys, model) -> None:
    # the reversal makes every eigenvector of H even or odd, so a group is mixed
    # only if it holds an eigenvalue of both sectors; float64 eigenvectors of
    # the full H mix the localized pair, 5e-9 apart here, at about 1e-5
    code, out, _ = run_cli(capsys, "peak", "--graph", "path:6", "--model", model, "--u", "0", "--v", "5")
    assert code == 0
    signs = json.loads(out)["sign_pattern"]
    assert "mixed" not in signs
    assert signs == ["plus", "minus"] * 3


def test_peak_laplacian_below_tuned(capsys) -> None:
    _, out_lap, _ = run_cli(
        capsys, "peak", "--graph", "path:6", "--model", "laplacian", "--u", "0", "--v", "5",
        "--strategy", "grid", "--tmax", "200", "--samples", "100001",
    )
    _, out_gen, _ = run_cli(
        capsys, "peak", "--graph", "path:6", "--model", "generalized:143", "--u", "0", "--v", "5"
    )
    assert json.loads(out_lap)["fidelity"] < json.loads(out_gen)["fidelity"]


def test_peak_degenerate_gap_is_structured_error(capsys, tmp_path) -> None:
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("n=3\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "peak", "--graph", f"file:{edgeless}", "--model", "adjacency", "--u", "0", "--v", "1"
    )
    assert code == 3
    assert out == ""
    error = json.loads(err)
    assert error["error"]["type"] == "degenerate-gap"
    assert "\n" not in err.strip()


def test_sweep_single_row(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "--graph", "path:6", "--u", "0", "--v", "5",
        "--kmin", "143", "--kmax", "143", "--steps", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,fidelity,t_star"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) >= 0.9


def test_sweep_fidelity_nondecreasing_over_named_ks(capsys) -> None:
    fidelities = []
    for k in ("0", "50", "143"):
        _, out, _ = run_cli(
            capsys, "sweep", "--graph", "path:6", "--u", "0", "--v", "5",
            "--kmin", k, "--kmax", k, "--steps", "1",
        )
        fidelities.append(float(out.splitlines()[1].split(",")[1]))
    assert fidelities[0] <= fidelities[1] <= fidelities[2]


def test_sweep_threshold_marker(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "--graph", "path:6", "--u", "0", "--v", "5",
        "--kmin", "140", "--kmax", "146", "--steps", "4", "--epsilon", "0.1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,fidelity,t_star,crosses_threshold"
    markers = [int(line.split(",")[3]) for line in lines[1:]]
    assert markers == [0, 0, 1, 0]  # k = 140, 142, 144, 146 vs k_min = 143.108


def test_sweep_structure_error_when_threshold_requested(capsys) -> None:
    code, _, err = run_cli(
        capsys, "sweep", "--graph", "bipartite:2,4", "--u", "0", "--v", "2",
        "--kmin", "0", "--kmax", "10", "--steps", "2", "--threshold",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"

    # same request through an explicit epsilon
    code, _, err = run_cli(
        capsys, "sweep", "--graph", "bipartite:2,4", "--u", "0", "--v", "2",
        "--kmin", "0", "--kmax", "10", "--steps", "2", "--epsilon", "0.1",
    )
    assert code == 2


def _fail_if_called(*args, **kwargs):
    raise AssertionError("walk counts were computed")


def test_sweep_checks_steps_before_counting_walks(capsys, monkeypatch) -> None:
    # --steps is rejected before the threshold counts walks on path:200 to length 199
    monkeypatch.setattr(glwalk.bounds, "cospectrality", _fail_if_called)
    code, out, err = run_cli(
        capsys, "sweep", "--graph", "path:200", "--u", "0", "--v", "199",
        "--kmin", "1", "--kmax", "2", "--steps", "0", "--epsilon", "0.1",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_bound_path6(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "bound", "--graph", "path:6", "--u", "0", "--v", "5", "--epsilon", "0.1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["k_min"] == pytest.approx(143.108, abs=1e-3)
    assert report["cospectrality_order"] == "infinite"
    assert report["distance"] == 5
    assert report["max_degree"] == 2


def test_bound_bipartite(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "bound", "--graph", "bipartite:2,4", "--u", "0", "--v", "1", "--epsilon", "0.1"
    )
    assert code == 0
    assert json.loads(out)["k_min"] == pytest.approx(202.39, abs=1e-2)


def test_bound_infinite_readout_time(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "bound", "--graph", "path:40", "--u", "0", "--v", "39", "--epsilon", "1e-30"
    )
    assert code == 0
    report = json.loads(out)
    assert report["t_bound"] == "infinite"
    assert report["k_min"] == pytest.approx(16.0 * 2.0**1.5 * 1e15, rel=1e-12)


def test_peak_infinite_readout_time(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "peak", "--graph", "path:6", "--model", "adjacency", "--u", "0", "--v", "5",
        "--epsilon", "1e-300",
    )
    assert code == 0
    report = json.loads(out)
    assert report["threshold"]["t_bound"] == "infinite"
    assert report["threshold"]["k_min"] == pytest.approx(16.0 * 2.0**1.5 * 1e150, rel=1e-12)
    assert report["fidelity"] == pytest.approx(0.95477, abs=1e-5)


def test_sweep_infinite_readout_time(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "--graph", "path:40", "--u", "0", "--v", "39",
        "--kmin", "1", "--kmax", "2", "--steps", "2", "--epsilon", "1e-30", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["k_min_threshold"] == pytest.approx(16.0 * 2.0**1.5 * 1e15, rel=1e-12)
    assert [row["crosses_threshold"] for row in report["rows"]] == [0, 0]


#: two degree classes; the pair (3, 5) has cospectrality order = distance = 3, so
#: q_min = 16 * 3^4 / epsilon
TWO_CLASS_ORDER_EQUALS_DISTANCE = "n=8\n0 2\n0 4\n0 5\n1 5\n1 6\n1 7\n2 4\n2 6\n3 6\n3 7\n4 7\n"


def _strict_json(text: str) -> dict:
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("epsilon", ["5e-324", "1e-306"])
def test_threshold_beyond_float_range_prints_infinite(capsys, tmp_path, epsilon) -> None:
    doc = tmp_path / "graph.txt"
    doc.write_text(TWO_CLASS_ORDER_EQUALS_DISTANCE, encoding="utf-8")
    pair = ["--graph", f"file:{doc}", "--u", "3", "--v", "5", "--epsilon", epsilon]

    code, out, _ = run_cli(capsys, "bound", *pair)
    assert code == 0
    report = _strict_json(out)
    assert (report["q_min"], report["k_min"], report["t_bound"]) == ("infinite",) * 3
    assert report["cospectrality_order"] == report["distance"] == 3

    code, out, _ = run_cli(capsys, "peak", "--model", "adjacency", *pair)
    assert code == 0
    report = _strict_json(out)
    assert report["threshold"]["q_min"] == report["threshold"]["k_min"] == "infinite"
    assert 0.0 < report["fidelity"] <= 1.0
    assert report["cospectrality_order"] == 3

    code, out, _ = run_cli(capsys, "sweep", "--kmin", "1", "--kmax", "2", "--steps", "2", "--json", *pair)
    assert code == 0
    report = _strict_json(out)
    assert report["k_min_threshold"] == "infinite"
    assert [row["crosses_threshold"] for row in report["rows"]] == [0, 0]


def test_analyze_decomposes_the_adjacency_matrix_once(capsys, monkeypatch) -> None:
    calls = []

    def counted(h):
        calls.append(h.shape)
        return eigendecompose(h)

    monkeypatch.setattr(glwalk.cli, "eigendecompose", counted)
    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", counted)
    for graph, v, order in (("path:6", "5", "infinite"), ("path:4", "1", 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, "analyze", "--graph", graph, "--u", "0", "--v", v)
        assert code == 0
        assert json.loads(out)["cospectrality_order"] == order
        assert len(calls) == 1, graph


def test_bound_epsilon_domain_error(capsys) -> None:
    code, _, err = run_cli(
        capsys, "bound", "--graph", "path:6", "--u", "0", "--v", "5", "--epsilon", "0"
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_analyze_path6(capsys) -> None:
    code, out, _ = run_cli(capsys, "analyze", "--graph", "path:6", "--u", "0", "--v", "5")
    assert code == 0
    report = json.loads(out)
    assert report["cospectrality_order"] == "infinite"
    assert report["involution"] == [5, 4, 3, 2, 1, 0]
    assert report["involution_searched"] is True
    assert report["projector_cospectral"] is True
    assert "mixed" not in report["sign_pattern"]


def test_analyze_path4_divergence(capsys) -> None:
    code, out, _ = run_cli(capsys, "analyze", "--graph", "path:4", "--u", "0", "--v", "1")
    assert code == 0
    report = json.loads(out)
    assert report["cospectrality_order"] == 1
    assert report["first_divergence"] == {"length": 2, "count_u": 1, "count_v": 2}
    assert report["involution"] is None


def test_analyze_path200_divergence(capsys) -> None:
    # the first divergence is at length 2, where counting stops
    code, out, _ = run_cli(capsys, "analyze", "--graph", "path:200", "--u", "0", "--v", "5")
    assert code == 0
    report = json.loads(out)
    assert report["cospectrality_order"] == 1
    assert report["first_divergence"] == {"length": 2, "count_u": 1, "count_v": 2}


@pytest.mark.parametrize(
    "graph, u, v, argv",
    [
        pytest.param("cycle:200", 0, 100, "analyze", id="analyze-cycle200"),
        pytest.param("path:200", 0, 199, "bound --epsilon 0.1", id="bound-path200"),
        pytest.param("cycle:800", 0, 5, "peak --model adjacency", id="peak-cycle800"),
    ],
)
def test_mirror_pairs_counted_past_128_bits_are_infinite(capsys, tmp_path, walk_runs, graph, u, v, argv) -> None:
    # counts to length n - 1 pass 2^128 (at length 132 on cycle:200 and cycle:800, 136 on path:200).
    # The graph goes in as a relabelled edge list that neither closed-form candidate proves, so the
    # pair is counted.
    g, a, b = relabelled(glwalk.cli.parse_graph(graph), u, v, np.random.default_rng(200))
    doc = tmp_path / "graph.txt"
    doc.write_text(to_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, *argv.split(), "--graph", f"file:{doc}", "--u", str(a), "--v", str(b))
    assert code == 0
    assert json.loads(out)["cospectrality_order"] == "infinite"
    assert len(walk_runs) == 1


def test_analyze_late_divergence_counts_match_oracle(capsys, tmp_path) -> None:
    g, u, v = late_divergence_graph(np.random.default_rng(1515))
    doc = tmp_path / "graph.txt"
    doc.write_text(to_edge_list(g), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "--graph", f"file:{doc}", "--u", str(u), "--v", str(v))
    assert code == 0
    divergence = json.loads(out)["first_divergence"]
    length = divergence["length"]
    counts_u = walk_count_oracle(g, u, length)
    counts_v = walk_count_oracle(g, v, length)
    assert counts_u[:-1] == counts_v[:-1]
    # the counts agree past 2^128 and first differ after it
    assert counts_u[-2].bit_length() > 128
    assert (divergence["count_u"], divergence["count_v"]) == (counts_u[-1], counts_v[-1])
    assert counts_u[-1] != counts_v[-1]


# two degree classes (0 and 5 have degree 3, every other vertex 2), but only 0
# lies on a triangle: cospectrality order 2 is below the distance 3
ORDER_BELOW_DISTANCE = "n=9\n0 1\n1 2\n2 0\n0 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 5\n"


@pytest.mark.parametrize(
    "graph, u, v, epsilon, bound_code",
    [
        pytest.param("path:6", 0, 5, "0.1", 0, id="path:6-0-5"),
        pytest.param("path:20", 3, 9, "0.1", 2, id="path:20-3-9"),
        pytest.param("path:6", 0, 5, "1.5", 2, id="path:6-0-5-epsilon-1.5"),
        pytest.param(None, 0, 5, "0.1", 2, id="order-below-distance"),
    ],
)
def test_one_cospectrality_run_per_command(
    capsys, monkeypatch, tmp_path, graph, u, v, epsilon, bound_code
) -> None:
    if graph is None:
        doc = tmp_path / "graph.txt"
        doc.write_text(ORDER_BELOW_DISTANCE, encoding="utf-8")
        graph = f"file:{doc}"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cospectrality(*args, **kwargs)

    monkeypatch.setattr(glwalk.cli, "cospectrality", counted)
    monkeypatch.setattr(glwalk.bounds, "cospectrality", counted)
    pair = ["--graph", graph, "--u", str(u), "--v", str(v)]
    orders = {}
    for argv in (
        ["peak", "--model", "generalized:143", "--epsilon", epsilon],
        ["bound", "--epsilon", epsilon],
        ["analyze"],
    ):
        calls.clear()
        code, out, _ = run_cli(capsys, *argv, *pair)
        assert len(calls) <= 1, argv[0]
        assert code == (bound_code if argv[0] == "bound" else 0), argv[0]
        if code == 0:
            orders[argv[0]] = json.loads(out)["cospectrality_order"]
    assert orders["peak"] == orders["analyze"]


def _named_mirror_pairs():
    """Every mirror pair of path:2-40, ordered pair of cycle:3-40 and same-side pair of bipartite:a,b."""
    for n in range(2, 41):
        yield from ((f"path:{n}", u, n - 1 - u) for u in range(n) if 2 * u != n - 1)
    for n in range(3, 41):
        yield from ((f"cycle:{n}", u, v) for u in range(n) for v in range(n) if u != v)
    for a in range(1, 7):
        for b in range(1, 9):
            for side in (range(a), range(a, a + b)):
                yield from ((f"bipartite:{a},{b}", u, v) for u in side for v in side if u != v)


def _no_adjacency_eigh(*args, **kwargs):
    raise AssertionError("the adjacency matrix was decomposed")


def test_closed_form_involutions_prove_every_mirror_pair(monkeypatch) -> None:
    # the named graph and its edge-list copy alike
    monkeypatch.setattr(glwalk.cospectral, "_closed_walks", _fail_if_called)
    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", _no_adjacency_eigh)
    graphs = {}
    for text, u, v in _named_mirror_pairs():
        if text not in graphs:
            named = glwalk.cli.parse_graph(text)
            graphs[text] = (named, from_edge_list(to_edge_list(named)))
        for g in graphs[text]:
            assert cospectrality(g, u, v).infinite, (text, u, v)


@pytest.mark.parametrize("text, u, v", [("path:6", 0, 4), ("path:7", 2, 3), ("bipartite:2,4", 0, 2)])
def test_mirror_candidates_fail_off_mirror_pairs(text, u, v) -> None:
    g = glwalk.cli.parse_graph(text)
    assert not any(verify_involution(g, s) for s in glwalk.cospectral._mirror_candidates(g.n, u, v))


def _draw_named_pair(rng: np.random.Generator) -> tuple[str, int, int]:
    """A named graph and two distinct vertices, a mirror pair about three times in four.

    Path endpoints and the 2-side of bipartite:2,b, the pairs with two degree
    classes that bound and sweep --epsilon take, come up about one time in six.
    """
    kind = ("path", "cycle", "bipartite")[int(rng.integers(3))]
    if kind == "bipartite":
        a = int(rng.integers(1, 7)) if rng.random() < 0.5 else 2
        b = int(rng.integers(1, 9))
        text, n = f"bipartite:{a},{b}", a + b
    else:
        n = int(rng.integers(3, 31))
        text = f"{kind}:{n}"
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    if rng.random() < 0.75:
        if kind == "path":
            u = 0 if rng.random() < 0.5 else u
            v = n - 1 - u if 2 * u != n - 1 else v
        elif kind == "bipartite":
            side = range(a) if u < a else range(a, a + b)
            if len(side) > 1:
                v = int(rng.choice([x for x in side if x != u]))
    return text, u, v


def _order_fields(command: str, code: int, out: str, err: str):
    """What a report holds that follows from the order and the graph alone, not from vertex labels or eigh."""
    if code != 0:
        return code, json.loads(err)["error"]["type"]
    report = json.loads(out)
    if command == "peak":
        return report["cospectrality_order"], report["threshold"]
    if command == "bound":
        return {key: value for key, value in report.items() if key not in ("graph", "u", "v")}
    if command == "sweep":
        return report["k_min_threshold"], [row["crosses_threshold"] for row in report["rows"]]
    return report["cospectrality_order"], report["first_divergence"], report["projector_cospectral"]


def test_named_graphs_match_their_edge_lists(capsys, tmp_path, walk_runs) -> None:
    # a named mirror pair is proved by a closed-form involution; the same graph relabelled at random
    # and given as an edge list is counted unless the pair is twins. Error messages name vertices
    # and spectral numbers follow eigh's rounding, so only the error type and the fields that
    # follow from the order and the graph are compared.
    rng = np.random.default_rng(1818)
    counted = proved_thresholds = 0
    for case in range(24):
        text, u, v = _draw_named_pair(rng)
        g = glwalk.cli.parse_graph(text)
        mirrored = any(verify_involution(g, s) for s in glwalk.cospectral._mirror_candidates(g.n, u, v))
        h, a, b = relabelled(g, u, v, rng)
        hidden = not any(verify_involution(h, s) for s in glwalk.cospectral._mirror_candidates(h.n, a, b))
        doc = tmp_path / f"graph{case}.txt"
        doc.write_text(to_edge_list(h), encoding="utf-8")
        k = float(rng.uniform(-3.0, 3.0))
        for argv in (
            ["peak", "--model", f"generalized:{k!r}"],
            ["bound", "--epsilon", "0.1"],
            ["sweep", "--kmin", repr(k), "--kmax", repr(k + 1.0), "--steps", "3", "--epsilon", "0.1", "--json"],
            ["analyze"],
        ):
            walk_runs.clear()
            named = run_cli(capsys, *argv, "--graph", text, "--u", str(u), "--v", str(v))
            if mirrored:
                assert walk_runs == [], (argv[0], text, u, v)
                proved_thresholds += argv[0] == "bound" and named[0] == 0
            walk_runs.clear()
            listed = run_cli(capsys, *argv, "--graph", f"file:{doc}", "--u", str(a), "--v", str(b))
            assert _order_fields(argv[0], *named) == _order_fields(argv[0], *listed), (argv[0], text, u, v)
            # a hidden pair is counted by every command that reaches cospectrality, unless
            # analyze's search found an involution to prove it with
            searched = argv[0] == "analyze" and json.loads(listed[1])["involution"] is not None
            assert bool(walk_runs) == (hidden and listed[0] == 0 and not searched), (argv[0], text, u, v)
            counted += bool(walk_runs)
    assert counted >= 30 and proved_thresholds >= 3


@pytest.mark.parametrize(
    "argv, decompositions",
    [
        pytest.param("peak --graph path:60 --model generalized:0.5 --u 6 --v 53", 1, id="peak-path60"),
        pytest.param("peak --graph cycle:60 --model generalized:-0.5 --u 4 --v 51", 1, id="peak-cycle60"),
        pytest.param("bound --graph path:60 --u 0 --v 59 --epsilon 0.1", 0, id="bound-path60"),
        pytest.param("bound --graph bipartite:2,8 --u 0 --v 1 --epsilon 0.1", 0, id="bound-bipartite"),
        pytest.param(
            "sweep --graph path:60 --u 0 --v 59 --kmin 1 --kmax 2 --steps 2 --epsilon 0.1", 0, id="sweep-path60"
        ),
        pytest.param(
            "sweep --graph bipartite:2,8 --u 0 --v 1 --kmin 1 --kmax 2 --steps 2 --epsilon 0.1", 0,
            id="sweep-bipartite",
        ),
        pytest.param("analyze --graph path:60 --u 6 --v 53", 1, id="analyze-path60"),
        pytest.param("analyze --graph cycle:60 --u 4 --v 51", 1, id="analyze-cycle60"),
        pytest.param("analyze --graph bipartite:2,8 --u 0 --v 1", 1, id="analyze-bipartite"),
    ],
)
def test_mirror_pairs_count_no_walks(capsys, monkeypatch, argv, decompositions) -> None:
    # peak decomposes only H, analyze only the adjacency matrix its sign pattern reads, and
    # bound and sweep decompose no adjacency matrix; none of them counts a walk
    calls = []

    def counted(h):
        calls.append(h)
        return eigendecompose(h)

    monkeypatch.setattr(glwalk.cli, "eigendecompose", counted)
    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", _no_adjacency_eigh)
    monkeypatch.setattr(glwalk.cospectral, "_closed_walks", _fail_if_called)
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert len(calls) == decompositions
    if not argv.startswith("sweep"):
        assert json.loads(out)["cospectrality_order"] == "infinite"


def test_peak_decomposes_reversal_symmetric_h_as_sector_blocks(capsys, tmp_path, eigh_shapes) -> None:
    code, _, _ = run_cli(capsys, "peak", "--graph", "path:60", "--model", "generalized:0.5", "--u", "0", "--v", "59")
    assert code == 0
    assert eigh_shapes and all(shape[1:] == (30, 30) for shape in eigh_shapes)

    # a relabelled path and loops the reversal does not swap keep the full eigh
    g, u, v = relabelled(path_graph(60), 0, 59, np.random.default_rng(61))
    doc = tmp_path / "path60.txt"
    doc.write_text(to_edge_list(g), encoding="utf-8")
    for argv in (
        ["--graph", f"file:{doc}", "--model", "generalized:0.5", "--u", str(u), "--v", str(v)],
        ["--graph", "path:6", "--model", "loops:0,2,20", "--u", "0", "--v", "5"],
    ):
        eigh_shapes.clear()
        code, _, _ = run_cli(capsys, "peak", *argv)
        assert code == 0
        n = 6 if "path:6" in argv else 60
        assert eigh_shapes and all(shape == (1, n, n) for shape in eigh_shapes)


def test_edge_list_mirror_pair_is_counted_and_cross_checked(capsys, monkeypatch, tmp_path, walk_runs) -> None:
    g, u, v = relabelled(path_graph(60), 0, 59, np.random.default_rng(60))
    doc = tmp_path / "path60.txt"
    doc.write_text(to_edge_list(g), encoding="utf-8")
    adjacency_runs = []

    def counted_eigh(h):
        adjacency_runs.append(h)
        return eigendecompose(h)

    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", counted_eigh)
    code, out, _ = run_cli(capsys, "bound", "--graph", f"file:{doc}", "--u", str(u), "--v", str(v), "--epsilon", "0.1")
    assert code == 0
    assert json.loads(out)["cospectrality_order"] == "infinite"
    assert len(walk_runs) == 1 and len(adjacency_runs) == 1


def test_analyze_bipartite(capsys) -> None:
    code, out, _ = run_cli(capsys, "analyze", "--graph", "bipartite:2,4", "--u", "0", "--v", "1")
    assert code == 0
    assert json.loads(out)["cospectrality_order"] == "infinite"


def test_analyze_with_supplied_involution(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", "path:6", "--u", "0", "--v", "5",
        "--involution", "5,4,3,2,1,0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["involution"] == [5, 4, 3, 2, 1, 0]
    assert report["involution_searched"] is False


def test_graph_file_loading(capsys, tmp_path) -> None:
    doc = tmp_path / "graph.txt"
    doc.write_text("n=3\n0 1\n1 2\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", f"file:{doc}", "--u", "0", "--v", "2"
    )
    assert code == 0
    assert json.loads(out)["cospectrality_order"] == "infinite"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        pytest.param("fidelity --model adjacency --tmax 3.14 --samples 5", "t,probability", id="fidelity"),
        pytest.param("fidelity --model adjacency --tmax 3.14 --samples 5 --json", "{", id="fidelity-json"),
        pytest.param("peak --model adjacency", "{", id="peak"),
        pytest.param("sweep --kmin 0 --kmax 1 --steps 2 --epsilon 0.1", "k,fidelity,t_star,crosses_threshold", id="sweep"),
        pytest.param("sweep --kmin 0 --kmax 1 --steps 2 --json", "{", id="sweep-json"),
        pytest.param("bound --epsilon 0.1", "{", id="bound"),
        pytest.param("analyze", "{", id="analyze"),
    ],
)
def test_out_flag_writes_file(capsys, tmp_path, argv, first_line) -> None:
    argv = [*argv.split(), "--graph", "path:6", "--u", "0", "--v", "5"]
    _, stdout, _ = run_cli(capsys, *argv)
    target = tmp_path / "report"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.splitlines()[0] == first_line
    assert target.read_bytes() == stdout.encode("utf-8")


def _raise_convergence(*args):
    raise ConvergenceError("eigensolver did not converge")


def _raise_overflow(*args):
    raise OverflowError("int too large to convert to float")


def _skewed_pair_spectrum(dec, u, v):
    # the pair's record with every (P_r)_{uu} moved by 1e-3
    pair = glwalk.spectral.pair_spectrum(dec, u, v)
    return dataclasses.replace(pair, diag_u=pair.diag_u + 1e-3)


@pytest.mark.parametrize(
    "argv, patch, kind, exit_code",
    [
        pytest.param("peak --graph path:2 --u 0 --v 1", None, "usage", 2, id="usage"),
        pytest.param("bound --graph path:6 --u 0 --v 5 --epsilon 0", None, "validation", 2, id="validation"),
        pytest.param("analyze --graph path:3 --u 0 --v 7", None, "validation", 2, id="validation-vertex"),
        pytest.param("analyze --graph file:missing.txt --u 0 --v 1", None, "io", 4, id="io"),
        pytest.param(
            "peak --graph file:edgeless.txt --model adjacency --u 0 --v 1", None, "degenerate-gap", 3,
            id="degenerate-gap",
        ),
        pytest.param(
            "bound --graph file:path6.txt --u 0 --v 5 --epsilon 0.1",
            (glwalk.cospectral, "pair_spectrum", _skewed_pair_spectrum), "cospectrality-mismatch", 3,
            id="cospectrality-mismatch",
        ),
        pytest.param(
            "analyze --graph path:6 --u 0 --v 5", (glwalk.cli, "cospectrality", _raise_overflow), "overflow", 3,
            id="overflow",
        ),
        pytest.param(
            "peak --graph path:6 --model adjacency --u 0 --v 5",
            (glwalk.cli, "eigendecompose", _raise_convergence), "convergence", 3,
            id="convergence",
        ),
    ],
)
def test_error_table_through_main(capsys, monkeypatch, tmp_path, walk_runs, argv, patch, kind, exit_code) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edgeless.txt").write_text("n=3\n", encoding="utf-8")
    (tmp_path / "path6.txt").write_text(PATH6_RELABELLED, encoding="utf-8")
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, err = run_cli(capsys, *argv.split())
    # only the cross-check after a count raises a mismatch; every other failure comes before a count
    assert bool(walk_runs) == (kind == "cospectrality-mismatch")
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["error"]["type"] == kind


NAN_LOOP_PATH = "n=6\nloop 0 nan\n0 1\n1 2\n2 3\n3 4\n4 5\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, bad",
    [
        pytest.param("peak --model adjacency --strategy grid --tmax nan --samples 11", "nan", id="peak-tmax-nan"),
        pytest.param("peak --model adjacency --strategy grid --tmax inf --samples 11", "inf", id="peak-tmax-inf"),
        pytest.param("fidelity --model adjacency --tmax nan --samples 11", "nan", id="fidelity-tmax-nan"),
        pytest.param("fidelity --model adjacency --tmax inf --samples 11", "inf", id="fidelity-tmax-inf"),
        pytest.param(
            "peak --model adjacency --strategy grid --tmax 1e308 --samples 3", "1e+308", id="peak-tmax-phase-overflow"
        ),
        pytest.param("fidelity --model adjacency --tmax 1e308 --samples 3", "1e+308", id="fidelity-tmax-phase-overflow"),
        pytest.param("sweep --kmin nan --kmax 1 --steps 2", "nan", id="sweep-kmin-nan"),
        pytest.param("sweep --kmin 0 --kmax inf --steps 2", "inf", id="sweep-kmax-inf"),
        pytest.param("sweep --kmin 1 --kmax 2 --steps 2 --tmax nan", "nan", id="sweep-tmax-nan"),
        pytest.param("peak --model generalized:nan", "nan", id="generalized-nan"),
        pytest.param("peak --model generalized:inf", "inf", id="generalized-inf"),
        pytest.param("peak --model loops:0,5,nan", "nan", id="loops-nan"),
        pytest.param("analyze --graph file:nan-loop.txt", "nan", id="edge-list-loop-nan"),
    ],
)
def test_non_finite_input_is_rejected(capsys, monkeypatch, tmp_path, argv, bad) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan-loop.txt").write_text(NAN_LOOP_PATH, encoding="utf-8")
    command, *flags = argv.split()  # a --graph in flags overrides path:6
    code, out, err = run_cli(capsys, command, "--graph", "path:6", *flags, "--u", "0", "--v", "5")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert bad in json.loads(err)["error"]["message"]


def test_missing_graph_file_is_io_error(capsys, tmp_path) -> None:
    code, _, err = run_cli(
        capsys, "analyze", "--graph", f"file:{tmp_path}/nope.txt", "--u", "0", "--v", "1"
    )
    assert code == 4
    assert json.loads(err)["error"]["type"] == "io"


@pytest.mark.parametrize(
    "argv",
    [
        # a supplied involution that fails verification, in place of the search that finds the reversal
        ["analyze", "--involution", "1,0,2,3,4,5"],
        ["bound", "--epsilon", "0.1"],
        ["peak", "--model", "generalized:143"],
    ],
    ids=["analyze", "bound", "peak"],
)
def test_projector_cross_check_mismatch_is_numeric_error(capsys, monkeypatch, tmp_path, walk_runs, argv) -> None:
    # walk counts call the path's endpoints cospectral; make every projector diagonal disagree
    doc = tmp_path / "path6.txt"
    doc.write_text(PATH6_RELABELLED, encoding="utf-8")
    adjacency = from_edge_list(PATH6_RELABELLED).adjacency_matrix(with_loops=False)
    decomposed, adjacency_decs = [], []

    def skewed(dec, u, v):
        # the adjacency record the cross-check reads, wherever it is built, skewed; no other
        if any(dec is adjacency_dec for adjacency_dec in adjacency_decs):
            return _skewed_pair_spectrum(dec, u, v)
        return glwalk.spectral.pair_spectrum(dec, u, v)

    def recorded(h):
        decomposed.append(h)
        dec = eigendecompose(h)
        if np.array_equal(h, adjacency):
            adjacency_decs.append(dec)
        return dec

    monkeypatch.setattr(glwalk.cospectral, "pair_spectrum", skewed)
    monkeypatch.setattr(glwalk.cli, "pair_spectrum", skewed)
    monkeypatch.setattr(glwalk.cospectral, "eigendecompose", recorded)
    monkeypatch.setattr(glwalk.cli, "eigendecompose", recorded)
    code, out, err = run_cli(capsys, *argv, "--graph", f"file:{doc}", "--u", "0", "--v", "5")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "cospectrality-mismatch"
    assert "differs by 1.000e-03" in error["message"]
    assert len(walk_runs) == 1
    assert any(np.array_equal(h, adjacency) for h in decomposed)


@pytest.mark.parametrize(
    "argv",
    [
        ["peak", "--model", "generalized:143"],
        ["analyze"],
        ["bound", "--epsilon", "0.1"],
        ["sweep", "--kmin", "0", "--kmax", "150", "--steps", "3", "--epsilon", "0.1"],
    ],
    ids=["peak", "analyze", "bound", "sweep"],
)
def test_no_command_builds_projectors(capsys, argv) -> None:
    # per-group data comes from reductions over the eigenvector matrix: on path:100 every
    # group's n x n projector V_r V_r^T together takes about 7.6 MiB, each command under 1.5 MiB
    tracemalloc.start()
    try:
        code = main([*argv, "--graph", "path:100", "--u", "0", "--v", "99"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()
    assert code == 0
    assert peak < 4 * 2**20


def test_commands_in_one_process_are_independent(capsys) -> None:
    pair = ["--graph", "path:6", "--u", "0", "--v", "5"]
    peak = ["peak", "--model", "generalized:143", *pair]
    first = run_cli(capsys, *peak)
    assert first[0] == 0
    assert run_cli(capsys, "bound", "--epsilon", "0.3", *pair)[0] == 0
    sweep = ["sweep", "--kmin", "100", "--kmax", "200", "--steps", "2", "--epsilon", "0.2", "--json"]
    assert run_cli(capsys, *sweep, *pair)[0] == 0
    assert run_cli(capsys, *peak) == first


@pytest.mark.parametrize("flag, value", [("--window", "0.2"), ("--refine-samples", "10")])
def test_peak_window_flags_are_gone(capsys, flag, value) -> None:
    # the two-level window is fixed (glwalk.dynamics.REFINE_WINDOW_FRACTION, REFINE_SAMPLES)
    code, out, err = run_cli(
        capsys, "peak", "--graph", "path:6", "--model", "generalized:143", "--u", "0", "--v", "5", flag, value
    )
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == {"type": "usage", "message": f"unrecognized arguments: {flag} {value}"}


def test_bad_flags_exit_2(capsys) -> None:
    code, _, err = run_cli(capsys, "peak", "--graph", "path:2", "--u", "0", "--v", "1")
    assert code == 2  # missing --model
    assert json.loads(err)["error"]["type"] == "usage"

    code, _, err = run_cli(
        capsys, "peak", "--graph", "path:2", "--model", "nonsense", "--u", "0", "--v", "1"
    )
    assert code == 2

    code, _, err = run_cli(
        capsys, "peak", "--graph", "blob:9", "--model", "adjacency", "--u", "0", "--v", "1"
    )
    assert code == 2

    code, _, err = run_cli(
        capsys, "peak", "--graph", "path:3", "--model", "adjacency", "--u", "0", "--v", "7"
    )
    assert code == 2

    # the sweep's grid fallback is checked even where no k needs it
    sweep = ["sweep", "--graph", "path:6", "--u", "0", "--v", "5", "--kmin", "1", "--kmax", "2", "--steps", "2"]
    for flag in (["--samples", "1"], ["--tmax=-5"]):
        code, out, err = run_cli(capsys, *sweep, *flag)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "validation"


def test_fidelity_json_mode(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "fidelity", "--graph", "path:2", "--model", "adjacency",
        "--u", "0", "--v", "1", "--tmax", "2", "--samples", "5", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert len(report["times"]) == len(report["probabilities"]) == 5
    assert report["times"][-1] == 2.0


def test_sweep_json_mode(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "sweep", "--graph", "path:6", "--u", "0", "--v", "5",
        "--kmin", "143", "--kmax", "143", "--steps", "1", "--epsilon", "0.1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["k_min_threshold"] == pytest.approx(143.108, abs=1e-3)
    assert len(report["rows"]) == 1
    assert report["rows"][0]["fidelity"] >= 0.9
    assert report["rows"][0]["crosses_threshold"] == 0


def test_csv_uses_17_significant_digits(capsys) -> None:
    _, out, _ = run_cli(
        capsys, "fidelity", "--graph", "path:2", "--model", "adjacency",
        "--u", "0", "--v", "1", "--tmax", "1", "--samples", "3",
    )
    t_mid = out.splitlines()[2].split(",")[0]
    assert t_mid == format(0.5, ".17g")


def test_csv_matches_per_row_reference() -> None:
    def per_row(columns, rows) -> str:
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        return ",".join(columns) + "\n" + "".join(line % row for row in rows)

    chunk = glwalk.cli.CSV_BLOCK_ROWS
    special = [0.0, -0.0, 5e-324, 1e308, 0.1, 1 / 3]
    rng = np.random.default_rng(53)
    for rows in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        k = rng.normal(scale=1e3, size=rows)
        p = rng.random(rows)
        p[: len(special)] = special[:rows]
        marker = [int(x) for x in rng.integers(0, 2, size=rows)]
        columns = ("k", "fidelity", "crosses_threshold")
        expected = per_row(columns, zip(k, p, marker))
        assert glwalk.cli._csv(columns, k, p, marker) == expected, rows
        assert glwalk.cli._csv(columns[:2], k, p) == per_row(columns[:2], zip(k, p)), rows

    times, probabilities = np.linspace(0.0, 40.0, 20000), rng.random(20000)
    tracemalloc.start()
    try:
        out = glwalk.cli._csv(("t", "probability"), times, probabilities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == per_row(("t", "probability"), zip(times, probabilities))
    assert peak < 3 * len(out)


@pytest.mark.parametrize(
    "spaced, expected",
    [
        pytest.param("sweep --kmin -1.5e2 --kmax 0 --steps 2", (0, "k,fidelity,t_star"), id="kmin"),
        pytest.param("sweep --kmin -2E+2 --kmax -1e-1 --steps 2", (0, "k,fidelity,t_star"), id="kmax"),
        pytest.param("fidelity --model adjacency --tmax -1e2 --samples 11", (2, "validation"), id="fidelity-tmax"),
        pytest.param(
            "peak --model adjacency --strategy grid --tmax -1.e2 --samples 11", (2, "validation"), id="peak-tmax"
        ),
        pytest.param(
            "sweep --graph file:empty.txt --kmin -1 --kmax 1 --steps 2 --tmax -.5e1", (2, "validation"), id="sweep-tmax"
        ),
    ],
)
def test_negative_numbers_in_scientific_notation(capsys, monkeypatch, tmp_path, spaced, expected) -> None:
    # "--flag -1.5e2" reads as "--flag=-1.5e2", not as a flag without its value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text("n=6\n", encoding="utf-8")  # every sweep row takes the grid fallback
    command, *flags = spaced.split()
    pair = ["--graph", "path:6", "--u", "0", "--v", "5"]
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    first = run_cli(capsys, command, *pair, *flags)
    assert run_cli(capsys, command, *pair, *joined) == first
    code, out, err = first
    if code == 0:
        assert (code, out.splitlines()[0], err) == (expected[0], expected[1], "")
        assert len(out.splitlines()) == 3
    else:
        assert (code, out, json.loads(err)["error"]["type"]) == (expected[0], "", expected[1])


#: one well-formed argv per subcommand, every value taken from a flag's own token
WELL_FORMED = {
    "fidelity": "fidelity --graph path:6 --model adjacency --u 0 --v 5 --tmax 50 --samples 501",
    "peak": "peak --graph bipartite:2,4 --model generalized:-1.5e2 --u 0 --v 1 --strategy grid --tmax 20 --samples 1001",
    "sweep": "sweep --graph path:6 --u 0 --v 5 --kmin -1.5e2 --kmax 100 --steps 3 --threshold --epsilon 0.2",
    "bound": "bound --graph path:6 --u 0 --v 5 --epsilon 0.1",
    "analyze": "analyze --graph path:6 --u 0 --v 5 --involution 5,4,3,2,1,0",
}
#: the negative literals of test_negative_numbers_in_scientific_notation
NEGATIVE_LITERALS = ["-1.5e2", "-2E+2", "-1e-1", "-1e2", "-1.e2", "-.5e1"]
#: values put in place of a flag's value: bad types and choices, dash-led, empty and
#: spaced strings, and negative literals
SUBSTITUTES = [
    "x", "abc", "nope", "-x", "", "-", "--", " 5", "1_0", "nan", "-inf", "grid", "two-level", "-1",
    *NEGATIVE_LITERALS, "--graph", "-h",
]


def _same(a, b) -> bool:
    return a == b or isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)


def _read_or_decline(argv: list[str]) -> bool:
    """Check the table read of argv against argparse; True when the table read it."""
    parser = glwalk.cli.build_parser()
    read = parser._read(argv)
    try:
        expected = vars(argparse.ArgumentParser.parse_args(parser, argv))
    except (glwalk.cli.UsageError, SystemExit):  # a usage error, or help printed
        assert read is None, argv
        return False
    if read is None:
        return False
    assert list(vars(read)) == list(expected), argv
    assert all(_same(vars(read)[key], value) for key, value in expected.items()), argv
    return True


def _mutations(argv: list[str], rng: random.Random):
    """Seeded malformed and unusual spellings of a well-formed argv."""
    command, tokens = argv[0], argv[1:]
    pairs = [i for i in range(len(tokens) - 1) if tokens[i].startswith("--") and not tokens[i + 1].startswith("--")]
    mutations = [[name, *tokens] for name in ("bogus", "Peak", "-h", "")]
    mutations += [[command, *mutated] for mutated in ([*tokens, "-h"], ["--help", *tokens], [*tokens, "--bogus", "1"])]
    for i in pairs:
        flag, value = tokens[i], tokens[i + 1]
        head, tail = [command, *tokens[:i]], tokens[i + 2:]
        mutations += [
            [*head, flag, *tail],  # a dropped value
            [*head, *tail],  # a dropped flag
            [*head, flag, value, *tail, flag, value],  # a repeated flag
            [*head, f"{flag}={value}", *tail],
            [*head, flag[:-1], value, *tail],  # an abbreviation, such as --gra
        ]
        mutations += [[*head, flag, other, *tail] for other in SUBSTITUTES]
    for _ in range(40):
        mutated = list(tokens)
        i, j = rng.randrange(len(mutated)), rng.randrange(len(mutated))
        if rng.random() < 1 / 3:
            del mutated[i]
        elif rng.random() < 1 / 2:
            mutated.insert(i, mutated[j])
        else:
            mutated[i], mutated[j] = mutated[j], mutated[i]
        mutations.append([command, *mutated])
    return mutations


def test_table_read_returns_argparse_namespace_or_declines(golden) -> None:
    commands = [shlex.split(command) for command in golden.corpus()]
    read = [argv for argv in commands if _read_or_decline(argv)]
    declined = [argv for argv in commands if argv not in read]
    # argparse reads a joined --flag=value; the fidelity command lacks --model, and peak
    # has no --refine-samples or --window
    assert [shlex.join(argv) for argv in declined] == [
        "fidelity --graph path:6 --u 0 --v 5",
        "peak --graph path:6 --model generalized:143 --u 0 --v 5 --refine-samples 10007",
        "peak --graph path:6 --model generalized:143 --u 0 --v 5 --window 0.2 --epsilon 0.3",
        "sweep --graph path:6 --u 0 --v 5 --kmin=-1.5e2 --kmax 0 --steps 2",
    ]
    rng = random.Random(24)
    for command, text in WELL_FORMED.items():
        argv = text.split()
        assert _read_or_decline(argv), command
        for mutated in _mutations(argv, rng):
            _read_or_decline(mutated)
    # a repeated flag keeps its last value, and a negative literal is a value
    for literal in NEGATIVE_LITERALS:
        assert _read_or_decline([*WELL_FORMED["sweep"].split(), "--kmin", literal])
    for argv in ([], ["-h"], ["peak"], ["bound", "--graph"]):
        assert not _read_or_decline(argv)


def test_well_formed_commands_skip_argparse(capsys, monkeypatch) -> None:
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    runs = [argv.split() for argv in WELL_FORMED.values()]
    runs += [[*argv, "--json"] for argv in runs]
    for argv in runs:
        with monkeypatch.context() as argparse_only:
            argparse_only.setattr(glwalk.cli._Parser, "_read", lambda self, argv: None)
            before = run_cli(capsys, *argv)
        assert before[0] == 0 and calls, argv
        calls.clear()
        assert run_cli(capsys, *argv) == before
        monkeypatch.setattr(sys, "argv", ["glwalk", *argv])
        assert (main(None), *capsys.readouterr()) == before
        assert calls == [], argv

    code, out, err = run_cli(capsys, "peak", "--graph", "path:2", "--u", "0", "--v", "1")
    assert (code, out) == (2, "") and len(calls) == 2  # the parser and the peak subparser
    message = json.loads(err)["error"]
    assert message == {"type": "usage", "message": "the following arguments are required: --model"}


@pytest.mark.parametrize(
    "graph, u, v, kmin, kmax, steps",
    [
        ("path:6", "0", "5", "100", "190", "8"),
        ("bipartite:2,5", "0", "1", "-260", "-120", "6"),
        ("path:20", "3", "16", "-1.5", "1.5", "5"),
        # blocks of 4, 4 and 1 k values
        ("path:60", "3", "50", "-1.5", "1.2", "9"),
    ],
)
def test_sweep_rows_equal_per_k_peak(capsys, graph, u, v, kmin, kmax, steps) -> None:
    pair = ["--graph", graph, "--u", u, "--v", v]
    code, out, _ = run_cli(capsys, "sweep", *pair, "--kmin", kmin, "--kmax", kmax, "--steps", steps, "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == int(steps)
    for row in rows:
        code, out, _ = run_cli(capsys, "peak", *pair, "--model", f"generalized:{row['k']!r}")
        assert code == 0
        peak = json.loads(out)
        assert (row["fidelity"], row["t_star"]) == (peak["fidelity"], peak["t_star"])


@pytest.mark.parametrize(
    "argv, blocks",
    [
        ("peak --graph path:6 --u 0 --v 5 --model generalized:143", [1]),
        ("peak --graph bipartite:2,5 --u 0 --v 1 --model generalized:-200 --strategy grid --samples 401", [1]),
        ("analyze --graph path:6 --u 0 --v 5", [1]),
        ("fidelity --graph path:6 --u 0 --v 5 --model adjacency --tmax 10 --samples 11", [1]),
        ("sweep --graph path:6 --u 0 --v 5 --kmin 100 --kmax 190 --steps 8 --epsilon 0.1", [8]),
        # blocks of 4, 4 and 1 k values
        ("sweep --graph path:60 --u 3 --v 50 --kmin -1.5 --kmax 1.2 --steps 9", [4, 4, 1]),
    ],
    ids=["peak", "peak-grid", "analyze", "fidelity", "sweep", "sweep-blocks"],
)
def test_each_command_reads_the_pair_once_per_block(capsys, monkeypatch, argv, blocks) -> None:
    # rows u and v of each eigenvector matrix are read once: one pair_spectra call per
    # command, or per sweep block, whose records every later step reads
    calls = []
    pair_spectra = glwalk.spectral.pair_spectra

    def counted(decompositions, u, v):
        calls.append(len(decompositions))
        return pair_spectra(decompositions, u, v)

    monkeypatch.setattr(glwalk.spectral, "pair_spectra", counted)
    monkeypatch.setattr(glwalk.dynamics, "pair_spectra", counted)
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert calls == blocks


def test_sweep_memory_does_not_grow_with_steps(capsys) -> None:
    # sweep_peaks decomposes max(1, SWEEP_BLOCK_ENTRIES // (n*n)) k values at a time, one
    # at a time from n = 128 on, and searches each k on its own before the next block, so at
    # n = 400 a sweep holds one n x n decomposition at a time
    def traced_peak(steps: str) -> int:
        argv = [
            "sweep", "--graph", "path:400", "--u", "0", "--v", "399", "--kmin", "-1.3", "--kmax", "1.1",
            "--steps", steps, "--tmax", "50", "--samples", "5001",
        ]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    assert traced_peak("8") - traced_peak("1") <= 1.5 * 2**20
