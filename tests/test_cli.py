from __future__ import annotations

import json
import math

import pytest

from glwalk import (
    ConvergenceError,
    Generalized,
    HamiltonianSpec,
    eigendecompose,
    hamiltonian_matrix,
    path_graph,
    cospectrality,
    two_level_candidate_time,
)
import glwalk.bounds
import glwalk.cli
import glwalk.cospectral
import glwalk.dynamics
import glwalk.spectral
from glwalk.cli import main


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
    dec = eigendecompose(hamiltonian_matrix(HamiltonianSpec(Generalized(143.0), path_graph(6))))
    t_star = two_level_candidate_time(dec, 0, 5)
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


def test_sweep_checks_steps_before_counting_walks(capsys) -> None:
    # the threshold would count walks on path:200 to length 136 and overflow
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
    # the first divergence is at length 2; counting on to length 2n overflowed
    code, out, _ = run_cli(capsys, "analyze", "--graph", "path:200", "--u", "0", "--v", "5")
    assert code == 0
    report = json.loads(out)
    assert report["cospectrality_order"] == 1
    assert report["first_divergence"] == {"length": 2, "count_u": 1, "count_v": 2}


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

    def counted(*args):
        calls.append(args)
        return cospectrality(*args)

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


def _skewed_pair_diagonals(dec, u, v):
    diagonals = glwalk.spectral.pair_diagonals(dec, u, v)
    diagonals[0] += 1e-3
    return diagonals


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
            "bound --graph path:6 --u 0 --v 5 --epsilon 0.1",
            (glwalk.cospectral, "pair_diagonals", _skewed_pair_diagonals), "cospectrality-mismatch", 3,
            id="cospectrality-mismatch",
        ),
        pytest.param("analyze --graph cycle:200 --u 0 --v 100", None, "overflow", 3, id="overflow"),
        pytest.param(
            "peak --graph path:6 --model adjacency --u 0 --v 5",
            (glwalk.cli, "eigendecompose", _raise_convergence), "convergence", 3,
            id="convergence",
        ),
    ],
)
def test_error_table_through_main(capsys, monkeypatch, tmp_path, argv, patch, kind, exit_code) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edgeless.txt").write_text("n=3\n", encoding="utf-8")
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, err = run_cli(capsys, *argv.split())
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
        pytest.param("sweep --kmin nan --kmax 1 --steps 2", "nan", id="sweep-kmin-nan"),
        pytest.param("sweep --kmin 0 --kmax inf --steps 2", "inf", id="sweep-kmax-inf"),
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
        ["analyze"],
        ["bound", "--epsilon", "0.1"],
        ["peak", "--model", "generalized:143"],
    ],
    ids=["analyze", "bound", "peak"],
)
def test_projector_cross_check_mismatch_is_numeric_error(capsys, monkeypatch, argv) -> None:
    # walk counts call path:6 endpoints cospectral; make every projector diagonal disagree
    real = glwalk.cospectral.pair_diagonals

    def skewed(dec, u, v):
        diagonals = real(dec, u, v)
        diagonals[0] += 1e-3
        return diagonals

    monkeypatch.setattr(glwalk.cospectral, "pair_diagonals", skewed)
    code, out, err = run_cli(capsys, *argv, "--graph", "path:6", "--u", "0", "--v", "5")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "cospectrality-mismatch"
    assert "differs by 1.000e-03" in error["message"]


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
def test_no_command_builds_projectors(capsys, monkeypatch, argv) -> None:
    # per-group data comes from the decomposition; projectors are the matrix view
    calls = []
    real = glwalk.spectral.spectral_projectors

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (glwalk.spectral, glwalk.cli, glwalk.dynamics, glwalk.cospectral, glwalk.bounds):
        monkeypatch.setattr(module, "spectral_projectors", counted, raising=False)
    code, _, _ = run_cli(capsys, *argv, "--graph", "path:6", "--u", "0", "--v", "5")
    assert code == 0
    assert len(calls) == 0


def test_commands_in_one_process_are_independent(capsys) -> None:
    pair = ["--graph", "path:6", "--u", "0", "--v", "5"]
    peak = ["peak", "--model", "generalized:143", *pair]
    first = run_cli(capsys, *peak)
    assert first[0] == 0
    assert run_cli(capsys, "bound", "--epsilon", "0.3", *pair)[0] == 0
    sweep = ["sweep", "--kmin", "100", "--kmax", "200", "--steps", "2", "--epsilon", "0.2", "--json"]
    assert run_cli(capsys, *sweep, *pair)[0] == 0
    assert run_cli(capsys, *peak) == first


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
