from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _write(path: Path, results: dict) -> str:
    path.write_text(json.dumps(results), encoding="utf-8")
    return str(path)


COMMAND = "analyze --graph path:6 --u 0 --v 5"
RESULTS = {
    COMMAND: [0, "{}\n", ""],
    "bound --graph path:6 --u 0 --v 5 --epsilon 0.1": [0, "{}\n", ""],
}


def test_compare_equal_files_exits_zero(golden, tmp_path, capsys) -> None:
    a = _write(tmp_path / "a.json", RESULTS)
    b = _write(tmp_path / "b.json", RESULTS)
    assert golden.main(["--compare", a, b]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 of 2 commands differ" in captured.err


@pytest.mark.parametrize(
    "result",
    [[3, "", "{}\n"], [0, "{ }\n", ""], [0, "{}\n", "warn\n"], None],
    ids=["exit-code", "stdout", "stderr", "missing"],
)
def test_compare_lists_the_differing_command(golden, tmp_path, capsys, result) -> None:
    changed = {command: r for command, r in RESULTS.items() if command != COMMAND}
    if result is not None:
        changed[COMMAND] = result
    assert golden.compare(RESULTS, changed) == [COMMAND]
    a = _write(tmp_path / "a.json", RESULTS)
    b = _write(tmp_path / "b.json", changed)
    assert golden.main(["--compare", a, b]) == 1
    captured = capsys.readouterr()
    assert captured.out == COMMAND + "\n"
    assert "1 of 2 commands differ" in captured.err


def test_readme_states_the_corpus_size(golden) -> None:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"fixed corpus of (\d+) commands", readme)
    assert stated == [str(len(golden.corpus()))]


CLOSE = '{"fidelity": 0.5000000001, "t_star": 1200.000001, "sign_pattern": ["plus"]}\n'
BASE = '{"fidelity": 0.5, "t_star": 1200.0, "sign_pattern": ["plus"]}\n'


@pytest.mark.parametrize(
    ("x", "y", "expected"),
    [
        ([0, BASE, ""], [0, CLOSE, ""], pytest.approx(1e-6 / 1200.000001, rel=1e-6)),
        ([0, "1.0,-2e-3\n", ""], [0, "1,-0.002\n", ""], 0.0),
        ([0, "0.25\n", ""], [0, "0.75\n", ""], 0.5),
        ([0, BASE, ""], [0, BASE.replace("plus", "mixed"), ""], None),
        ([0, BASE, ""], [3, BASE, ""], None),
        ([0, BASE, ""], [0, BASE, "warn\n"], None),
        ([0, BASE, ""], None, None),
    ],
    ids=["numbers", "spelling", "small-values", "text", "exit-code", "stderr", "missing"],
)
def test_scaled_difference(golden, x, y, expected) -> None:
    assert golden.scaled_difference(x, y) == expected
    assert golden.scaled_difference(y, x) == expected


def test_compare_rtol_ignores_numbers_within_tolerance(golden, tmp_path, capsys) -> None:
    changed = dict(RESULTS, **{COMMAND: [0, CLOSE, ""]})
    base = dict(RESULTS, **{COMMAND: [0, BASE, ""]})
    a = _write(tmp_path / "a.json", base)
    b = _write(tmp_path / "b.json", changed)
    assert golden.main(["--compare", a, b, "--rtol", "1e-9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 of 2 commands differ" in captured.err

    assert golden.main(["--compare", a, b, "--rtol", "1e-10"]) == 1
    assert capsys.readouterr().out == f"{COMMAND}\t8.33e-10\n"

    text = _write(tmp_path / "c.json", dict(RESULTS, **{COMMAND: [0, BASE.replace("plus", "mixed"), ""]}))
    assert golden.main(["--compare", a, text, "--rtol", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{COMMAND}\ttext\n"
    assert "1 of 2 commands differ" in captured.err


def test_rtol_needs_compare(golden) -> None:
    with pytest.raises(SystemExit):
        golden.main(["--out", "unused.json", "--rtol", "1e-9"])
