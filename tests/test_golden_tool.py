from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tools" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
