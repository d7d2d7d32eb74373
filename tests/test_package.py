from __future__ import annotations

import contextlib
import io
import re
import types
from pathlib import Path

import glwalk


def test_all_is_sorted_and_matches_the_public_names() -> None:
    assert glwalk.__all__ == sorted(glwalk.__all__)
    public = {
        name
        for name, value in vars(glwalk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(glwalk.__all__) == public


def test_every_export_imports() -> None:
    namespace: dict = {}
    exec("from glwalk import *", namespace)
    assert set(glwalk.__all__) <= namespace.keys()


def test_readme_library_example_runs() -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(example, {})
    assert len(output.getvalue().splitlines()) == example.count("print(")
