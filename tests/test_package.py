from __future__ import annotations

import types

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
