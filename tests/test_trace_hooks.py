"""The benchmark's tracer reaches every layer it names.

``perfbench.tracing.Tracer`` times layers by swapping module attributes. A
refactor that drops or renames one of them (say, an import of
``validate_canonical`` into ``pertpipe.unifier``) would otherwise fail only
inside a traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import PATCHES, Tracer  # noqa: E402
from pertpipe import unifier  # noqa: E402


def _owner(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize(
    "module_name, attr_path, span", PATCHES, ids=[span for _, _, span in PATCHES]
)
def test_patch_target_exists(module_name, attr_path, span):
    owner, attr = _owner(module_name, attr_path)
    assert attr in owner.__dict__, f"{module_name}.{attr_path} is gone"


def test_install_wraps_every_target_and_restore_puts_originals_back():
    targets = [_owner(module_name, attr_path) for module_name, attr_path, _ in PATCHES]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = Tracer()
    try:
        tracer.install()
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(targets, originals)
        )
    finally:
        tracer.restore()
    assert all(
        owner.__dict__[attr] is original for (owner, attr), original in zip(targets, originals)
    )


def test_apply_mapping_calls_its_layers_through_module_globals(
    drug_raw_table, flat_form_mapping
):
    spec = unifier.MappingSpec.from_dict(flat_form_mapping)
    tracer = Tracer()
    try:
        tracer.install()
        unifier.apply_mapping(drug_raw_table, spec)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {
        "unifier.apply_mapping", "dsl.evaluate", "data.normalize_log1p",
        "data.validate_canonical",
    } <= names
