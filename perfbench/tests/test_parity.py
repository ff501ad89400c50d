"""The benchmark's flows write what the ``pertpipe`` CLI writes, byte for byte.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import shutil
import subprocess
import sys

import pytest

from pertpipe import bundle as bundle_io
from pertpipe.knowledge import KnowledgeBase

from perfbench import flows

from .conftest import KB_ENTRIES, ROOT, SEED


def cli(*args) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pertpipe.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("use_kb", [True, False])
def test_search_flow_writes_what_the_cli_writes(tiny, tmp_path, use_kb):
    kb = {}
    for side in ("driver", "cli"):
        kb[side] = tmp_path / f"kb_{side}.jsonl"
        shutil.copyfile(tiny / "kb.jsonl", kb[side])
    run = flows.search_flow(
        tiny / "bundle", tmp_path / "driver", SEED,
        kb_path=kb["driver"] if use_kb else None, sets={"search.n_sim": "32"},
    )
    args = ["search", tiny / "bundle", "--out", tmp_path / "cli", "--evaluator", "surrogate",
            "--seed", SEED, "--set", "search.n_sim=32"]
    if use_kb:
        args += ["--kb", kb["cli"]]
    cli(*args)

    names = ["trajectory.jsonl", "tree.json", "best_candidate.json"]
    if use_kb:
        assert run.retrieval_mode == "warm_start"
        names.append("retrieval.json")
        for side in ("driver", "cli"):
            assert len(KnowledgeBase(kb[side]).load()) == KB_ENTRIES + 1
    for name in names:
        assert (tmp_path / "driver" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name


def test_unify_with_mock_induction_matches_cli(tiny, tmp_path):
    reply = (tiny / "mock_reply.txt").read_text()
    flows.unify_apply(flows.unify_setup(tiny / "raw_drug", mock_reply=reply), tmp_path / "driver")
    cli("unify", tiny / "raw_drug", tmp_path / "cli", "--induce",
        "--llm-transport", "mock", "--mock-response", reply)
    assert bundle_io.bundle_digest(tmp_path / "driver") == bundle_io.bundle_digest(tmp_path / "cli")


def test_unify_with_mapping_file_matches_cli(tiny, tmp_path):
    mapping = tiny / "crispr_mapping.json"
    flows.unify_apply(flows.unify_setup(tiny / "raw_crispr", mapping_file=mapping), tmp_path / "driver")
    cli("unify", tiny / "raw_crispr", tmp_path / "cli", "--mapping", mapping)
    assert bundle_io.bundle_digest(tmp_path / "driver") == bundle_io.bundle_digest(tmp_path / "cli")
