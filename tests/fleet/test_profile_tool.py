"""``tools/profile_sweep.py --fleet``: profiles a fleet's shared machine."""

import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "profile_sweep.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("profile_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fleet_profile_reports_memo_counters(monkeypatch, capsys):
    # The tool sets and then removes REPRO_FABRIC; pin the current kind so
    # monkeypatch restores it for the rest of the session.
    fabric = os.environ.get("REPRO_FABRIC", "array")
    monkeypatch.setenv("REPRO_FABRIC", fabric)
    tool = _load_tool()
    assert tool.main(["--fleet", "4", "--fabric", fabric, "--top", "3"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out[: out.index("\ntop ")])
    memo = summary["model_memo"]
    assert summary["spec"]["fleet_size"] == 4
    assert memo["misses"] == memo["entries"] > 0
    assert memo["hits"] > 0
    assert summary["profiler"]["counters"]["ext2ph.model_cache_hit"] == memo["hits"]
    assert "ext2ph model memo:" in out
