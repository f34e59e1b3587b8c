"""BENCHMARK.json against run.py, and the instance plans of the workloads.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import re
from pathlib import Path

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_and_units_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["degree", "hilbert", "oracle", "cli"]
    assert SPEC["run_seconds"] == run.RUN_SECONDS


def test_spec_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_plans_repeat_no_instance_within_a_sweep_and_follow_the_seed():
    for workload in ("degree", "hilbert", "oracle", "cli"):
        first = workloads.plan(workload, 3)
        again = workloads.plan(workload, 3)
        other = workloads.plan(workload, 4)
        for i in range(3):
            ops = first.sweep(i)
            keys = [json.dumps(op, sort_keys=True) for op in ops]
            assert len(set(keys)) == len(keys)
            assert ops == again.sweep(i)
        assert first.sweep(0) != other.sweep(0)


def test_every_sweep_has_the_same_make_up():
    for workload in ("degree", "hilbert", "oracle", "cli"):
        plan = workloads.plan(workload, 5)
        sizes = {len(plan.sweep(i)) for i in range(6)}
        assert len(sizes) == 1
    cli = workloads.plan("cli", 5)
    assert all(sum(1 for op in cli.sweep(i) if op.get("fault")) == 1 for i in range(6))
