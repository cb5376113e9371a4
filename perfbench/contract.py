"""The output contract of the repository benchmark, as executable checks.

`load_spec` validates BENCHMARK.json; `check_result` validates the last
stdout line of one benchmark run against it. run.py applies both to every
run, and test_contract.py proves they reject malformed input.
"""

import json
import math
import re
from pathlib import Path

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BOUND = 0.25


class ContractError(ValueError):
    pass


def _require(condition, message):
    if not condition:
        raise ContractError(message)


def _check_metric_list(metrics, keys, what):
    _require(isinstance(metrics, list), f"{what} must be a list")
    for m in metrics:
        _require(isinstance(m, dict) and set(m) == keys,
                 f"{what} entry {m!r} must have exactly {sorted(keys)}")
        _require(isinstance(m["name"], str) and NAME_RE.match(m["name"]),
                 f"bad metric name {m['name']!r}")
        _require(isinstance(m["unit"], str) and UNIT_RE.match(m["unit"]),
                 f"bad unit {m['unit']!r} of {m['name']}")
        _require(m["better"] in ("lower", "higher"),
                 f"{m['name']}: better must be lower or higher")
        if "bound" in keys:
            _require(isinstance(m["bound"], (int, float))
                     and not isinstance(m["bound"], bool)
                     and 0 < m["bound"] <= MAX_BOUND,
                     f"{m['name']}: bound must be in (0, {MAX_BOUND}]")


def load_spec(path):
    """Parses BENCHMARK.json and checks it against the contract."""
    text = Path(path).read_text()
    _require(len(text.encode()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    spec = json.loads(text)
    _require(isinstance(spec, dict) and set(spec) == SPEC_KEYS,
             f"BENCHMARK.json must have exactly the keys {sorted(SPEC_KEYS)}")

    command = spec["command"]
    _require(isinstance(command, list) and 1 <= len(command) <= 32
             and all(isinstance(c, str) and len(c) <= 200 for c in command),
             "command must be a list of at most 32 strings of <= 200 chars")
    for c in command:
        _require(not c.startswith("/") and ".." not in c.split("/"),
                 f"command element {c!r} leaves the checkout")

    paths = spec["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16,
             "paths must list 1 to 16 directories")
    for p in paths:
        _require(isinstance(p, str) and PATH_RE.match(p)
                 and not p.startswith("/") and ".." not in p.split("/"),
                 f"bad path {p!r}")

    seconds = spec["run_seconds"]
    _require(isinstance(seconds, int) and not isinstance(seconds, bool)
             and 1 <= seconds <= 60, "run_seconds must be an integer 1..60")

    workloads = spec["workloads"]
    _require(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
             "2 to 8 workloads")
    for w in workloads:
        _require(isinstance(w, dict) and set(w) == {"name", "why"},
                 f"workload {w!r} must have exactly name and why")
        _require(isinstance(w["name"], str) and NAME_RE.match(w["name"]),
                 f"bad workload name {w['name']!r}")
        _require(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200
                 and "\n" not in w["why"], f"bad why of {w['name']}")

    e2e, layer = spec["end_to_end"], spec["per_layer"]
    _check_metric_list(e2e, {"name", "unit", "better", "bound"}, "end_to_end")
    _check_metric_list(layer, {"name", "unit", "better"}, "per_layer")
    _require(1 <= len(e2e) <= 16, "1 to 16 end_to_end metrics")
    _require(1 <= len(layer) <= 128, "1 to 128 per_layer metrics")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s"
             and setup[0]["better"] == "lower",
             "end_to_end needs setup_s in s, better lower")
    _require(setup[0]["bound"] == max(m["bound"] for m in e2e),
             "setup_s must carry the largest bound")

    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layer]
    _require(len(names) == len(set(names)), "every name must be used once")
    return spec


def expected_metrics(spec, trace):
    """{name: unit} that a run with --trace <trace> must report."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def check_result(line, spec, trace):
    """Parses one result line and checks it; returns the parsed object."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise ContractError(f"result line is not JSON: {e}") from e
    _require(isinstance(result, dict) and set(result) == RESULT_KEYS,
             f"result must have exactly the keys {sorted(RESULT_KEYS)}")
    _require(isinstance(result["correct"], bool), "correct must be a bool")
    for key in ("attempted", "failed"):
        value = result[key]
        _require(isinstance(value, int) and not isinstance(value, bool)
                 and value >= 0, f"{key} must be a whole number")
    _require(result["attempted"] >= 1, "attempted must be at least 1")

    want = expected_metrics(spec, trace)
    metrics = result["metrics"]
    _require(isinstance(metrics, dict), "metrics must be an object")
    _require(set(metrics) == set(want),
             f"metrics missing {sorted(set(want) - set(metrics))}, "
             f"unexpected {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics[name]
        _require(isinstance(m, dict) and set(m) == {"value", "unit"},
                 f"metric {name} must be {{value, unit}}")
        _require(m["unit"] == unit,
                 f"{name}: unit {m['unit']!r}, want {unit!r}")
        v = m["value"]
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v), f"{name}: value {v!r} is not a number")
    return result
