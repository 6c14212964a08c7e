import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _newest_bench_file() -> Path:
    files = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    assert files, "no BENCH_<pr>.json at the root of the repository"
    return files[max(files)]


@pytest.mark.parametrize("values, expected", [
    ([5.0, 1.0, 4.0, 2.0, 3.0], (2.0, 3.0, 4.0)),
    ([1.0, 2.0], (1.25, 1.5, 1.75)),
    ([7.0], (7.0, 7.0, 7.0)),
])
def test_summary_gives_median_and_quartiles(values, expected):
    got = _load_script().summary(values)
    assert (got["q25"], got["median"], got["q75"]) == expected
    assert got["runs"] == len(values) and got["values"] == values


def test_newest_bench_file_has_every_metric_of_every_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(_newest_bench_file().read_text())
    env = bench["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and env["git_revision"]
    assert isinstance(env["git_dirty"], bool) and isinstance(env["dont_write_bytecode"], bool)
    for workload in (w["name"] for w in declared["workloads"]):
        entry = bench["workloads"][workload]
        assert 0 <= entry["failed"] <= entry["attempted"]
        for name in (m["name"] for m in declared["end_to_end"]):
            m = entry["metrics"][name]
            assert m["runs"] == len(m["values"]) >= 5, (workload, name)
            assert 0 < m["q25"] <= m["median"] <= m["q75"], (workload, name)
