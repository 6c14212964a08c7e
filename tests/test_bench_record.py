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


def test_against_alternates_the_sides_and_counts_the_pairs_won(tmp_path, monkeypatch):
    script = _load_script()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"]]
    other = tmp_path / "other"
    (other / "bench").mkdir(parents=True)
    (other / "bench" / "run.py").write_text("")
    calls = []

    def run_once(workload, seed, seconds, size, root=script.ROOT):
        ours = root == script.ROOT
        calls.append((workload, seed, "ours" if ours else "theirs"))
        # ours is faster on seeds 1 and 3 only; "theirs" reports no wall_s on seed 4
        value = float(seed) + (-0.5 if ours and seed in (1, 3) else 0.0)
        metrics = {n: {"value": value} for n in names
                   if ours or seed != 4 or n != "wall_s"}
        return {"attempted": 2, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "run_once", run_once)
    out = tmp_path / "BENCH_0.json"
    assert script.main(["--pr", "0", "--seeds", "4", "--seconds", "1", "--out", str(out),
                        "--against", str(other)]) == 0
    workloads = [w["name"] for w in declared["workloads"]]
    order = [("ours", "theirs"), ("theirs", "ours")] * 2
    assert calls == [(wl, seed, who) for wl in workloads
                     for seed, first in zip(range(1, 5), order) for who in first]
    bench = json.loads(out.read_text())
    assert bench["against"]["path"] == str(other) and bench["against"]["git_revision"] is None
    for wl in workloads:
        entry = bench["workloads"][wl]
        # this checkout's results keep the layout the newest-file test reads
        assert entry["metrics"]["result_s"]["values"] == [0.5, 2.0, 2.5, 4.0]
        assert entry["against"]["metrics"]["result_s"]["values"] == [1.0, 2.0, 3.0, 4.0]
        assert entry["against"]["metrics"]["wall_s"]["values"] == [1.0, 2.0, 3.0]
        assert entry["against"]["attempted"] == entry["attempted"] == 8
        assert entry["pairs"]["result_s"] == {"won": 2, "pairs": 4}
        assert entry["pairs"]["wall_s"] == {"won": 2, "pairs": 3}


def test_against_needs_a_checkout_with_a_benchmark(tmp_path, capsys):
    with pytest.raises(SystemExit):
        _load_script().main(["--pr", "0", "--against", str(tmp_path)])
    assert "holds no bench/run.py" in capsys.readouterr().err
