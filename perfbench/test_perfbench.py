"""The benchmark's own checks: repeatable work, tracing that changes no
answer, a held-out seed that changes the corpus, and a refusal to run
without the library.

    python3 -m pytest perfbench -q      # about six minutes
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, load_library  # noqa: E402

WORK_COUNTS = (".calls", ".distinct", ".rows", ".models", ".oracle_calls",
               ".proved", ".found")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def traced(workload):
    p = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
              "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    detail, result = (json.loads(ln) for ln in p.stdout.splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_work_repeats_and_tracing_changes_no_answer(workload):
    first, second = traced(workload), traced(workload)
    counts = []
    for detail, result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert detail["digest"] == detail["traced_digest"]
        assert detail["counts_repeat"]   # the two traced passes in the run
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(WORK_COUNTS)})
    assert counts[0] == counts[1]
    assert first[0]["digest"] == second[0]["digest"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_gives_another_corpus_of_the_same_size(workload):
    w = WORKLOADS[workload]()
    lib = load_library()
    default = w.build(lib, run.DEFAULT_SEED)
    held_out = w.build(lib, run.HELD_OUT_SEED)
    assert len(held_out) == len(default)
    assert repr(held_out) != repr(default)
    assert repr(w.build(lib, run.DEFAULT_SEED)) == repr(default)


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = bench("--workload", "decide", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
