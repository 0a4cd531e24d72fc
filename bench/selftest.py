"""Self-test of the benchmark harness at tiny workload sizes (about a minute).

Checks that
  * run.py prints every metric BENCHMARK.json names, with its unit, for each
    workload in both trace modes, and that those runs pass their own checks;
  * the artifact check flags a one-byte change made in a copy of an output
    tree, and ignores manifest.json.

Usage (from the repository root): python3 bench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys

import run
import universe


def check_metrics(spec, problems):
    for workload in universe.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: run not clean: {proc.stdout[-2000:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if sorted(got) != sorted(wanted):
                problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}")
            for name, metric in got.items():
                value = metric["value"]
                if metric["unit"] != wanted.get(name):
                    problems.append(f"{where}: {name} unit {metric['unit']!r}, "
                                    f"expected {wanted.get(name)!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value!r}")
            print(f"selftest: {where}: {len(got)} metrics", flush=True)


def check_digest(problems):
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = universe.generate("nse_study", 0, work / "universe", tiny=True)
        work.joinpath("logs").mkdir()
        out = work / "out"
        rc, *_ = run.spawn([sys.executable, "-m", "portopt.cli", "run", "--config",
                            str(config), "--out", str(out)], work / "logs" / "run")
        if rc != 0:
            problems.append(f"portopt run exited {rc}")
            return
        reference = run.tree_digest(out)
        copy = work / "copy"
        shutil.copytree(out, copy)
        if run.tree_digest(copy) != reference:
            problems.append("digest of an identical copy differs")
        (copy / "manifest.json").write_text("{}\n", encoding="utf-8")
        if run.tree_digest(copy) != reference:
            problems.append("digest depends on manifest.json")
        target = sorted(p for p in copy.rglob("*.csv"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        check = run.ArtifactCheck(reference)
        if check(copy, {}) is None:
            problems.append(f"one-byte change in {target.name} not flagged")
        print("selftest: artifact check flags a one-byte change", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    check_digest(problems)
    check_metrics(spec, problems)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
