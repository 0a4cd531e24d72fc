"""portopt benchmark: ``portopt run`` on generated study universes, end to end
and layer by layer.

portopt is a batch tool, so its user pays for one study at a time: the wall
time of ``portopt run``, the set-up before any sector work, and the run's
peak memory.  Each invocation generates one workload's universe from the
seed (not timed), then:

--trace 0   starts one fresh ``python -m portopt.cli run`` after another
            (a closed loop with one client: never two at once) until
            the invocation has used --seconds, and reports medians of
              run_s        wall time of the whole run, interpreter start included
              setup_s      wall time of a fresh process that imports portopt.cli
                           and loads the workload's config
              peak_rss_mb  the run's own peak resident memory (wait4 rusage)
--trace 1   runs the pipeline in this process, alternating an untraced and a
            traced call, and reports per-layer self times and counts from
            spans recorded around the calls into each module (tracer.py);
            trace.overhead_s is the median traced minus the median
            untraced wall time.

Every run's artifacts are checked: exit code 0, no failed sector in the
manifest, and a digest of the output tree (manifest.json excluded) equal to
the one recorded in digests.json for this workload, seed and platform, or
else equal to the first run's.  Traced artifacts must match untraced ones byte for byte.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).

Workloads, and why each was chosen:

    nse_study    the paper's own study: every basket of configs/nse_sectors.yaml
                 with its MVP (10 000 samples) and HERC gap statistic (b=100);
                 MVP and the gap statistic's linkages dominate
    wide_sector  one sector of 72 tickers in 8 blocks; the O(n^3) linkage that
                 the gap statistic reruns 101 times dominates, MVP is minor
    long_panel   40 overlapping 12-ticker sectors over 5 years, ffill, no MVP
                 and a pinned HERC k; CSV parsing (480 parses of 120 files)
                 and report writes dominate, clustering is minor

wide_sector and long_panel are sized so that a --seconds 35 run holds five
or more ``portopt run`` samples for its medians.

Usage (from the repository root):

    python3 bench/run.py --workload nse_study --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all                # every workload in turn
    python3 bench/selftest.py                          # harness self-test
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
import universe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES_PER_RUN = 2
TRACE_PROBES = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn(argv, log_stem):
    """Run argv to completion, alone.

    Returns (exit code, wall seconds, the child's own peak RSS in MB, stdout,
    stderr).  wait4 reports the rusage of that one child, unlike the
    RUSAGE_CHILDREN maximum over every child reaped so far.
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def tree_digest(out_dir, pattern="*"):
    """SHA-256 over every matching file's relative path and bytes,
    manifest.json excluded (it embeds absolute paths)."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob(pattern) if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel != "manifest.json":
            digest.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class ArtifactCheck:
    """Compares output trees with the recorded digest, or the first one seen."""

    def __init__(self, expected):
        self.expected = expected
        self.first = None

    def __call__(self, out_dir, failures):
        """Return the error for this output tree, or None."""
        if failures:
            return f"manifest lists failed sectors: {failures}"
        digest = tree_digest(out_dir)
        self.first = self.first or digest
        expected = self.expected or self.first
        if digest != expected:
            return f"artifact digest {digest} != expected {expected}"
        return None


def study(config, out_dir, log_stem, check):
    """One ``portopt run`` in a fresh process: (error or None, wall s, peak MB)."""
    rc, wall, rss, _, err = spawn(
        [sys.executable, "-m", "portopt.cli", "run", "--config", str(config),
         "--out", str(out_dir)], log_stem)
    if rc != 0:
        error = f"portopt run exited {rc}: {err.strip()[-500:]}"
    else:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        error = check(out_dir, manifest["failures"])
    shutil.rmtree(out_dir, ignore_errors=True)
    return error, wall, rss


def setup_probe(config, log_stem):
    """One fresh-process set-up: (wall s, import s, config load s)."""
    rc, wall, _, out, err = spawn(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config)], log_stem)
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}: {err.strip()[-500:]}")
    probe = json.loads(out.splitlines()[-1])
    if not Path(probe["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported portopt from {probe['module']}, not {SRC}")
    return wall, probe["import_s"], probe["load_s"]


def timed_runs(config, work, deadline, check):
    """Rounds of set-up probes and one ``portopt run`` until the next round
    would pass the deadline.  Spreading the probes over the window lets both
    medians sample the same stretch of a machine whose speed drifts."""
    logs = work / "logs"
    setup_probe(config, logs / "warmup")  # bytecode compilation; discarded
    probes, walls, rss, errors = [], [], [], []
    while True:
        probes += [setup_probe(config, logs / f"probe{len(probes)}")
                   for _ in range(PROBES_PER_RUN)]
        error, wall, peak = study(config, work / f"out{len(walls)}",
                                  logs / f"run{len(walls)}", check)
        walls.append(wall)
        rss.append(peak)
        if error:
            errors.append(error)
        round_s = statistics.median(walls) + PROBES_PER_RUN * probes[-1][0]
        if perf_counter() + round_s > deadline:
            break
    return probes, walls, rss, errors


def import_portopt():
    sys.path.insert(0, str(SRC))
    import portopt.cli

    if not Path(portopt.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported portopt from {portopt.__file__}, not {SRC}")
    return portopt


def traced_runs(config, work, deadline, check):
    """Alternate untraced and traced in-process pipeline calls until the
    deadline.  Returns (untraced walls, traced walls, per-run layer metrics,
    per-run spans, errors)."""
    portopt = import_portopt()
    untraced, traced, layers, spans, errors = [], [], [], [], []

    def one(out_dir, trace):
        cfg = portopt.config.load_config(config)
        cfg.output_dir = out_dir
        start = perf_counter()
        if trace is None:
            manifest = portopt.pipeline.run_pipeline(cfg)
        else:
            with trace:
                manifest = trace.call("run_pipeline", portopt.pipeline.run_pipeline, cfg)
        return perf_counter() - start, check(out_dir, manifest.failures)

    while True:
        i = len(untraced)
        try:
            wall, error = one(work / f"in{i}", None)
            untraced.append(wall)
            trace = tracer.Tracer(tracer.targets(portopt))
            wall, traced_error = one(work / f"tr{i}", trace)
            traced.append(wall)
        except Exception:
            errors.append(traceback.format_exc())
            break
        errors += [e for e in (error, traced_error) if e]
        layers.append(tracer.layer_metrics(trace.spans))
        spans.append([span[:4] for span in trace.spans])
        shutil.rmtree(work / f"in{i}")
        shutil.rmtree(work / f"tr{i}")
        if perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    return untraced, traced, layers, spans, errors


def summary(values):
    """Median with quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def platform_id():
    """What the artifacts' floating-point bytes depend on besides the code:
    interpreter, numpy, and the CPU features BLAS picks its kernels by."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            flags = next((line for line in info if line.startswith("flags")), "")
    except OSError:
        flags = platform.processor()
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{platform.machine()}, cpu flags {hashlib.sha256(flags.encode()).hexdigest()[:12]}")


def recorded_digest(workload, seed):
    """The reference digest for this workload and seed, if one was recorded
    on a platform like this one."""
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    if recorded["platform"] != platform_id():
        return None
    return recorded["digests"].get(workload, {}).get(str(seed))


def run_record(workload, seed, seconds, trace, samples, extra):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source": tree_digest(SRC / "portopt", "*.py"),
        "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "platform": platform_id(),
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "samples": samples, **extra,
    }


def measure(workload, seed, seconds, trace, tiny):
    """Generate, run and check one workload; returns (result dict, table lines)."""
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    start = perf_counter()
    deadline = start + seconds
    try:
        config = universe.generate(workload, seed, work / "universe", tiny)
        generate_s = perf_counter() - start
        (work / "logs").mkdir()
        expected = None if tiny else recorded_digest(workload, seed)
        check = ArtifactCheck(expected)
        if trace:
            # one untraced ``portopt run`` gives the reference artifacts that
            # the in-process runs, traced or not, must reproduce
            error, _, _ = study(config, work / "ref", work / "logs" / "ref", check)
            probes = [setup_probe(config, work / "logs" / f"probe{i}")
                      for i in range(TRACE_PROBES)]
            untraced, traced, layers, spans, errors = traced_runs(
                config, work, deadline, check)
            if error:
                errors.insert(0, error)
            attempted = 1 + len(untraced) + len(traced)
            metrics = {
                **(tracer.median_metrics(layers) if layers else {}),
                "config.load_s": statistics.median(p[2] for p in probes),
                "cli.import_s": statistics.median(p[1] for p in probes),
                "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced)
                                     if traced else 0.0),
            }
            units = tracer.METRICS
            samples = {"untraced_s": untraced, "traced_s": traced,
                       "setup_s": [p[0] for p in probes]}
            WORK.mkdir(exist_ok=True)
            (WORK / f"spans-{workload}-s{seed}.json").write_text(
                json.dumps(spans), encoding="utf-8")
        else:
            probes, walls, rss, errors = timed_runs(config, work, deadline, check)
            attempted = len(walls)
            series = {"run_s": walls, "setup_s": [p[0] for p in probes], "peak_rss_mb": rss}
            metrics = {name: statistics.median(values) for name, values in series.items()}
            units = END_TO_END
            samples = series
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(workload, seed, seconds, trace, samples, {
        "generate_s": generate_s, "digest": check.first, "recorded_digest": expected})
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    lines = [f"{workload} seed={seed} trace={trace}: {attempted} attempted, "
             f"{len(errors)} failed, failed_ratio {len(errors) / attempted:.4g} ratio"]
    for name, value in metrics.items():
        spread = ""
        if not trace:
            q1, median, q3 = summary(series[name])
            spread = (f"   (of {len(series[name])}: min {min(series[name]):.6g}, "
                      f"q1 {q1:.6g}, median {median:.6g}, q3 {q3:.6g})")
        lines.append(f"  {name:32s} {value:>14.6g} {units[name]}{spread}")
    lines += [f"  error: {e}" for e in errors]
    lines.append("record " + json.dumps(record))
    result = {
        "correct": not errors and bool(metrics),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="portopt benchmark")
    parser.add_argument("--workload", required=True, choices=(*universe.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds, not a measurement)")
    args = parser.parse_args(argv)
    for needed in (SRC / "portopt" / "cli.py", universe.NSE_CONFIG):
        if not needed.is_file():
            print(f"bench: {needed} not found; run from a portopt checkout",
                  file=sys.stderr)
            return 2

    workloads = universe.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload], lines = measure(
            workload, args.seed, args.seconds, args.trace, args.tiny)
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
