"""Host-time benchmark for the scbit sweeps.

    python3 perfbench/run.py --workload headline_novel --seed 1 --seconds 30 --trace 0

Runs the workload repeatedly, each time in a fresh single process
(``child.py``), until ``--seconds`` have passed, and prints the medians.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer split (self time per scbit module, counts, tracing overhead).
Every output file is compared byte for byte: against the digests in
``digests.json`` for the recorded seeds, otherwise between the runs. A run
that raises or writes other bytes counts as failed and is not retried. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --smoke     # every workload at tiny L, schema checks
    python3 perfbench/run.py --record    # rewrite digests.json for the recorded seeds

All times are host time, measured with ``time.perf_counter`` inside each
run's own process; memory is that process's ``ru_maxrss``.
"""

import argparse
import compileall
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 977  # recorded, never used while sizing the workloads
DEADLINE_S = 170.0  # a whole invocation ends within this
MAX_SECONDS = 100.0  # --seconds is capped so the last run still ends before DEADLINE_S
# setup_s is a median over at least this many fresh processes
SETUP_SAMPLES = {"full": 5, "smoke": 2}

SELF_TIMES = (
    "batch.engine_s", "batch.encode_s", "streams.encode_s", "rng.spawn_s", "batch.faults_s",
    "batch.tree_s", "batch.canceler_s", "engine.run_s", "baseline.run_s", "cli.self_s",
    "experiments.self_s", "experiments.report_s",
)
ENCODING = ("batch.encode_s", "streams.encode_s", "rng.spawn_s")


def _predictions(workload, t):
    """Expectations written before measuring: (text, held). Reported, never enforced."""
    self_times = {k: t[k] for k in SELF_TIMES}
    largest = max(self_times, key=self_times.get)
    encoding = sum(t[k] for k in ENCODING)
    others = max(v for k, v in self_times.items() if k not in ENCODING)
    checks = {
        "headline_novel": [("batch.engine_s is the largest self time", largest == "batch.engine_s")],
        "fault_sweep": [],
        "tree_capacity_sweep": [
            ("batch.encode_s + streams.encode_s + rng.spawn_s exceed every other self time",
             encoding > others),
        ],
        "cli_single_shot": [],
    }[workload]
    checks.append(("batch.faults_s is non-zero on fault_sweep only",
                   (t["batch.faults_s"] > 0) == (workload == "fault_sweep")))
    checks.append(("engine.run_s is non-zero on cli_single_shot only",
                   (t["engine.run_s"] > 0) == (workload == "cli_single_shot")))
    return checks


# -- running children ----------------------------------------------------


def _child(workload, seed, sizes, out_dir, mode, timeout):
    """One workload run in a fresh process; returns its record."""
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), sizes,
            str(out_dir), mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record["mode"] = mode
    return record


def _run_children(workload, seed, sizes, seconds, trace, run_dir, started):
    """Repeat runs (plain, or plain/traced pairs) for ``seconds``.

    Then add set-up-only runs until ``setup_s`` has enough samples.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    records, rounds, begin = [], 0, time.monotonic()

    def child(mode):
        left = DEADLINE_S - (time.monotonic() - started)
        record = _child(workload, seed, sizes, run_dir / f"run{len(records)}", mode, left)
        records.append(record)
        return "timed out" not in record.get("error", "")

    while all(child(mode) for mode in modes):
        rounds += 1
        elapsed = time.monotonic() - begin
        # start another round only if it should end within the budget
        if elapsed + elapsed / rounds > min(seconds, MAX_SECONDS):
            break
    while sum(r["mode"] != "traced" for r in records) < SETUP_SAMPLES[sizes]:
        if not child("setup"):
            break
    return records


def _recorded(workload, seed, sizes):
    """Recorded digests and counts for this seed, or None."""
    if sizes != "full" or not DIGESTS.exists():
        return None
    data = json.loads(DIGESTS.read_text())
    entry = data["seeds"].get(str(seed), {}).get(workload)
    if entry is None:
        return None
    if data["sizes"] != workloads.SIZES["full"]:
        return {"stale": True}
    return entry


def _failed(record):
    return "error" in record or bool(record.get("problems"))


def _judge(records, reference):
    """Add a problem to each run whose bytes or counts differ from the reference."""
    runs = [r for r in records if "error" not in r and r["mode"] != "setup"]
    if reference is None:
        ok = [r for r in runs if not r["problems"]]
        reference = {
            "digests": next((r["digests"] for r in ok), None),
            "counts": next((r["counts"] for r in ok if r["mode"] == "traced"), None),
        }
    for r in runs:
        for key in ("digests", "counts"):
            want = reference[key]
            if key in r and want is not None and r[key] != want:
                differ = sorted(k for k in r[key] if r[key][k] != want.get(k))
                r["problems"].append(f"{key} differ from the reference: {differ}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summaries(records, trace):
    """Median and quartiles of every reported metric over completed runs."""
    done = [r for r in records if "error" not in r]
    plain = [r for r in done if r["mode"] == "plain"]
    traced = [r for r in done if r["mode"] == "traced"]
    series = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in done if r["mode"] != "traced"],
        "sim_cycles_per_s": [r["sim_cycles"] / r["run_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if trace and traced and plain:
        for name in traced[0]["layers"]:
            series[name] = [r["layers"][name] for r in traced]
        for name, value in traced[0]["counts"].items():
            series[name] = [value]
        series["tracing.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced) - statistics.median(series["wall_s"])
        ]
    return {
        name: (statistics.median(v), *_quartiles(v), len(v))
        for name, v in series.items() if v
    }


def measure(workload, seed, seconds, trace, sizes="full"):
    """Run one benchmark invocation; returns (result line, details)."""
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env_start = _environment()
    run_dir = WORK / workload / f"seed{seed}-trace{int(trace)}-{sizes}"
    shutil.rmtree(run_dir, ignore_errors=True)
    records = _run_children(workload, seed, sizes, seconds, trace, run_dir, started)

    reference = _recorded(workload, seed, sizes)
    problems = []
    if reference and reference.get("stale"):
        problems.append("digests.json was recorded for other sizes; run --record")
        reference = None
    _judge(records, reference)
    runs = [r for r in records if r["mode"] != "setup"]
    failed = sum(map(_failed, runs))
    if any(_failed(r) for r in records if r["mode"] == "setup"):
        problems.append("a set-up-only run failed")
    summary = _summaries(records, trace)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in summary]
    if missing:
        problems.append(f"no value for {missing}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
            for m in wanted if m["name"] in summary
        },
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "sizes": workloads.SIZES[sizes][workload],
        "recorded_reference": reference is not None,
        "problems": problems,
        "summary": summary,
        "env": {
            **env_start,
            "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
            "loadavg_end": _read("/proc/loadavg", "").split()[:3],
        },
        "runs": records,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    return result, details


# -- environment ---------------------------------------------------------


def _environment():
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": None,
        "git_dirty": None,
        "loadavg_start": _read("/proc/loadavg", "").split()[:3],
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def _cpu_model():
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _read(path, default):
    try:
        return Path(path).read_text()
    except OSError:
        return default


# -- reporting -----------------------------------------------------------


def _report(result, details, units):
    d = details
    print(f"perfbench {d['workload']} seed={d['seed']} trace={d['trace']} sizes={d['sizes']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  runs attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {error_rate:.3f}, digests "
          f"{'recorded' if d['recorded_reference'] else 'compared between runs'}")
    for name, (median, q1, q3, n) in d["summary"].items():
        print(f"  {name:32s} {median:14.6g} {units.get(name, ''):6s} "
              f"q1 {q1:.6g} q3 {q3:.6g} n={n}")
    for r in d["runs"]:
        for problem in ([r["error"]] if "error" in r else r.get("problems", [])):
            print(f"  FAILED run: {problem.strip().splitlines()[-1]}")
    for problem in d["problems"]:
        print(f"  FAILED: {problem}")
    if d["trace"]:
        layers = {n: s[0] for n, s in d["summary"].items()}
        for text, held in _predictions(d["workload"], layers):
            print(f"  prediction {'held' if held else 'FAILED'}: {text}")
    print("env: " + json.dumps(d["env"]))


# -- smoke and record modes ----------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _check_benchmark_file(bench):
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not _NAME.match(m["name"]) or not _UNIT.match(m["unit"]):
            problems.append(f"bad metric name or unit: {m}")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25 or m["better"] not in ("lower", "higher"):
            problems.append(f"bad bound or direction: {m}")
    return problems


def smoke():
    """Every workload at tiny sizes, untraced and traced; checks the result schema."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_benchmark_file(bench)
    for workload in workloads.NAMES:
        for trace in (0, 1):
            result, details = measure(workload, DEFAULT_SEED, 0, trace, sizes="smoke")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            expected = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != expected:
                problems.append(f"{tag}: metrics {got} != {expected}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: not correct: {details['problems']} {details['runs']}")
            for name, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {name} = {v['value']!r}")
                elif not trace and v["value"] <= 0:
                    problems.append(f"{tag}: end-to-end {name} is not positive")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def record():
    """Rewrite digests.json from one untraced and one traced run per seed."""
    data = {"sizes": workloads.SIZES["full"], "seeds": {}}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in workloads.NAMES:
            run_dir = WORK / workload / f"record-seed{seed}"
            records = [
                _child(workload, seed, "full", run_dir / f"run{i}", mode, DEADLINE_S)
                for i, mode in enumerate(("plain", "traced"))
            ]
            _judge(records, None)
            if any(map(_failed, records)):
                print(f"record {workload} seed {seed} failed: {records}")
                return 1
            data["seeds"].setdefault(str(seed), {})[workload] = {
                "digests": records[0]["digests"],
                "counts": records[1]["counts"],
            }
            print(f"recorded {workload} seed {seed}")
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "scbit" / "__init__.py").is_file():
        print(f"error: no scbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "scbit", quiet=1)  # no byte-compiling in timed runs
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    _report(result, details, units)
    if not any("error" not in r and r["mode"] != "setup" for r in details["runs"]):
        print("error: no run completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
