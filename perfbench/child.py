"""One workload run in a fresh process; prints a JSON record as its last line.

Usage: python3 perfbench/child.py WORKLOAD SEED SIZES OUT_DIR MODE

MODE is ``plain`` (timed run), ``traced`` (timed run with spans and counts)
or ``setup`` (import and input building only, a cheap extra sample of
``setup_s``).

Only the standard library and the benchmark's own modules are imported
before the clock starts, so ``setup_s`` holds the import of scbit (and
numpy) and the building of the workload's inputs, as a command-line user
pays them on every run.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(name, seed, sizes, out_dir, mode):
    load_start = _loadavg()
    t_start = time.perf_counter()
    job = workloads.prepare(name, seed, workloads.SIZES[sizes][name], out_dir)
    import numpy
    import scbit

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(scbit.__file__).resolve().parents:
        raise RuntimeError(f"scbit imported from {scbit.__file__}, not from {src}")
    if mode == "setup":
        return {"setup_s": time.perf_counter() - t_start}
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.perf_counter()
    if tracer is None:
        job.run()
    else:
        try:
            with tracer.span("workload", "workload"):
                job.run()
        finally:
            tracer.uninstall()
    t_end = time.perf_counter()

    problems, derived = job.check()
    record = {
        "setup_s": t_ready - t_start,
        "run_s": t_end - t_ready,
        "wall_s": t_end - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": job.sim_cycles,
        "digests": {p.name: _sha256(p) for p in job.outputs},
        "loadavg": [load_start, _loadavg()],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        metrics, counts = tracer.layer_metrics()
        problems += tracer.problems
        # the same events read back from the CSV outputs must match the kernels
        for key, value in derived.items():
            if counts[key] != value:
                problems.append(f"{key}: traced {counts[key]} != {value} from outputs")
        tracer.write_spans(out_dir / "spans.csv")
        record.update(layers=metrics, counts=counts)
    record["problems"] = problems
    return record


def main(argv):
    name, seed, sizes, out_dir, mode = argv
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(name, int(seed), sizes, out_dir, mode)
    except Exception:  # reported to the parent, which counts the run as failed
        record = {"error": traceback.format_exc()}
    print(json.dumps(record))
    return 0 if "error" not in record else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
