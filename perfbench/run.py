"""glohage benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ingest,select_fgnet,lopo_synth}
        --seed N --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the root of a source checkout: the package is imported from
``src/``. Set-up generates the workload's corpus from the seed under
``.perfbench_work/`` and warms up a worker, three times; ``setup_s`` is
the median. Each timed pass then runs in a fresh worker process (worker.py),
one after another, for about ``--seconds`` in all; at least one pass runs.
End-to-end figures are medians over the untraced passes. With
``--trace 1`` every untraced pass is followed by a traced one, which gives
the per-layer metrics and the tracing overhead.

The next-to-last line of stdout is a JSON block of details (machine, input
and output digests, per-workload quality metrics, failed checks); the last
line is the result object ``{"correct", "attempted", "failed", "metrics"}``.
Exits 2 without a result when the package sources are missing or more BLAS
threads are requested than the process may use.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
RUN_DEADLINE_S = 170  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Measured on a shared 2-vCPU VM: with two threads the bandwidth-bound
# select_fgnet matvecs vary 10-15% from run to run with the neighbours'
# load, with one thread about 1%; lopo_synth's small matvecs are steadier
# and faster with two.
DEFAULT_BLAS_THREADS = {"ingest": 1, "select_fgnet": 1, "lopo_synth": 2}

WORKLOAD_METRICS = {  # reported in the details block where they apply
    "select_s": "s",
    "mae": "years",
    "support_recall": "ratio",
    "failed_ratio": "ratio",
}


def metric_units():
    """(end-to-end, per-layer) name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def blas_thread_count(workload, nproc):
    """Threads requested through the usual BLAS variables, else the default."""
    # OMP_NUM_THREADS may list one count per nesting level; the first counts
    asked = [int(os.environ[v].split(",")[0]) for v in BLAS_ENV if os.environ.get(v)]
    return max(asked) if asked else min(DEFAULT_BLAS_THREADS[workload], nproc)


def machine_block(nproc, threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{idx}/level") as lv, open(f"{base}/{idx}/type") as ty, \
                    open(f"{base}/{idx}/size") as sz:
                caches[f"L{lv.read().strip()}{ty.read().strip()[0].lower()}"] = \
                    sz.read().strip()
        except OSError:
            continue
    return {
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }


def expected_digest(workload, scale, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(scale, {}).get(str(seed))


class Run:
    def __init__(self, args, work, started):
        self.args, self.work, self.started = args, work, started
        self.checks = []  # [name, ok, detail]
        self.passes, self.traced = [], []

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), "" if ok else str(detail)[:300]])

    def worker(self, *argv):
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            timeout=timeout, capture_output=True, text=True)

    def setup(self, corpus):
        times, digests, corpus_dir = [], [], None
        for i in range(SETUPS):
            old, corpus_dir = corpus_dir, os.path.join(self.work, f"corpus{i}")
            t0 = time.perf_counter()
            info = corpus.generate(self.args.workload, self.args.scale,
                                   self.args.seed, corpus_dir)
            digests.append(corpus.digest(corpus_dir))
            warm = self.worker(corpus_dir, "--warmup")
            times.append(time.perf_counter() - t0)
            self.check("warm-up worker exits 0", warm.returncode == 0, warm.stderr)
            if old:
                shutil.rmtree(old)
        self.check("inputs identical across set-ups", len(set(digests)) == 1, digests)
        want = expected_digest(self.args.workload, self.args.scale, self.args.seed)
        if want is not None:
            self.check("inputs match the recorded digest", digests[0] == want,
                       f"{digests[0]} != {want}")
        return corpus_dir, info, digests[0], statistics.median(times)

    def one_pass(self, corpus_dir, traced):
        k = len(self.passes) + len(self.traced)
        out = os.path.join(self.work, f"out{k}")
        os.makedirs(out)
        result_path = os.path.join(self.work, f"result{k}.json")
        argv = [corpus_dir, out, result_path] + (["--trace"] if traced else [])
        try:
            proc = self.worker(*argv)
        except subprocess.TimeoutExpired:
            self.check("pass ends before the run deadline", False)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.check("worker exits 0", False, proc.stderr.strip()[-300:])
            return None
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        self.checks.extend(res["checks"])
        shutil.rmtree(out)
        (self.traced if traced else self.passes).append(res)
        return res

    def measure(self, corpus_dir):
        t0 = time.perf_counter()
        while True:
            for traced in (False, True) if self.args.trace else (False,):
                res = self.one_pass(corpus_dir, traced)
                if res is None or "wall_s" not in res:
                    return
            # one more round only if it ends nearer to --seconds than stopping
            spent = time.perf_counter() - t0
            if spent + spent / len(self.passes) / 2 > self.args.seconds:
                return


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ingest", "select_fgnet", "lopo_synth"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "glohage", "cli.py")):
        return fail(f"no package sources under {os.path.join(ROOT, 'src')}")
    nproc = len(os.sched_getaffinity(0))
    threads = blas_thread_count(args.workload, nproc)
    if threads > nproc:
        return fail(f"{threads} BLAS threads requested, only {nproc} CPUs usable")
    # fixed before numpy loads, here and in every worker
    os.environ.update({v: str(threads) for v in BLAS_ENV})
    import corpus

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = Run(args, work, started)
    try:
        corpus_dir, info, input_digest, setup_s = run.setup(corpus)
        run.measure(corpus_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    passes = [r for r in run.passes if "wall_s" in r]
    traced = [r for r in run.traced if "wall_s" in r]
    outputs = {}
    for r in run.passes + run.traced:
        for k, v in r["digests"].items():
            outputs.setdefault(k, set()).add(v)
    for k, v in outputs.items():
        run.check(f"{k} identical across passes", len(v) == 1, sorted(v))
    failed = sum(1 for c in run.checks if not c[1])
    attempted = len(run.checks)

    quality = {"failed_ratio": failed / attempted}
    if passes:
        if "select_s" in passes[0]:
            quality["select_s"] = median_of(passes, "select_s")
        quality.update(passes[0]["metrics"])  # deterministic per seed
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace,
        "machine": machine_block(nproc, threads),
        "blas_threads_loaded": passes[0]["blas_threads"] if passes else {},
        "input_sha256": input_digest,
        "output_sha256": {k: sorted(v) for k, v in outputs.items()},
        "pass_wall_s": [r["wall_s"] for r in passes],
        "traced_pass_wall_s": [r["wall_s"] for r in traced],
        "workload_metrics": {k: {"value": v, "unit": WORKLOAD_METRICS[k]}
                             for k, v in quality.items()},
        "failed_checks": [c for c in run.checks if not c[1]],
    }, sort_keys=True))

    wall = median_of(passes, "wall_s")
    if wall is None or (args.trace and not traced):
        return 1
    e2e_units, layer_units = metric_units()
    if args.trace:
        values = dict(traced[0]["per_layer"])
        values["trace.overhead_ratio"] = median_of(traced, "wall_s") / wall - 1.0
        units = layer_units
    else:
        values = {"setup_s": setup_s, "wall_s": wall,
                  "peak_rss_mb": median_of(passes, "peak_rss_mb"),
                  "images_per_s": info["n_images"] / wall}
        units = e2e_units
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
