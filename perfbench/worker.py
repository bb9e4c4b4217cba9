"""One timed pass of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py CORPUS_DIR OUT_DIR RESULT_JSON [--trace]
    python3 perfbench/worker.py CORPUS_DIR --warmup

``run.py`` starts one worker per pass, so the peak resident memory a
worker reports belongs to the pass and not to corpus generation. The pass
drives the ``glohage`` CLI in-process through ``cli.main``; with
``--trace`` the package's public functions are wrapped (see tracer.py).
After the timed part the tracer is removed and the outputs are checked.
"""

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from glohage import cli, featfile, gloh, mtl, pgm, ridge  # noqa: E402

FEATURE_DIM = 48960  # GLOH length of a 68x62 image at the default geometry
EXTRACT_CHECK_ROWS = 8


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def peak_rss_mb():
    # VmHWM belongs to this process image only; ru_maxrss can carry the
    # parent's peak across fork+exec
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def read_manifest(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Pass:
    """Inputs, outputs and check results of one corpus instance in a pass."""

    def __init__(self, corpus_dir, out_dir, clock, checks):
        with open(os.path.join(corpus_dir, "corpus.json"), encoding="utf-8") as fh:
            self.info = json.load(fh)
        self.corpus_dir, self.out_dir, self.clock = corpus_dir, out_dir, clock
        self.name = os.path.basename(corpus_dir)
        os.makedirs(out_dir)
        self.checks = checks  # [name, ok, detail], shared by the instances
        self.metrics = {}
        self.digests = {}

    def inp(self, key):
        return os.path.join(self.corpus_dir, self.info[key])

    def out(self, name):
        return os.path.join(self.out_dir, name)

    def check(self, name, ok, detail=""):
        self.checks.append([f"{self.name}: {name}", bool(ok),
                            "" if ok else str(detail)[:300]])

    def cli(self, *argv):
        # cli.main is looked up at call time so a traced pass sees the shim
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        self.check(f"glohage {argv[0]} exits 0", rc == 0, err.getvalue().strip())


# --- ingest: extract + GFV1 read-back ---

def run_ingest(p):
    gfv = p.out("features.gfv")
    t0 = p.clock()
    p.cli("extract", "--manifest", p.inp("manifest"), "--out", gfv)
    feats = featfile.read_features(gfv)
    return {"wall_s": p.clock() - t0}, feats


def check_ingest(p, feats):
    gfv = p.out("features.gfv")
    n = p.info["n_images"]
    p.check("features shape", feats.shape == (n, FEATURE_DIM), feats.shape)
    raw = corpus.read_gfv1(gfv)
    p.check("GFV1 read-back bit-identical",
            feats.dtype == np.float32
            and np.array_equal(feats.view(np.uint32), raw.view(np.uint32)))
    rows = read_manifest(p.inp("manifest"))
    same = True
    for r in sorted({int(i) for i in np.linspace(0, n - 1, EXTRACT_CHECK_ROWS)}):
        img = pgm.load_pgm(os.path.join(p.corpus_dir, rows[r]["path"]))
        ref = gloh.extract_gloh(img).astype(np.float32)
        same = same and np.array_equal(ref.view(np.uint32), raw[r].view(np.uint32))
    p.check("extracted rows match a fresh extract_gloh", same)
    p.digests["features_sha256"] = sha256_file(gfv)


# --- select_fgnet: select, train --selection, predict ---

def run_select(p):
    budget = str(p.info["budget"])
    sel, model, preds = p.out("sel.txt"), p.out("model.txt"), p.out("preds.csv")
    t0 = p.clock()
    p.cli("select", "--manifest", p.inp("manifest"), "--features",
          p.inp("features"), "--out", sel, "--budget", budget)
    t1 = p.clock()
    p.cli("train", "--manifest", p.inp("manifest"), "--features",
          p.inp("features"), "--out", model, "--selection", sel, "--budget", budget)
    p.cli("predict", "--model", model, "--features", p.inp("heldout_features"),
          "--manifest", p.inp("heldout_manifest"), "--out", preds)
    return {"wall_s": p.clock() - t0, "select_s": t1 - t0}, None


def parse_glohsel(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["GLOHSEL 1"]:
        raise ValueError(f"{path}: not GLOHSEL")
    rows = [ln.split() for ln in lines[3:] if ln]
    return [int(r[0]) for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def parse_glohridge(path):
    """task -> (intercept, clamp, bins, weights)."""
    tasks, task = {}, None
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if lines[:1] != ["GLOHRIDGE 1"]:
        raise ValueError(f"{path}: not GLOHRIDGE")
    for ln in lines[1:]:
        key, _, value = ln.partition("=")
        if key == "task":
            task = tasks.setdefault(value, {"bins": [], "weights": []})
        elif key in ("alpha", "intercept"):
            task[key] = float(value)
        elif key == "clamp":
            task[key] = tuple(float(v) for v in value.split())
        else:
            b, w = ln.split()
            task["bins"].append(int(b))
            task["weights"].append(float(w))
    return tasks


def check_select(p, _):
    sel, model = p.out("sel.txt"), p.out("model.txt")
    bins, W = parse_glohsel(sel)
    p.check("selection has 1..budget bins", 1 <= len(bins) <= p.info["budget"],
            len(bins))
    again = mtl.read_selection(sel, FEATURE_DIM, 2)
    p.check("GLOHSEL re-reads to the same bins and weights",
            list(again.selected) == bins and np.array_equal(again.W[bins], W))

    tasks = parse_glohridge(model)
    m = ridge.read_model(model)
    p.check("GLOHRIDGE re-reads to the same bins and weights",
            list(m.selected) == bins
            and all(t["bins"] == bins for t in tasks.values())
            and set(m.weights) == set(tasks)
            and all(np.array_equal(m.weights[k], t["weights"]) for k, t in tasks.items()))

    X = corpus.read_gfv1(p.inp("heldout_features"))
    rows = read_manifest(p.inp("heldout_manifest"))
    task_of = {"m": "male", "f": "female"}
    expected = []
    for x, row in zip(X, rows):
        t = tasks[task_of.get(row["gender"], "pooled")]
        raw = float(x[bins].astype(np.float64) @ np.array(t["weights"])) + t["intercept"]
        expected.append(min(max(raw, t["clamp"][0]), t["clamp"][1]))
    with open(p.out("preds.csv"), encoding="utf-8") as fh:
        preds = np.array([float(r["pred_age"]) for r in csv.DictReader(fh)])
    p.check("predictions match the GLOHRIDGE model",
            preds.shape == (p.info["n_heldout"],)
            and np.allclose(preds, expected, rtol=1e-9, atol=1e-9))

    ages = np.array([float(r["age"]) for r in rows])
    if preds.shape == ages.shape:
        p.metrics["mae"] = float(np.mean(np.abs(preds - ages)))
    planted = set(p.info["planted"])
    p.metrics["support_recall"] = len(planted & set(bins)) / len(planted)
    p.digests["selected_bins_sha256"] = hashlib.sha256(
        ",".join(map(str, bins)).encode()).hexdigest()


# --- lopo_synth: evaluate ---

def run_lopo(p):
    t0 = p.clock()
    p.cli("evaluate", "--manifest", p.inp("manifest"), "--features",
          p.inp("features"), "--out", p.out("report.csv"),
          "--budget", str(p.info["budget"]))
    return {"wall_s": p.clock() - t0}, None


def check_lopo(p, _):
    report = p.out("report.csv")
    with open(report, encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()]
    folds = [r for r in rows if r[0] == "fold"]
    p.check("one fold row per person", len(folds) == p.info["n_folds"], len(folds))
    n = sum(int(r[2]) for r in folds)
    p.check("fold sizes sum to the row count", n == p.info["n_rows"], n)
    summary = [r for r in rows if r[0] == "summary"]
    ok = len(summary) == 1 and int(summary[0][1]) == p.info["n_rows"]
    p.check("summary row counts every row", ok, summary)
    if ok:
        p.metrics["mae"] = float(summary[0][2])
    p.digests["report_sha256"] = sha256_file(report)


WORKLOADS = {
    "ingest": (run_ingest, check_ingest),
    "select_fgnet": (run_select, check_select),
    "lopo_synth": (run_lopo, check_lopo),
}


def run_pass(corpus_dir, out_dir, traced):
    with open(os.path.join(corpus_dir, "corpus.json"), encoding="utf-8") as fh:
        top = json.load(fh)
    run, check = WORKLOADS[top["workload"]]
    tracer = tracing.Tracer() if traced else None
    clock = tracer.now if traced else time.perf_counter
    checks, result, parts = [], {}, []
    try:
        parts = [Pass(os.path.join(corpus_dir, name), os.path.join(out_dir, name),
                      clock, checks) for name in top["instances"]]
        states = []
        if traced:
            tracer.install()
        try:
            for p in parts:
                times, state = run(p)
                states.append(state)
                for k, v in times.items():
                    result[k] = result.get(k, 0.0) + v
        finally:
            if traced:
                tracer.restore()
        result["peak_rss_mb"] = peak_rss_mb()
        for p, state in zip(parts, states):
            check(p, state)
    except Exception:  # report any failure as a failed check, not a crash
        checks.append(["pass completes", False, traceback.format_exc(limit=-3)])
        result.pop("wall_s", None)
    if traced:
        result["per_layer"] = tracing.per_layer_metrics(tracer)
    metrics = {}
    for p in parts:
        for k, v in p.metrics.items():
            metrics.setdefault(k, []).append(v)
    result.update(
        checks=checks,
        metrics={k: sum(v) / len(v) for k, v in metrics.items()},
        digests={f"{p.name} {k}": v for p in parts for k, v in p.digests.items()},
        blas_threads=blas_threads())
    return result


def main(argv):
    corpus_dir = argv[0]
    if argv[1:] == ["--warmup"]:
        for d, _, files in os.walk(corpus_dir):
            for name in files:
                with open(os.path.join(d, name), "rb") as fh:
                    while fh.read(1 << 20):
                        pass
        return 0
    out_dir, result_path = argv[1], argv[2]
    result = run_pass(corpus_dir, out_dir, "--trace" in argv[3:])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
