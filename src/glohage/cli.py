"""Command-line front end.

Subcommands: extract, select, train, predict, evaluate, synth. A flat
``key = value`` config file sets defaults; individual flags override it.
On any failure, a usage error too, the process exits nonzero with one
line ``ERROR <code>: <detail>`` on stderr.
"""

import argparse
import os
import sys
from . import dataset as ds
from . import featfile, gloh, metrics, mtl, pipeline, ridge
from .errors import GlohError, InvalidSpecError


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _optional_float(text):
    return None if text.lower() == "none" else float(text)


_BOOLS = {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False,
}


def _bool(text):
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}") from None


def _age_range(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected LO:HI")
    return int(lo), int(hi)


# Every setting a config file or a same-named flag can give: key ->
# (settings group, parser of its text). "gloh" keys build the GlohParams,
# "solver" keys the SolverOptions and "run" keys the RunConfig itself.
SETTINGS = {
    "patch_size": ("gloh", int),
    "stride": ("gloh", int),
    "radii": ("gloh", _floats),
    "n_sectors": ("gloh", int),
    "n_orient": ("gloh", int),
    "clip_threshold": ("gloh", _optional_float),
    "max_iters": ("solver", int),
    "rel_tol": ("solver", float),
    "mode": ("solver", str),
    "budget": ("run", int),
    "alpha_grid": ("run", _floats),
    "cs_max": ("run", int),
    "seed": ("run", int),
    "height": ("run", int),
    "width": ("run", int),
    "standardize": ("run", _bool),
    "age_range": ("run", _age_range),
}

# keys only evaluate reads: select and train refuse them instead of ignoring them
EVALUATE_ONLY = ("standardize", "age_range")


def _parse_config_file(path):
    """Flat 'key = value' file; '#' starts a comment, blank lines ignored.

    Every key must be in SETTINGS and appear at most once.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise InvalidSpecError(f"{path}: not UTF-8 text") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpecError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise InvalidSpecError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidSpecError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = value
    return values


def build_config(args, refused=()):
    """Merge config-file values and CLI flags into a RunConfig.

    Both are text parsed by the SETTINGS table; a flag wins over the file.
    A value that does not parse or is out of range, or a key in
    ``refused``, raises InvalidSpecError.
    """
    raw = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in refused:
        if key in raw:
            raise InvalidSpecError(f"{key} applies to evaluate only")
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    groups = {"gloh": {}, "solver": {}, "run": {}}
    for key, text in raw.items():
        group, parse = SETTINGS[key]
        try:
            groups[group][key] = parse(text)
        except ValueError as exc:
            raise InvalidSpecError(f"bad setting {key} = {text!r}: {exc}") from None
    try:
        return pipeline.RunConfig(
            gloh=gloh.GlohParams(**groups["gloh"]),
            solver=mtl.SolverOptions(**groups["solver"]),
            **groups["run"],
        )
    except ValueError as exc:
        raise InvalidSpecError(f"bad setting: {exc}") from None


def cmd_extract(args):
    config = build_config(args)
    manifest = ds.parse_manifest(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    n, k = pipeline.extract_features(manifest, args.out, config, base_dir)
    print(f"N={n} K={k}")


def cmd_select(args):
    config = build_config(args, EVALUATE_ONLY)
    manifest = ds.parse_manifest(args.manifest)
    features = featfile.FeatureFile(args.features)  # reads each task's rows
    sel = pipeline.select_bins(manifest, features, config)
    mtl.write_selection(args.out, sel)
    print(f"lambda={sel.lam!r} selected={len(sel.selected)}")


def cmd_train(args):
    config = build_config(args, EVALUATE_ONLY)
    manifest = ds.parse_manifest(args.manifest)
    features = featfile.FeatureFile(args.features)  # reads only what the fits use
    selection = None
    if args.selection:
        selection = mtl.read_selection(args.selection, features.shape[1], 2)
    selection, model = pipeline.train_model(manifest, features, config, selection)
    ridge.write_model(args.out, model)
    print(f"selected={len(selection.selected)} tasks={len(model.weights)}")


def cmd_predict(args):
    model = ridge.read_model(args.model)
    features = featfile.FeatureFile(args.features)  # reads each task's rows
    manifest = ds.parse_manifest(args.manifest) if args.manifest else None
    preds = pipeline.predict_rows(model, features, manifest)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("row,pred_age\n")
        for i, p in enumerate(preds):
            fh.write(f"{i},{float(p)!r}\n")
    print(f"predicted {len(preds)} rows")


def cmd_evaluate(args):
    config = build_config(args)
    manifest = ds.parse_manifest(args.manifest)
    features = featfile.FeatureFile(args.features)  # each fold reads its rows
    report = pipeline.evaluate_lopo(manifest, features, config)
    if args.out:
        metrics.write_report(args.out, report)
    else:
        sys.stdout.write(metrics.format_report(report))
    print(f"n={report.n} mae={report.mae:.4f}", file=sys.stderr)


def cmd_synth(args):
    spec = ds.SynthSpec(
        K=args.k,
        L=args.tasks,
        N=args.n,
        support_size=args.support,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    manifest = pipeline.synth_dataset(spec, args.out_dir)
    print(f"wrote {len(manifest.samples)} samples to {args.out_dir}")


def _add_common(p, *, mode=False, budget=False, evaluation=False):
    # setting flags keep their text; build_config parses it with SETTINGS
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed")
    if mode:
        p.add_argument("--mode", choices=(mtl.MODE_MTL, mtl.MODE_STL))
    if budget:
        p.add_argument("--budget")
    if evaluation:
        p.add_argument("--age-range", dest="age_range", metavar="LO:HI")
        p.add_argument("--cs-max", dest="cs_max")
        p.add_argument("--standardize", action="store_const", const="true")


class _Parser(argparse.ArgumentParser):  # subparsers share the class
    def error(self, message):  # a usage error is main's one ERROR line too
        raise InvalidSpecError(message)


def make_parser():
    parser = _Parser(
        prog="glohage",
        description="GLOH + multi-task bin selection + ridge age estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract GLOH features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--height")
    p.add_argument("--width")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("select", help="sparse bin selection, writes GLOHSEL")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, mode=True, budget=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="selection + ridge fit, writes GLOHRIDGE")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--selection", help="reuse an existing GLOHSEL file")
    _add_common(p, mode=True, budget=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="model + features -> predictions CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="optional, supplies gender per row")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-person-out evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="report CSV path (default: stdout)")
    _add_common(p, mode=True, budget=True, evaluation=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=500)
    p.add_argument("--tasks", type=int, default=2)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--support", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        args.func(args)
    except GlohError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"ERROR MissingFile: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR FileAccess: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
