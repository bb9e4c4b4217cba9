"""Every input parser, fed damaged files through the CLI.

One valid file of each kind the CLI reads is mutated, with a fixed seed
per kind: a byte changed, the file cut short, a line repeated or dropped,
or a field replaced by ``nan``, ``1e400``, a NUL byte or an over-long
field. Each mutant goes through ``cli.main`` with the subcommand that
reads that kind of file. A run either exits 0, or prints exactly one
``ERROR <code>:`` line, with a code from ``glohage.errors`` (or the CLI's
``FileAccess``), and leaves no file behind. No run may
end in an exception the CLI does not map to such a line.
"""

import inspect
import os

import numpy as np
import pytest

from glohage import cli, errors, featfile

from pgmfile import write_pgm

KINDS = ("manifest", "features", "config", "selection", "model", "p5", "p2")
MUTANTS = 50  # per kind of file
CODES = {
    cls.code
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.GlohError) and cls is not errors.GlohError
} | {"FileAccess"}
FIELDS = (b"nan", b"1e400", b"\x00", b"9" * 5000, b"x" * 200_000)
SEPARATORS = b" \t\r\n,="  # between the fields of every text format read


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Valid inputs: 12 rows of 30 float32 bins with a manifest, a config,
    a GLOHSEL and a GLOHRIDGE file fit on them, and a 12x10 image as P5
    and P2, small enough that a changed byte often lands in the header."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 30)).astype(np.float32)
    ages = np.clip(np.round(30 + 4 * X[:, 3] - 3 * X[:, 11]), 0, 130).astype(int)
    lines = ["path,person_id,age,gender"]
    lines += [f"img{i}.pgm,p{i // 3},{ages[i]},{'mf'[i % 2]}" for i in range(12)]
    files = {
        "manifest": d / "manifest.csv",
        "features": d / "features.gfv",
        "config": d / "train.cfg",
        "selection": d / "sel.txt",
        "model": d / "model.txt",
        "p5": d / "p5.pgm",
        "p2": d / "p2.pgm",
    }
    files["manifest"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    featfile.write_features(str(files["features"]), [X])
    files["config"].write_text(
        "mode = mtl\nbudget = 5\nmax_iters = 300\nrel_tol = 1e-6\n"
        "alpha_grid = 0.1,1,10\nseed = 0\n",
        encoding="utf-8",
    )
    common = ["--manifest", str(files["manifest"]), "--features", str(files["features"])]
    assert cli.main(["select", *common, "--budget", "5", "--out", str(files["selection"])]) == 0
    assert cli.main(["train", *common, "--selection", str(files["selection"]),
                     "--out", str(files["model"])]) == 0
    img = rng.integers(0, 256, size=(12, 10)).astype(np.uint8)
    write_pgm(img, str(files["p5"]))
    rows = "\n".join(" ".join(str(v) for v in row) for row in img)
    files["p2"].write_text(f"P2\n# an image\n10 12\n255\n{rows}\n", encoding="ascii")
    return {key: str(path) for key, path in files.items()}


def argv_for(kind, corpus, mutant, out):
    """The subcommand that reads ``kind``, with the mutant in its place."""
    man, feats = corpus["manifest"], corpus["features"]
    if kind == "manifest":
        return ["select", "--manifest", mutant, "--features", feats, "--budget", "5",
                "--out", out]
    if kind == "features":
        return ["select", "--manifest", man, "--features", mutant, "--budget", "5",
                "--out", out]
    if kind == "config":
        return ["train", "--manifest", man, "--features", feats, "--config", mutant,
                "--out", out]
    if kind == "selection":
        return ["train", "--manifest", man, "--features", feats, "--selection", mutant,
                "--out", out]
    if kind == "model":
        return ["predict", "--model", mutant, "--features", feats, "--manifest", man,
                "--out", out]
    # a P5 or P2 mutant is named by the manifest given as ``mutant``
    return ["extract", "--manifest", mutant, "--height", "12", "--width", "10", "--out", out]


def mutate(data, rng):
    """One damaged copy of ``data`` and a short name for the damage."""
    op = int(rng.integers(5))
    if op == 0 and data:
        i = int(rng.integers(len(data)))
        b = int(rng.integers(256))
        return data[:i] + bytes([b]) + data[i + 1 :], f"byte {i} = {b}"
    if op == 1:
        i = int(rng.integers(len(data) + 1))
        return data[:i], f"cut at {i}"
    lines = data.split(b"\n")
    i = int(rng.integers(len(lines)))
    if op == 2:
        return b"\n".join(lines[: i + 1] + lines[i:]), f"line {i} repeated"
    if op == 3:
        return b"\n".join(lines[:i] + lines[i + 1 :]), f"line {i} dropped"
    starts = [m for m in range(len(data)) if data[m : m + 1] not in SEPARATORS
              and (m == 0 or data[m - 1 : m] in SEPARATORS)]
    if not starts:
        return data + FIELDS[0], "nan appended"
    a = b = starts[int(rng.integers(len(starts)))]
    while b < len(data) and data[b : b + 1] not in SEPARATORS:
        b += 1
    field = FIELDS[int(rng.integers(len(FIELDS)))]
    return data[:a] + field + data[b:], f"field at {a} = {field[:8]!r}, {len(field)} bytes"


@pytest.mark.parametrize("kind", KINDS)
def test_damaged_input_gives_exit_0_or_one_error_line(kind, corpus, tmp_path, capsys):
    with open(corpus[kind], "rb") as fh:
        valid = fh.read()
    rng = np.random.default_rng(KINDS.index(kind))
    mutant = str(tmp_path / "mutant")
    if kind in ("p5", "p2"):  # the image is the mutant; a manifest names it
        (tmp_path / "faces.csv").write_text("path,person_id,age,gender\nmutant,p0,30,m\n",
                                            encoding="utf-8")
        argv = argv_for(kind, corpus, str(tmp_path / "faces.csv"), str(tmp_path / "out"))
    else:
        argv = argv_for(kind, corpus, mutant, str(tmp_path / "out"))
    bad = []
    for n in range(MUTANTS):
        data, damage = mutate(valid, rng)
        with open(mutant, "wb") as fh:
            fh.write(data)
        before = sorted(os.listdir(tmp_path))
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback for a user
            capsys.readouterr()
            bad.append(f"mutant {n} ({damage}): {type(exc).__name__}: {exc}"[:300])
            continue
        err = capsys.readouterr().err
        if rc == 0:
            os.remove(argv[-1])
            continue
        code = err[len("ERROR "):].split(":", 1)[0]
        if not (err.startswith("ERROR ") and err.count("\n") == 1 and code in CODES):
            bad.append(f"mutant {n} ({damage}): rc {rc}, stderr {err[:200]!r}")
        elif sorted(os.listdir(tmp_path)) != before:
            bad.append(f"mutant {n} ({damage}): left {sorted(os.listdir(tmp_path))}")
    assert not bad, "\n".join(bad)
