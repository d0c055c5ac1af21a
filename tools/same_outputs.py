"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py [--against REF]     # REF defaults to HEAD

REF is exported with ``git archive`` into a temporary directory. For each
workload in ``perfbench/workloads.py`` at seeds 21 and 22, both trees run
``datarecon sample`` (Bayesian workloads only) and ``datarecon attack`` on
the same generated inputs, with one BLAS thread. The tool compares
``draws.csv``, ``trace.csv`` and ``measure.csv`` byte for byte,
``summary.json`` apart from its ``wall_s`` timings, and the stdout of
``datarecon verify``. It prints one line per file and exits 1 on any
difference. Under a numeric file that differs (the CSV files and
``summary.json``) it prints, per column or JSON entry that differs, the
largest relative difference |a - b| / max(|a|, |b|) and, where that exceeds
``CLOSE`` = 1e-12, the largest magnitude among the values that do, so a
change in the last bits, or one at a rounding floor near zero, can be told
from a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (21, 22)
CLOSE = 1e-12

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def export(ref: str, dest: Path) -> None:
    tar = dest.parent / "ref.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(tar), ref], check=True)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)


def datarecon(tree: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "datarecon.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def outputs(tree: Path, workdir: Path, wl) -> dict[str, bytes]:
    """Run one workload in ``tree``; map each output file name to the bytes
    compared (``summary.json`` without ``wall_s``), plus each command's exit
    code and stderr."""
    config = wl.write(workdir)
    found: dict[str, bytes] = {}
    for command in (["sample"] if wl.bayesian else []) + ["attack"]:
        proc = datarecon(tree, workdir, command, "--config", config.name)
        found[f"{command} exit"] = f"{proc.returncode} {proc.stderr}".encode()
    out = workdir / "out"
    for name in ("draws.csv", "trace.csv", "measure.csv"):
        if (out / name).exists():
            found[name] = (out / name).read_bytes()
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("wall_s", None)
        found["summary.json (no wall_s)"] = json.dumps(summary, indent=2).encode()
    return found


def _numbers(key: str, data: bytes) -> dict[str, np.ndarray] | None:
    """The numeric columns of a CSV file, or the numeric entries of
    ``summary.json`` by their key path; None for any other output."""
    if key.endswith(".csv"):
        header, *rows = data.decode().splitlines()
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        return dict(zip(header.split(","), values.reshape(len(rows), -1).T))
    if key.startswith("summary.json"):
        found = {}

        def walk(path, node):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(f"{path}.{k}" if path else k, v)
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(f"{path}[{i}]", v)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found[path] = np.array([float(node)])

        walk("", json.loads(data))
        return found
    return None


def _report(key: str, ref: bytes, work: bytes) -> None:
    """Print the largest relative difference per differing numeric column."""
    a, b = _numbers(key, ref), _numbers(key, work)
    if a is None or b is None or a.keys() != b.keys():
        return
    for name in a:
        x, y = a[name], b[name]
        if x.shape != y.shape:
            print(f"             {name}: {len(x)} against {len(y)} values")
            continue
        differ = x != y
        if not differ.any():
            continue
        size = np.maximum(np.abs(x[differ]), np.abs(y[differ]))
        rel = np.abs(x[differ] - y[differ]) / size
        far = "" if rel.max() <= CLOSE else (
            f", beyond {CLOSE:g} only at |value| <= {size[rel > CLOSE].max():.2e}")
        print(f"             {name}: largest relative difference {rel.max():.2e}{far}")


def _line(label: str, ref: bytes | None, work: bytes | None) -> int:
    """Print one comparison; 1 if the two sides differ or REF has nothing."""
    same = ref is not None and ref == work
    print(f"{'identical' if same else 'DIFFERS  '}  {label}", flush=True)
    if not same and ref is not None and work is not None:
        _report(label.rsplit(": ", 1)[-1], ref, work)
    return int(not same)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", default="HEAD", help="git revision to compare with")
    args = ap.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        ref_tree = Path(tmp) / "ref"
        export(args.against, ref_tree)
        trees = {"ref": ref_tree, "work": ROOT}
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                wl = workloads.generate(name, seed)
                ref, work = (outputs(tree, Path(tmp) / side / f"{name}_{seed}", wl)
                             for side, tree in trees.items())
                for key in sorted(set(ref) | set(work)):
                    differ += _line(f"{name} seed {seed}: {key}", ref.get(key), work.get(key))
        ref, work = (f"{p.returncode} {p.stdout}".encode()
                     for p in (datarecon(tree, Path(tmp), "verify") for tree in trees.values()))
        differ += _line("datarecon verify stdout", ref, work)
    print(f"{differ} difference(s) against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
