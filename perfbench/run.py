"""datarecon benchmark: `datarecon attack` runs on generated workloads.

    python3 perfbench/run.py --workload kidscore_sfd --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's data CSV and JSON config are
made from the seed (see workloads.py), then `datarecon attack` runs on them
in a closed loop, one fresh process at a time, until ``--seconds`` have
passed; the last process is let finish. Each process uses one BLAS thread.

``--trace 0`` reports the end-to-end metrics, each the median over the
processes: run_s, setup_s, attack_iters_per_s and peak_rss_mb. ``--trace 1``
alternates untraced and traced processes and reports the per-layer metrics
of the traced ones (see tracer.py) and the tracing overhead. Either way the
outputs are checked (see checks.py), and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from checks import run_checks
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A process that runs this long is killed and counted as failed, so that
# one run of the benchmark stays well within three minutes.
PROCESS_LIMIT_S = 60.0
# No new process starts this long after the window opened.
LAST_START_S = 60.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RECON_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_process(cmd, cwd: Path, log: Path):
    """Run ``cmd`` to completion. Returns (exit code, spawn time, end time,
    peak resident set size in MB)."""
    with open(log, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_end, usage.ru_maxrss / 1024.0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def attack_once(workdir: Path, wl, config: Path, k: int, traced: bool) -> dict:
    timing = workdir / f"timing_{k}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(config), str(timing)]
    draws = workdir / f"draws_{k}.npy" if wl.bayesian else None
    if draws is not None:
        cmd += ["--draws", str(draws)]
    spans = workdir / f"spans_{k}.csv"
    if traced:
        cmd += ["--spans", str(spans)]
    code, t_spawn, t_end, rss = run_process(cmd, workdir, workdir / f"stderr_{k}.txt")
    res = {"k": k, "traced": traced, "code": code, "run_s": t_end - t_spawn,
           "peak_rss_mb": rss}
    if code != 0:
        return res
    stamps = json.loads(timing.read_text())
    res["setup_s"] = stamps["enter"] - t_spawn
    res["attack_iters_per_s"] = wl.iters / (stamps["exit"] - stamps["enter"])
    res["import_ms"] = stamps["import_ms"]
    res["spans"] = spans if traced else None
    res["draws"] = draws
    out = workdir / "out"
    files = [out / "trace.csv", out / "measure.csv"] + ([draws] if draws else [])
    res["digest"] = tuple(digest(f) for f in files)
    return res


def rwm_steps(config: dict) -> int:
    sampler = config.get("sampler")
    if sampler is None or sampler.get("kind") != "rwm":
        return 0
    T = sampler["T"]
    burn_in = sampler.get("burn_in", 10 * T)
    return burn_in + T * max(sampler.get("thinning", 10), 1)


def median_of(runs, key) -> float:
    return statistics.median(r[key] for r in runs) if runs else 0.0


END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "attack_iters_per_s": "iter/s",
                    "peak_rss_mb": "MB"}


def end_to_end(runs) -> dict:
    return {name: {"value": median_of(runs, name), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(wl, plain, traced) -> dict:
    per_run = [tracer.layer_metrics(tracer.read_spans(r["spans"]), wl.iters,
                                    rwm_steps(wl.config), r["import_ms"]) for r in traced]
    metrics = {}
    for name in per_run[0] if per_run else ():
        unit = per_layer_unit(name)
        metrics[name] = {"value": statistics.median(m[name] for m in per_run), "unit": unit}
    untraced_ips = median_of(plain, "attack_iters_per_s")
    traced_ips = median_of(traced, "attack_iters_per_s")
    overhead = 100.0 * (untraced_ips - traced_ips) / untraced_ips if untraced_ips else 0.0
    metrics["trace.untraced_iters_per_s"] = {"value": untraced_ips, "unit": "iter/s"}
    metrics["trace.traced_iters_per_s"] = {"value": traced_ips, "unit": "iter/s"}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_mb_per_iter", "MB/iter"), ("_ms", "ms"), ("_us", "us"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="datarecon attack benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "datarecon" / "cli.py").is_file():
        print(f"error: datarecon sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the checks call the program's gradients
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = generate(args.workload, args.seed)
    workdir = OUT / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    config = wl.write(workdir)
    # Byte-compile before the window, so that the first process does not
    # pay a cost that users pay once per install.
    compileall.compile_dir(SRC / "datarecon", quiet=1)

    runs = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        kinds = {r["traced"] for r in runs}
        need_both = args.trace and len(kinds) < 2
        if runs and (elapsed >= args.seconds and not need_both or elapsed >= LAST_START_S):
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(attack_once(workdir, wl, config, len(runs), traced))

    ok = [r for r in runs if r["code"] == 0]
    failed = len(runs) - len(ok)
    for r in runs:
        kind = "traced" if r["traced"] else "plain"
        extra = "".join(f" {k}={r[k]:.4f}" for k in ("setup_s", "attack_iters_per_s") if k in r)
        print(f"process {r['k']} ({kind}): exit {r['code']} run_s={r['run_s']:.4f}"
              f" peak_rss_mb={r['peak_rss_mb']:.1f}{extra}")
        if r["code"] != 0:
            tail = (workdir / f"stderr_{r['k']}.txt").read_text()[-2000:]
            print(f"process {r['k']} stderr:\n{tail}", file=sys.stderr)

    checks = [("exit_code_zero", failed == 0, f"{len(ok)} of {len(runs)} processes exited 0")]
    if ok:
        digests = {r["digest"] for r in ok}
        checks.append(("identical_outputs", len(digests) == 1,
                       f"{len(digests)} distinct sets of trace.csv, measure.csv"
                       f"{' and draws' if wl.bayesian else ''} over {len(ok)} processes"))
        try:
            checks.extend(run_checks(wl, workdir / "out", ok[-1]["draws"]))
        except (OSError, ValueError) as exc:
            checks.append(("output_checks_ran", False, str(exc)))
    for name, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'} {name}: {detail}")
    correct = bool(ok) and all(passed for _, passed, _ in checks[1:])

    if args.trace:
        metrics = per_layer(wl, [r for r in ok if not r["traced"]],
                            [r for r in ok if r["traced"]])
    else:
        metrics = end_to_end(ok)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
