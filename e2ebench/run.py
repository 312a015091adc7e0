"""Cold end-to-end benchmark of the METIS simulator.

    python3 e2ebench/run.py --workload metis-finsec --seed 0 \\
        --seconds 40 --trace 0

Runs one workload (``workloads.py``) as repeated cold cells, each in a
fresh interpreter launched one after another from this script, until
``--seconds`` would be exceeded by one more cell (at least two cells;
one untraced/traced pair with ``--trace 1``). Every cell is checked
(``checks.py``); the last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, medians over the cells for the
  host metrics, and the simulated metrics, which must be identical in
  every cell;
* ``--trace 1``: the per-layer metrics (``layers.py``), medians over the
  traced cells, plus ``trace.overhead_frac``, the traced serve time over
  the untraced serve time (both at the reference speed), minus one.

A failed check or a record fingerprint that differs between cells makes
``correct`` false and the exit code 1. Run from the repository root; the
simulator is imported from ``src/``. Self-tests: ``python3
e2ebench/selftest.py``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from speed import normalize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Named for later claims: a change is tuned on other seeds and its
#: gain must also hold on this one.
HELD_OUT_SEED = 9173

#: End-to-end metrics and units; ``sim_s`` marks simulated seconds.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"), ("serve_s", "s"), ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_delay_p50_s", "sim_s"), ("sim_delay_p99_s", "sim_s"),
    ("sim_f1", "ratio"), ("sim_dollars_per_query", "USD"),
)
HOST_METRICS = ("setup_s", "serve_s", "total_s", "peak_rss_mb")

#: Thread pools a cell may start, pinned to one thread each: a cell then
#: runs on at most two threads (the interpreter and one pool thread).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

#: No run may outlive this, cells included.
HARD_LIMIT_S = 170.0
SPANS_DIR = os.path.join(HERE, "out")


class CellFailed(RuntimeError):
    pass


def source_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def provenance() -> dict:
    """Commit, source digest, machine and library versions."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "repro", "**",
                                              "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return dict(commit=commit, source_sha256=digest.hexdigest()[:16],
                nproc=len(os.sched_getaffinity(0)),
                python=platform.python_version(), numpy=numpy.__version__,
                cpu=cpu)


def cell_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One cell in a fresh interpreter; returns its JSON plus ``total_s``."""
    cmd = [sys.executable, os.path.join(HERE, "cell.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR,
                                        f"spans-{workload}-{seed}.json")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=cell_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise CellFailed(f"{workload} cell ran past the run's limit")
    total = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise CellFailed(f"{workload} cell exited {proc.returncode}:\n{tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["total_host_s"] = total - out["probe_spent_s"]
    out["total_s"] = normalize(out["total_host_s"], out["probe_mean_s"])
    return out


def run_cells(workload: str, seed: int, seconds: float,
              trace: bool) -> list[dict]:
    """Rounds of cells (one cell; an untraced/traced pair when tracing)
    until one more round would pass ``seconds``."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    min_rounds = 1 if trace else 2
    cells: list[dict] = []
    longest = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            cells.append(launch(workload, seed, traced, deadline))
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + longest > seconds:
            return cells


def summarize(cells: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """The run's metrics and every error found."""
    errors = [f"cell {i}: {e}" for i, c in enumerate(cells)
              for e in c["errors"]]
    if len({c["fingerprint"] for c in cells}) != 1:
        errors.append("record fingerprints differ between cells")
    if any(c["sim"] != cells[0]["sim"] for c in cells):
        errors.append("simulated metrics differ between cells")
    untraced = [c for c in cells if not c["traced"]]
    if not trace:
        metrics = {m: statistics.median(c[m] for c in untraced)
                   for m in HOST_METRICS}
        metrics.update({m: cells[0]["sim"][m] for m, _ in END_TO_END
                        if m.startswith("sim_")})
        units = dict(END_TO_END)
    else:
        traced = [c for c in cells if c["traced"]]
        metrics = {m: statistics.median(c["layers"][m] for c in traced)
                   for m, _ in PER_LAYER if m != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(c["serve_s"] for c in traced)
            / statistics.median(c["serve_s"] for c in untraced) - 1.0)
        units = dict(PER_LAYER)
    return {m: dict(value=metrics[m], unit=units[m]) for m in units}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no simulator source under {ROOT}/src/repro; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    prov = provenance()
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"held-out-seed={HELD_OUT_SEED} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    try:
        cells = run_cells(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except CellFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for i, c in enumerate(cells):
        print(f"cell {i}{' traced' if c['traced'] else ''}: host total "
              f"{c['total_host_s']:.3f} s = import {c['import_s']:.3f} + "
              f"setup {c['setup_host_s']:.3f} + serve {c['serve_host_s']:.3f}"
              f" + report {c['report_s']:.3f} + interpreter; at reference "
              f"speed: total {c['total_s']:.3f}, setup {c['setup_s']:.3f}, "
              f"serve {c['serve_s']:.3f}; rss {c['peak_rss_mb']:.1f} MB; "
              f"{c['records']} records for {c['attempted']} arrivals")
    metrics, errors = summarize(cells, bool(args.trace))
    attempted = sum(c["attempted"] for c in cells)
    failed = attempted if errors else sum(c["failed"] for c in cells)
    rows = [(m, v["value"], v["unit"]) for m, v in metrics.items()]
    rows.append(("failed_frac", failed / attempted, "ratio"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print(f"p99 samples beyond: {cells[0]['sim']['p99_samples_beyond']}; "
          f"record fingerprint: {cells[0]['fingerprint']}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps(dict(correct=not errors, attempted=attempted,
                          failed=failed, metrics=metrics)))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
