"""Benchmark driver for the DFT pipeline.

Usage, from the root of a checkout::

    python3 dftbench/run.py --workload {run,mutate,generate} \\
        [--seed N] [--seconds S] [--trace 0|1] [--record]

Every measurement runs in a fresh child process (``child.py``), one at a
time, and every output is checked against ``reference.json``.  The last
line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The lines
before it are the human-readable report and the host stamp.

``--record`` stores this run's output digests as the reference of its
input seed (``run`` digests hold for every seed).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from stats import tail  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS  # noqa: E402

#: Setup-only processes per run; with the measuring process, setup_s is
#: the median of SETUP_CHILDREN + 1 fresh starts.
SETUP_CHILDREN = 4
#: Every child must end before this many seconds of the run have passed.
DEADLINE_S = 170.0
#: The reference loop's time on the host speed ``setup_s`` and
#: ``sim_s_per_s_norm`` are scaled to (see ``workloads.reference_loop``).
REFERENCE_NOMINAL_S = 0.003
#: Written spans of traced runs; listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".dftbench")


class BenchError(RuntimeError):
    """A child failed or the checkout cannot run the benchmark."""


def child(args: List[str], deadline: float) -> Dict:
    """Run ``child.py`` to completion and return its result line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--spawned-at", repr(time.time())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another child process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"child exceeded the deadline: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def tail_text(values: List[float], unit: str) -> str:
    found = tail(values)
    if found is None:
        return f"n/a ({len(values)} samples; a tail needs 11)"
    pct, value, n, beyond = found
    return f"{value:.6g} {unit} (p{pct} of {n} samples, {beyond} beyond)"


def stamp(workload, ops: Dict[str, int]) -> Dict:
    """Host and provenance of a result."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        numpy_version: Optional[str] = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    git_commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit,
        "src_sha256": h.hexdigest()[:16],
        "seed": workload.seed,
        "input_seed": workload.input_seed,
        "ops": ops,
    }


def measure_args(ns, extra: List[str]) -> List[str]:
    return ["--workload", ns.workload, "--seed", str(ns.seed), *extra] + (
        ["--no-reference"] if ns.record else []
    )


def untraced(ns, deadline: float) -> Dict:
    setups = [
        child(["--workload", ns.workload, "--seed", str(ns.seed), "--setup-only"], deadline)
        for _ in range(SETUP_CHILDREN)
    ]
    result = child(measure_args(ns, ["--seconds", str(ns.seconds)]), deadline)
    result["setup_samples"] = [[s["ready_s"], s["ready_loop_s"]] for s in setups + [result]]
    return result


def busy_wall(result: Dict) -> float:
    """Measured wall time without the benchmark's reference loops."""
    return result["wall"] - sum(result["reference_s"])


def end_to_end(result: Dict) -> Dict[str, Dict]:
    simulated = result["simulated"]
    if simulated <= 0 or not result["reference_s"]:
        raise BenchError(f"nothing was simulated ({len(result['reference_s'])} simulations)")
    rate = simulated / busy_wall(result)
    return {
        "setup_s": {
            "value": median(
                ready * REFERENCE_NOMINAL_S / loop for ready, loop in result["setup_samples"]
            ),
            "unit": "s",
        },
        "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
        "sim_s_per_s_norm": {
            "value": rate * median(result["reference_s"]) / REFERENCE_NOMINAL_S,
            "unit": "s/s",
        },
    }


def report_untraced(workload, result: Dict, metrics: Dict[str, Dict]) -> None:
    ops, wall = len(result["op_ms"]), busy_wall(result)
    attempted, failed = result["attempted"], result["failed"]
    simulated = result["simulated"]
    rows = [
        ("setup_s", f"{metrics['setup_s']['value']:.6g} s "
                    f"(median of {len(result['setup_samples'])} fresh processes, scaled; "
                    f"raw {median(r for r, _ in result['setup_samples']):.6g} s)"),
        ("peak_rss_mb", f"{metrics['peak_rss_mb']['value']:.6g} MB"),
        ("failed_ratio", f"{failed / max(attempted, 1):.6g} ({failed} of {attempted})"),
        (workload.op_rate, f"{ops / wall:.6g} 1/s ({ops} in {wall:.3f} s)"),
        (workload.op_p50, f"{median(result['op_ms']):.6g} ms" if ops else "n/a"),
        (workload.op_tail, tail_text(result["op_ms"], "ms")),
    ]
    if workload.name == "generate":
        closed = result["counts"].get("closed", 0)
        rows.append(("closed_per_sim", f"{closed / max(ops, 1):.6g} "
                                       f"({int(closed)} closed in {ops} simulations)"))
    rows += [
        ("sim_s_per_s", f"{simulated / wall:.6g} s/s ({simulated:.3f} simulated s)"),
        ("reference_loop_ms", f"{median(result['reference_s']) * 1000:.6g} ms "
                              f"(median of {len(result['reference_s'])}; nominal "
                              f"{REFERENCE_NOMINAL_S * 1000:g} ms)"),
        ("sim_s_per_s_norm", f"{metrics['sim_s_per_s_norm']['value']:.6g} s/s"),
    ]
    print(f"dftbench workload={workload.name} seed={workload.seed} "
          f"(input seed {workload.input_seed}) passes={result['passes']} "
          f"measured={result['wall']:.3f} s")
    for name, text in rows:
        print(f"  {name:<18} {text}")


def report_outputs(result: Dict) -> None:
    if result["mismatches"]:
        print(f"outputs: MISMATCH in {', '.join(result['mismatches'])}")
    elif result["reference_checked"]:
        print(f"outputs: all {len(result['digests'])} match the stored reference")
    else:
        print("outputs: UNCHECKED, no stored reference for this input seed; digests "
              + json.dumps(result["digests"], sort_keys=True))
    for error in result["errors"]:
        print(f"error: {error}")
    for target in result["missing"].values():
        print(f"missing: {target}")
    for span_name, error in result["observer_errors"].items():
        print(f"observer error on {span_name}: {error}")


def record(workload, result: Dict) -> None:
    """Store the digests; other input seeds' entries stay as they are."""
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    if workload.name == "run":
        reference["run"] = result["digests"]
    else:
        reference.setdefault(workload.name, {})[str(workload.input_seed)] = result["digests"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(result['digests'])} reference digests for {workload.name}")


def traced(ns, workload, deadline: float):
    """The untraced run, then the same passes traced; per-layer metrics."""
    plain = child(measure_args(ns, ["--seconds", str(ns.seconds)]), deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{ns.workload}-{ns.seed}.json")
    result = child(measure_args(ns, [
        "--passes", str(plain["passes"]), "--trace", "--spans-out", spans_out,
    ]), deadline)
    values, absent = result["layers"], result["absent"]
    # The traced child runs no reference loops; the untraced one does.
    values["obs.trace_overhead_x"] = result["wall"] / busy_wall(plain)
    print(f"dftbench workload={workload.name} seed={ns.seed} traced "
          f"passes={result['passes']} (spans: {os.path.relpath(spans_out, ROOT)})")
    metrics = {}
    for name, unit, _better, _needs in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        shown = f"absent ({absent[name]})" if name in absent else f"{values[name]:.6g} {unit}"
        print(f"  {name:<36} {shown}")
    for key in ("attempted", "failed"):
        result[key] += plain[key]
    result["errors"] += plain["errors"]
    result["reference_checked"] = result["reference_checked"] and plain["reference_checked"]
    result["mismatches"] = sorted(set(result["mismatches"]) | set(plain["mismatches"]))
    return result, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="DFT pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store the output digests as the reference of the input seed "
                        f"(the seed modulo {REFERENCE_SEEDS})")
    ns = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"dftbench: error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[ns.workload](ns.seed)
    try:
        if ns.trace:
            result, metrics = traced(ns, workload, deadline)
        else:
            result = untraced(ns, deadline)
            metrics = end_to_end(result)
            report_untraced(workload, result, metrics)
    except BenchError as exc:
        print(f"dftbench: error: {exc}", file=sys.stderr)
        return 1
    report_outputs(result)
    if ns.record:
        record(workload, result)
    print("stamp: " + json.dumps(stamp(workload, {ns.workload: result["attempted"]})))
    checked = result["reference_checked"] or ns.record
    correct = checked and not (result["failed"] or result["mismatches"] or result["errors"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
