"""One benchmark process: set up one workload, then measure whole passes.

``run.py`` starts this script in a fresh interpreter for every
measurement and reads the one JSON line it prints last.  Modes:

* ``--setup-only`` — set up and report how long the process took from
  spawn until the first operation could start;
* ``--seconds S`` — run passes until at least ``S`` seconds were
  measured (always at least one pass);
* ``--passes N`` — run exactly ``N`` passes (the traced run repeats the
  untraced run's pass count so the two walls compare).

Without ``--trace`` only ``Simulator.run`` and the workload's operation
are wrapped, to time each operation; ``--trace`` wraps every layer's
public callables in spans (:mod:`spans`) and adds the per-layer metrics
(:mod:`layers`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() of the parent just before spawning")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", help="write the recorded spans here (JSON)")
    p.add_argument("--no-reference", action="store_true",
                   help="skip the reference check (when recording one)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro  # noqa: F401  (interpreter start + package import)

    import_s = time.time() - args.spawned_at
    from spans import SpanRecorder
    from workloads import (
        WORKLOADS, check_outputs, measuring, reference_for, reference_loop,
    )

    workload = WORKLOADS[args.workload](args.seed)
    timer = workload.timer()
    recorder = SpanRecorder()
    root = None
    if args.trace:
        from layers import observers

        builds = tuple(
            ("tdf.build", f"{ref}.__init__", False) for ref in workload.factory_refs()
        )
        wrappers = measuring(timer, recorder, True, builds, observers())
        wrappers.install()
        root = recorder.open("workload")
    workload.setup()
    ready_s = time.time() - args.spawned_at
    # The host speed at set-up time, to scale ready_s to a nominal host.
    ready_loop_s = sorted(reference_loop() for _ in range(5))[2]
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "ready_s": ready_s,
                          "ready_loop_s": ready_loop_s}))
        return 0
    if not args.trace:
        wrappers = measuring(timer, recorder, False)
        wrappers.install()

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass(timer))
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
        elif time.perf_counter() - t0 >= args.seconds:
            break
    if root is not None:
        recorder.close(root)
    wrappers.uninstall()

    reference = {}
    if not args.no_reference:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
    stored = reference_for(reference, workload)
    failed = sum(p.failed for p in passes)
    mismatches: set = set()
    for result in passes:
        extra, bad = check_outputs(result.outputs, stored)
        failed += extra
        mismatches.update(bad)

    counts: dict = {}
    for result in passes:
        for key, value in result.counts.items():
            counts[key] = counts.get(key, 0) + value
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "import_s": import_s,
        "ready_s": ready_s,
        "ready_loop_s": ready_loop_s,
        "passes": len(passes),
        "wall": sum(p.wall for p in passes),
        "simulated": sum(p.simulated for p in passes),
        "op_ms": [ms for p in passes for ms in p.op_ms],
        "reference_s": [r for p in passes for r in p.reference_s],
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "errors": [e for p in passes for e in p.errors],
        "mismatches": sorted(mismatches),
        "reference_checked": stored is not None,
        "digests": {key: value for key, (value, _) in passes[0].outputs.items()},
        "counts": counts,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": wrappers.missing,
        "observer_errors": wrappers.observer_errors,
    }
    if args.trace:
        from layers import compute

        extra = {
            "import_s": import_s,
            "associations": workload.associations,
            "trace_overhead_x": 0.0,  # filled in by run.py
            # A count per run, not per pass: every pass repeats the first.
            **{k: v for k, v in passes[0].counts.items() if k.startswith("dynamic_not_static.")},
        }
        values, absent = compute(recorder.spans, root, wrappers.missing, extra)
        out["layers"] = values
        out["absent"] = absent
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
