"""One workload in a fresh interpreter: set up, then run whole rounds of the
workload's subcommands until the run length is used, at least MIN_ROUNDS.

`run.py` starts this process with qs4's `src` directory on PYTHONPATH.
Times are taken around each `qs4.cli.parse_and_run` call only.  The process
writes one JSON record to `--record`: the monotonic time at which set-up
ended and, per round, the wall and CPU seconds (the wall time also per
operation), the exit codes, digests of the files each operation wrote and,
with `--trace 1`, the layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
from pathlib import Path

import qs4.cli
from workloads import OPERATIONS

MIN_ROUNDS = 3  # the median of fewer rounds is one round's noise


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--record", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    ops = OPERATIONS[args.workload](args.seed, args.work)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    record = {"ready": ready, "rounds": []}
    if not args.setup_only:
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(record["rounds"]) < MIN_ROUNDS):
            record["rounds"].append(_round(ops, tracer))
            gc.collect()
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.record.write_text(json.dumps(record))


def _round(ops, tracer) -> dict:
    cpu = 0.0
    walls, codes, digests = [], [], []
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        code = qs4.cli.parse_and_run(list(op.argv))
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        codes.append(code)
        digests.append([_digest(f) for f in op.outputs] if code == 0 else None)
    out = {"wall_s": sum(walls), "cpu_s": cpu, "op_wall_s": walls, "codes": codes,
           "digests": digests}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.reset()
    return out


if __name__ == "__main__":
    main()
