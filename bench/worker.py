"""The measured process: one client running ops in a closed loop.

Usage: python bench/worker.py PLAN.json

The plan (written by run.py) names the package's source directory, the
workload's slots and the phases to run.  Each op calls
`confound_lens.cli.main(argv)` in this process for every call of its slot;
the next op starts when the previous one returns.  This process imports
neither scipy nor the oracles, so its peak RSS is the program's own.

For every op the worker records its latency, exit codes and a SHA-256 of its
outputs, and keeps a copy of the outputs of each slot's first op for the
parent to check.  In a traced phase it installs the tracer and writes the
spans out when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def _digest(paths: list[str]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError:
            data = b"<missing>"
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from confound_lens import cli

    slots = plan["slots"]
    period = len(slots)
    first_dir = Path(plan["first_dir"])
    seen: set[int] = set()
    records = []
    tracer = None
    i = 0
    for phase in plan["phases"]:
        if phase.get("whole_periods"):
            i = math.ceil(i / period) * period
        if phase.get("traced"):
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        done = 0
        while not (done >= phase.get("min_ops", 1)
                   and time.perf_counter() - start >= phase["seconds"]
                   and (not phase.get("whole_periods") or i % period == 0)):
            slot = i % period
            if tracer is not None:
                tracer.op = i
            outputs = [call["output"] for call in slots[slot]]
            for path in outputs:  # an op that writes nothing must not pass on stale bytes
                Path(path).unlink(missing_ok=True)
            codes = []
            t0 = time.perf_counter()
            for call in slots[slot]:
                try:
                    code = cli.main(list(call["argv"]))
                except Exception:  # an escaped exception is a failed op, not a dead run
                    traceback.print_exc()
                    code = -1
                codes.append(code)
                if code != 0:
                    break
            ms = (time.perf_counter() - t0) * 1000.0
            digest, size = _digest(outputs)
            if slot not in seen:
                seen.add(slot)
                for path in outputs:
                    if Path(path).exists():
                        shutil.copyfile(path, first_dir / f"{slot}-{Path(path).name}")
            records.append({"phase": phase["name"], "slot": slot, "ms": ms, "codes": codes,
                            "digest": digest, "bytes": size})
            i += 1
            done += 1
        if tracer is not None:
            tracer.restore()

    result = {"ops": records,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "package_file": cli.__file__}
    if tracer is not None:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["missing"] = tracer.missing
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
