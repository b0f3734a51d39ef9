"""One fresh process: set up a workload's inputs, then run at most one pass.

    python3 bench/worker.py '{"workload": ..., "seed": ..., "size": ..., "mode": ...}'

``mode`` is ``setup`` (stop once the inputs exist), ``plain`` (one pass,
tracing off) or ``traced`` (one pass with spans).  The last line of
standard output is one JSON record.  The program is imported from this
checkout's ``src/`` and from nowhere else, so that the benchmark measures
the code beside it.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from tracing import Tracer, layer_metrics, span_records  # noqa: E402
from workloads import WORKLOADS, Verdicts  # noqa: E402
import epiupdate  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(epiupdate.__file__))) != SRC:
    raise ImportError(f"epiupdate was imported from {epiupdate.__file__}, not from {SRC}")


def run_pass(workload: str, seed: int, size: str, mode: str) -> dict:
    """Set up, and unless ``mode`` is ``setup``, run one pass and check it."""
    setup, run = WORKLOADS[workload]
    tr = Tracer(traced=mode == "traced")
    inputs = setup(seed, size, tr)
    record = {"ready_at": monotonic()}
    if mode == "setup":
        return record
    v = Verdicts()
    tr.begin()
    try:
        run(inputs, tr, v)
    except Exception as exc:  # counted as a failed verdict; the pass ends here
        v.error(f"{workload} pass", exc)
    wall_s = perf_counter() - tr.t0
    record.update(
        wall_s=wall_s, item_s=tr.item_s, attempted=v.attempted, failed=v.failed,
        failures=v.failures,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tr.traced:
        record["layers"] = {**layer_metrics(tr.spans, tr.t0, wall_s), **tr.counts}
        record["spans"] = span_records(tr.spans, tr.t0)
    return record


if __name__ == "__main__":
    print(json.dumps(run_pass(**json.loads(sys.argv[1]))))
