"""Run one workload of the epiupdate benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a
fresh worker process (``bench/worker.py``) that imports ``epiupdate``
from the checkout's ``src/``.

``--trace 0`` runs passes, each in a fresh worker, for ``--seconds``
seconds: at least ``MIN_PASSES``, so that every item's time is a median
over passes, and beyond those no pass that would be predicted to end
past the budget.  Before each pass, ``SETUP_PROBES`` workers only set up.  It
reports each end-to-end metric as a median:

  wall_s        from the first call into epiupdate after set-up to the
                last verdict checked, median over passes
  setup_s       interpreter start, epiupdate import and the seeded inputs,
                median over every worker started
  item_p50_ms   median time of one item, each item's time being its
                median over the passes
  item_tail_ms  item time at the highest percentile with at least ten
                items beyond it (the largest, with fewer than 11 items)
  peak_rss_mb   ru_maxrss of the worker that ran the pass, median over
                passes

``--trace 1`` runs one pass with tracing off and one with spans, and
reports the per-layer metrics of BENCHMARK.json from the spans, with
``trace.overhead_s`` the difference of the two ``wall_s``.  Either way the
failed verdicts (wrong answers and exceptions) over the verdicts attempted
are the fail ratio.  Human-readable lines, with the environment, come
first; the last line of standard output is one JSON object.  A record of
the run, spans included, is written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("snapshot_ladder", "history_family", "pattern_search")
SIZES = ("full", "smoke")
SETUP_PROBES = 3  # per pass
MIN_PASSES = 2
RUN_LIMIT_S = 170
LADDER_WORLDS = 4 * 3 ** 8  # the largest rung, Sq odot IS^8


class BenchError(Exception):
    pass


def world_cap() -> int | None:
    """EPIUPDATE_MAX_WORLDS as the program reads it; None when unset."""
    raw = os.environ.get("EPIUPDATE_MAX_WORLDS")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise BenchError(f"EPIUPDATE_MAX_WORLDS={raw!r} is not an integer") from None
    if cap < LADDER_WORLDS:
        raise BenchError(
            f"EPIUPDATE_MAX_WORLDS={cap} is below the {LADDER_WORLDS} worlds of the "
            f"snapshot ladder; unset it or raise it to at least {LADDER_WORLDS}")
    return cap


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(cap: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "EPIUPDATE_MAX_WORLDS": cap,
    }


class Workers:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int, size: str):
        self.base = {"workload": workload, "seed": seed, "size": size}
        # one fixed string hashing for every run: a different hash seed alone
        # moves the ladder's time by several percent
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = monotonic() + RUN_LIMIT_S

    def run(self, mode: str) -> dict:
        spawned = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps({**self.base, "mode": mode})],
                capture_output=True, text=True, cwd=ROOT, env=self.env,
                timeout=max(self.deadline - spawned, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the {RUN_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        if not proc.stdout.strip():
            raise BenchError(f"{mode} worker printed no record")
        record = json.loads(proc.stdout.splitlines()[-1])
        # CLOCK_MONOTONIC is system-wide, so the worker's reading compares with ours
        record["setup_s"] = record.pop("ready_at") - spawned
        return record


def tail_rank(n: int) -> int:
    """Index of the sorted item with exactly ten items beyond it (the last if n < 11)."""
    return n - 11 if n >= 11 else n - 1


def tail_label(n: int) -> str:
    return f"p{100 * (n - 10) / n:.2f} of {n} items" if n >= 11 else f"the largest of {n}"


def item_stats(passes: list[dict]) -> tuple[float, float]:
    """Median and tail over items, each item's time being its median over passes.

    Every pass runs the same items, so an item slowed by a passing stall
    of the machine in one pass is read at its typical time.
    """
    ids = passes[0]["item_s"]
    xs = sorted(statistics.median(p["item_s"][i] for p in passes) for i in ids)
    return statistics.median(xs), xs[tail_rank(len(xs))]


def timed_run(workers: Workers, seconds: float) -> tuple[dict, list, list]:
    setups, passes = [], []
    started = monotonic()
    while True:
        # set-up probes between passes sample the machine at several moments
        setups += [workers.run("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        record = workers.run("plain")
        passes.append(record)
        setups.append(record["setup_s"])
        spent = monotonic() - started
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
            break
    p50, tail = item_stats(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes, setups


def traced_run(workers: Workers, per_layer: list[dict]) -> tuple[dict, list]:
    plain = workers.run("plain")
    traced = workers.run("traced")
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in per_layer}
    return metrics, [plain, traced]


def result_line(metrics: dict, passes: list) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def describe(args, env: dict, metrics: dict, passes: list, result: dict) -> list[str]:
    lines = [f"epiupdate benchmark: workload {args.workload}, seed {args.seed}, "
             f"size {args.size}, trace {args.trace}, {len(passes)} pass(es)",
             "environment: " + json.dumps(env)]
    n = len(passes[0]["item_s"])
    notes = {"item_p50_ms": f"median of {n} items", "item_tail_ms": tail_label(n)}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes and not args.trace else ""
        lines.append(f"{name:<44} {value:>14.6g} {unit}{note}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"{'fail_ratio':<44} {ratio:>14.6g} ratio  "
                 f"({result['failed']} failed of {result['attempted']} verdicts)")
    for p in passes:
        lines.extend("FAILED " + f for f in p["failures"])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="smoke runs a small version of the workload, for tests")
    args = ap.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "epiupdate")):
            raise BenchError(f"no epiupdate sources under {os.path.join(ROOT, 'src')}")
        cap = world_cap()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        env = environment(cap)
        workers = Workers(args.workload, args.seed, args.size)
        if args.trace:
            metrics, passes = traced_run(workers, spec["per_layer"])
            extra = {"spans": passes[1].pop("spans")}
        else:
            metrics, passes, setups = timed_run(workers, args.seconds)
            extra = {"setup_s": setups}
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = result_line(metrics, passes)
    print("\n".join(describe(args, env, metrics, passes, result)))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "passes": passes, **extra}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
