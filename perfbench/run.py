"""Run one workload of the prymbn benchmark and print its metrics.

    python3 perfbench/run.py --workload reflect --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
with no build step.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured with tracing off; with ``--trace 1`` they are the per-layer ones,
from an untraced and a traced pass of half the time each.
The line before it is a ``meta`` object: seed, item counts per kind,
failing items, commit, Python version, nproc and load average.

``setup_s`` is the median over several fresh interpreters of the time
from start to the first timed item: import, deck building and warm-up.
Every end-to-end time is reported at reference speed (see ``harness``);
the ``meta`` line also holds the raw wall times and the host-speed readings.
Each traced run writes its spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7  # fresh interpreters timed for setup_s
WARMUP_ITEMS = 30  # deck items run once, untimed, before the timed pass
SETUP_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def prepare(workload: str, seed: int, api, workdir: Path):
    """Build the workload's deck from the seed, warm it up and shuffle it.

    The warm-up runs the first items in build order, which are the same
    instances for every seed, so set-up costs the same on every seed.
    """
    from layers import make_api
    from harness import run_item
    from workloads import WORKLOADS

    rng = random.Random(seed)
    deck = WORKLOADS[workload](rng, api, workdir)
    plain = make_api(None)
    for item in deck[:WARMUP_ITEMS]:
        if item.stage is not None:
            item.stage()
        run_item(item, plain)
    rng.shuffle(deck)
    return deck


def time_setups(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time from interpreter start to 'ready', in fresh child processes.

    Returns the raw times and the host-speed readings around them: one
    before the first child and one after each.
    """
    from harness import host_speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times, refs = [], [host_speed()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(t1 - t0)
        refs.append(host_speed())
    return times, refs


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "prymbn").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[section]}


def failure_list(res) -> list[dict]:
    return [{"item": label, "reason": reason, "count": n}
            for (label, reason), n in sorted(res.failures.items())]


def measure(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One run: the result object and its ``meta`` record."""
    from harness import Tracer, at_reference, deck_rate, item_p99, end_to_end, per_layer, run_pass
    from layers import EXTRAS, MODULES, SPANS, make_api
    from workloads import calibrate

    meta = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds}
    if trace == 0:
        setups, setup_refs = time_setups(workload, seed, setup_repeats)
        scaled = [at_reference(t, setup_refs[i], setup_refs[i + 1])
                  for i, t in enumerate(setups)]
        api = make_api(None)
        deck = prepare(workload, seed, api, workdir)
        res = run_pass(deck, api, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(res, statistics.median(scaled), rss_mb)
        units = declared("end_to_end")
        raw_decks = res.decks(res.latencies)
        meta["raw"] = {
            "setup_s": statistics.median(setups),
            "items_per_s": deck_rate(raw_decks),
            "item_p50_ms": statistics.median(res.latencies) * 1e3,
            "item_p99_ms": item_p99(raw_decks) * 1e3,
        }
        p99_s = metrics["item_p99_ms"] / 1e3
        meta["beyond_p99"] = sum(1 for x in res.scaled_latencies() if x > p99_s)
        meta["setup_runs_s"] = setups
        meta["ref_unit_ms"] = [x * 1e3 for x in setup_refs + res.ref_s]
    else:
        tracer = Tracer()
        calibrate(make_api(tracer), workdir)
        deck = prepare(workload, seed, make_api(tracer), workdir)
        untraced = run_pass(deck, make_api(None), seconds / 2)
        res = run_pass(deck, make_api(tracer), seconds / 2, tracer)
        metrics = per_layer(tracer.spans, list(SPANS),
                            {f"{span}.{name}": span for span, (name, _) in EXTRAS.items()},
                            list(MODULES), res, untraced)
        units = declared("per_layer")
        trace_file = WORK / "traces" / f"{workload}-seed{seed}.csv.gz"
        tracer.dump(trace_file)
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        meta["untraced_items"] = untraced.attempted
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with"
                           " BENCHMARK.json")
    meta.update(
        items_by_kind=dict(sorted(Counter(res.item_kinds).items())),
        median_ms_by_kind=res.median_ms_by_kind(),
        samples=res.attempted,
        wrong=res.wrong,
        failures=failure_list(res),
        **provenance(),
    )
    result = {
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "prymbn" / "__init__.py").is_file():
        print(f"error: no prymbn sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import make_api
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, make_api(None), workdir)
            print("ready", flush=True)
            return 0
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        result, meta = measure(args.workload, args.seed, seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in meta["failures"]:
        print(f"failed x{f['count']}: {f['item']}: {f['reason']}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
