"""Layered womkit benchmark: one command per workload run.

    python3 perfbench/run.py --workload search_wide --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: womkit is imported from `src/`
(no install) and the CLI runs as `python -m womkit.cli` children with
PYTHONPATH=src. All load is a closed loop from this one process, with no
threads. Sessions repeat until `--seconds` have passed; every output is
checked (see workloads.py) and a failure makes the exit code 1.

The host is shared, and its speed drifts within a run and from run to
run. So the run times a fixed reference loop (speed.py) before and after
every timed operation, and scales each operation's time to a machine on
which that loop takes SPEED_REF_S, by the loop's mean time around the
operation. `meta.unscaled` keeps the metrics computed from the measured
times. Where a session comes round again on the same input, each timed
operation counts at the median of its repeats. Percentiles are
Harrell-Davis estimates, which do not jump when the sample at the
nearest rank moves.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs each session
twice, untraced and traced in alternating order, and prints per-layer
metrics from spans recorded around womkit's public functions, with the
tracing overhead against the untraced sessions.

Stdout ends with a `{"meta": ...}` line (Python version, CPU count, git
SHA, seed, sample counts) and then the result line
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from spans import BUDGETS_SPAN, LAYER_FUNCTIONS, Tracer
from speed import Timed, timed_since
from workloads import CLI_PROBE, DEFAULT_SEED, WORKLOADS, Ledger, Workload, cli_env, src_dir

SETUP_REPEATS = 21
IMPORT_PROBES = 3
SPEED_SAMPLES = 3  # reference-loop samples before each set-up and each session
SPEED_REF_S = 2.2e-3  # reference-loop time of the machine the end-to-end times are scaled to
WORK_DIR = ".perfbench_work"
clock = time.perf_counter


def fresh_import():
    """Import womkit anew, so each set-up pays the import and empty caches."""
    for key in [k for k in sys.modules if k == "womkit" or k.startswith("womkit.")]:
        del sys.modules[key]
    return importlib.import_module("womkit")


def beyond(count: int, pct: float) -> int:
    """The number of samples above the nearest-rank percentile of `count`."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def harrell_davis(samples: list[float], pct: float, steps: int = 8) -> float:
    """Harrell-Davis percentile: order statistics weighted by a beta density.

    The weight of the i-th smallest of n samples is the mass of
    Beta(q(n+1), (1-q)(n+1)) on ((i-1)/n, i/n), integrated with the
    midpoint rule on `steps` points per interval.
    """
    ordered = sorted(samples)
    n, q = len(ordered), pct / 100.0
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            u = (i * steps + k + 0.5) * h
            mass += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def by_input(sessions, attr: str = "key") -> list[list]:
    """Sessions grouped by the input they ran on (or, with "read_key", read)."""
    groups: dict[int, list] = {}
    for session in sessions:
        groups.setdefault(getattr(session, attr), []).append(session)
    return list(groups.values())


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256(src: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(src, "womkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def check_pin(ledger: Ledger, spec, seed: int, digest: str | None) -> bool | None:
    """Session 0's output digest against the pin at the default seed."""
    if seed != DEFAULT_SEED or spec.pin is None:
        return None
    return ledger.check(digest == spec.pin, f"{spec.name}: output digest {digest} != pinned {spec.pin}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def more_sessions(count: int, last_wall: float, deadline: float) -> bool:
    """Start another session if it should end nearer the deadline than not."""
    return count == 0 or clock() + 0.5 * last_wall < deadline


def run_sessions(workload: Workload, wk, inputs, deadline: float) -> list:
    sessions, wall = [], 0.0
    while more_sessions(len(sessions), wall, deadline):
        gc.collect()
        workload.speed.sample(SPEED_SAMPLES)
        t0 = clock()
        sessions.append(workload.session(wk, inputs, len(sessions)))
        wall = clock() - t0
    workload.speed.sample(SPEED_SAMPLES)
    return sessions


def summarize(sessions, setups: list[Timed], pct: float, seconds) -> dict:
    """The end-to-end times, with `seconds(timed)` the time of one operation.

    An operation done more than once on the same input counts at the
    median of its times.
    """
    groups, read_groups = by_input(sessions), by_input(sessions, "read_key")

    def typical(group, attr: str) -> float:
        return statistics.median(seconds(getattr(s, attr)) for s in group)

    # Repeats of one input line up block by block.
    latencies = [statistics.median(map(seconds, col))
                 for group in groups for col in zip(*(s.latencies for s in group))]
    write_bits = sum(group[0].write_bits for group in groups)
    read_bits = sum(group[0].read_bits for group in read_groups)
    read_s = sum(statistics.median(seconds(r) for s in g for r in s.reads) for g in read_groups)
    return {
        "setup_s": statistics.median(map(seconds, setups)),
        "write_bits_per_s": write_bits / sum(typical(g, "write") for g in groups),
        "read_bits_per_s": read_bits / read_s,
        "block_search_p50_ms": 1e3 * harrell_davis(latencies, 50.0),
        "block_search_tail_ms": 1e3 * harrell_davis(latencies, pct),
        "session_s": statistics.median(typical(g, "session") for g in groups),
    }


UNITS = {"setup_s": "s", "write_bits_per_s": "bit/s", "read_bits_per_s": "bit/s",
         "block_search_p50_ms": "ms", "block_search_tail_ms": "ms", "session_s": "s"}


def end_to_end(workload: Workload, seed: int, seconds: float, meta: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        workload.speed.sample(SPEED_SAMPLES)
        t0 = clock()
        wk = fresh_import()
        inputs = workload.setup(wk, seed)
        setups.append(timed_since(t0))
    sessions = run_sessions(workload, wk, inputs, clock() + seconds)

    speed, pct = workload.speed, workload.spec.tail_pct
    groups = by_input(sessions)
    samples = sum(len(group[0].latencies) for group in groups)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    meta.update(
        sessions=len(sessions),
        inputs=len(groups),
        repeats_per_input=[len(group) for group in groups],
        setup_repeats=SETUP_REPEATS,
        block_search_samples=samples,
        block_search_tail_percentile=pct,
        block_search_tail_beyond=beyond(samples, pct),
        speed_samples=len(speed.samples),
        speed_median_s=statistics.median(speed.samples),
        unscaled=summarize(sessions, setups, pct, lambda t: t.seconds),
        digest=sessions[0].digest,
        pin_ok=check_pin(workload.ledger, workload.spec, seed, sessions[0].digest),
    )
    scaled = summarize(sessions, setups, pct,
                       lambda t: t.seconds * SPEED_REF_S / speed.local(t.start, t.end))
    out = {name: metric(value, UNITS[name]) for name, value in scaled.items()}
    # Children run one at a time while this process waits, so the peak
    # is at most this process's peak plus the largest child's.
    out["peak_rss_mb"] = metric((self_rss + child_rss) / 1024.0, "MB")
    return out


def search_counters(wk, searched) -> dict:
    """Search work derived from outside the search: stored multipliers and set sizes."""
    scanned, candidates, bound = [], 0, 0
    for params, j, words, a in searched:
        budget = params.budgets[j - 1]
        per_block = sum(wk.count_above(w, budget) for w in words)
        scanned.append(a + 1)
        candidates += per_block
        bound += (a + 1) * per_block
    return {
        "block_codec.search.multipliers_scanned": metric(sum(scanned), "count"),
        "block_codec.search.multipliers_scanned_p50": metric(statistics.median(scanned), "count"),
        "block_codec.search.multipliers_scanned_max": metric(max(scanned), "count"),
        "block_codec.search.candidate_words": metric(candidates, "count"),
        "block_codec.search.hash_evals_bound": metric(bound, "count"),
        "block_codec.search.useful_ratio": metric(len(scanned) / sum(scanned), "ratio"),
    }


def cli_metrics(workload: Workload, wk, seed: int, sessions) -> dict:
    """cli.* metrics: import probes plus the CLI commands of the sessions.

    In-process workloads run one small CLI session (CLI_PROBE) for them.
    """
    if workload.spec.kind != "cli":
        probe = Workload(CLI_PROBE, workload.ledger, workload.workdir)
        sessions = [probe.session(wk, probe.setup(wk, seed), 0)]
    imports = []
    for _ in range(IMPORT_PROBES):
        t0 = clock()
        proc = subprocess.run([sys.executable, "-c", "import womkit.cli"], cwd=workload.workdir,
                              env=cli_env(), capture_output=True, timeout=120)
        imports.append(clock() - t0)
        workload.ledger.check(proc.returncode == 0, f"import womkit.cli exited {proc.returncode}")
    out = {"cli.import_s": metric(statistics.median(imports), "s")}
    for command in ("init", "write", "read"):
        walls = [x for s in sessions for x in s.cli_walls.get(command, ())]
        out[f"cli.{command}.wall_s"] = metric(statistics.median(walls) if walls else 0.0, "s")
    out["cli.exit_nonzero"] = metric(sum(s.cli_nonzero for s in sessions), "count")
    return out


def per_layer(workload: Workload, seed: int, seconds: float, meta: dict) -> dict:
    tracer = Tracer()
    wk = fresh_import()
    with tracer.installed(wk), tracer.span("bench.setup"):
        inputs = workload.setup(wk, seed)
    deadline = clock() + seconds
    walls = {False: 0.0, True: 0.0}
    traced_sessions, all_sessions = [], []
    i, pair_wall = 0, 0.0
    while more_sessions(i, pair_wall, deadline):
        pair_start = clock()
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            t0 = clock()
            if traced:
                with tracer.installed(wk), tracer.span("bench.session"):
                    session = workload.session(wk, inputs, i)
                traced_sessions.append(session)
            else:
                session = workload.session(wk, inputs, i)
            walls[traced] += clock() - t0
            all_sessions.append(session)
        pair_wall = clock() - pair_start
        i += 1
    with tracer.installed(wk), tracer.span("bench.counters"):
        counters = search_counters(wk, [x for s in traced_sessions for x in s.searched])

    summary = tracer.summary()
    out = {}
    names = [f"{layer}.{f}" for layer, funcs in LAYER_FUNCTIONS.items() for f in funcs] + [BUDGETS_SPAN]
    for name in names:
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(self_s, "s")
    out["bitwords.enumerate_above.words"] = metric(tracer.items["bitwords.enumerate_above"], "count")
    out.update(counters)
    out["block_codec.search.no_encoding"] = metric(workload.ledger.no_encoding, "count")
    last = traced_sessions[-1]
    out["wom_device.image_bytes"] = metric(last.image_bytes, "bytes")
    out["wom_device.cells_programmed"] = metric(last.cells_programmed, "count")
    out.update(cli_metrics(workload, wk, seed, all_sessions))
    out["trace.overhead_frac"] = metric(walls[True] / walls[False] - 1.0, "ratio")
    out["trace.spans"] = metric(len(tracer.starts), "count")
    meta.update(sessions=i, traced_session_s=walls[True], untraced_session_s=walls[False],
                digest=all_sessions[0].digest,
                pin_ok=check_pin(workload.ledger, workload.spec, seed, all_sessions[0].digest))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = src_dir()
    if not os.path.isfile(os.path.join(src, "womkit", "__init__.py")):
        print(f"error: womkit sources not found at {src}/womkit; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    root = os.path.dirname(src)
    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)

    ledger = Ledger()
    workload = Workload(WORKLOADS[args.workload], ledger, workdir)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(src),
    }
    metrics = {}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args.seed, args.seconds, meta)
    except Exception:  # a crash outside a session: report it as a failed run
        traceback.print_exc()
        ledger.attempted += 1
        ledger.fail("benchmark aborted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    meta["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    meta["failures"] = ledger.reasons
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
