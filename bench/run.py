"""gbdkit benchmark runner.

    python3 bench/run.py --workload reach_deep --seed 1 --seconds 11 --trace 0

Run from a checkout of the repository; gbdkit is imported from its src/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of an untraced run; with --trace 1 they are the
per-layer metrics of a separate traced run.  Lines above it, all
starting with '#', give the seed, git sha, Python version, the
reference loop's own spread, the basis (ref units or raw) of every
metric with its raw value, and the known failures.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import measure
import workloads
from measure import NOMINAL_REF_S, RefClock, percentile
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7
MIN_PASSES = 2
CHUNK_S = 0.25        # close a chunk of shallow queries after this much work
CLI_GAPS = 12         # warm CLI calls are spread over this many gaps between chunks
CLI_TIMEOUT_S = 60
ACCEPTANCE_PROCESSES = 2
KNOWN_FAILURE_LEVELS = (900, 1200)

END_TO_END_UNITS = {
    "setup_s": "s", "batch_ref": "ref", "shallow_p50_ref": "ref",
    "shallow_p90_ref": "ref", "deep_p50_ref": "ref", "peak_rss_mb": "MB",
    "cli_call_p50_ref": "ref", "cli_call_p75_ref": "ref", "acceptance_ref": "ref"}


class Tally:
    """Queries attempted, and those that raised or disagreed with their oracle."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, label: str, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def checked(tally, label, check, *result):
    try:
        error = check(*result)
    except Exception as exc:  # a malformed answer counts as a wrong one
        error = f"{type(exc).__name__}: {exc}"
    tally.record(label, error)


# --- set-up ----------------------------------------------------------------------

def fresh_import():
    for name in [n for n in sys.modules if n == "gbdkit" or n.startswith("gbdkit.")]:
        del sys.modules[name]
    return importlib.import_module("gbdkit"), importlib.import_module("gbdkit.cli")


def setup(name: str, seed: int, clock):
    """Import gbdkit and build the workload SETUP_REPEATS times, each a chunk.

    Returns the last build, the set-ups as (seconds, ref units) and the
    import seconds."""
    setups, imports = [], []
    clock.start()
    clock.tick()
    for _ in range(SETUP_REPEATS):
        paused, start = clock.paused_s, perf_counter()
        G, cli = fresh_import()
        imported, paused_imported = perf_counter(), clock.paused_s
        specs = workloads.write_specs(OUT / "specs")
        wl = workloads.BY_NAME[name](G, cli, random.Random(seed), specs)
        seconds = perf_counter() - start - (clock.paused_s - paused)
        imports.append(imported - start - (paused_imported - paused))
        setups.append((seconds, seconds / clock.tick()))
    clock.stop()
    gc.collect()
    return G, cli, wl, setups, imports


# --- timed phases --------------------------------------------------------------------

def run_pass(wl, clock, tally, samples=None, tracer=None, between=None) -> tuple:
    """One pass over the batch: (seconds, ref units).

    Queries run in chunks of about CHUNK_S (a deeper query is a chunk of
    its own); each chunk is bracketed by reference runs, and answers are
    checked outside the timed calls.  samples[tier] collects (seconds, ref
    units) per query.  between(), if given, runs after every chunk.
    """
    gc.collect()
    clock.tick()
    seconds = refs = 0.0
    qid = 0
    for tier, queries in wl.tiers:
        chunk: list = []
        for q in queries:
            if tracer is not None:
                tracer.tier, tracer.qid, tracer.on = tier, qid, True
            paused, start = clock.paused_s, perf_counter()
            try:
                result, error = q.run(), None
            except Exception as exc:  # a raised query is a failed query
                result, error = None, f"{type(exc).__name__}: {exc}"
            chunk.append(perf_counter() - start - (clock.paused_s - paused))
            if tracer is not None:
                tracer.on = False
            if error is None:
                checked(tally, q.label, q.check, result)
            else:
                tally.record(q.label, error)
            qid += 1
            if sum(chunk) >= CHUNK_S or q is queries[-1]:
                unit = clock.tick()
                if samples is not None:
                    samples.setdefault(tier, []).extend((s, s / unit) for s in chunk)
                seconds += sum(chunk)
                refs += sum(chunk) / unit
                chunk = []
                if between is not None:
                    between()
    return seconds, refs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cold_call(argv) -> tuple:
    """One command in a fresh interpreter: (seconds, exit code, stdout)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gbdkit.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return perf_counter() - start, proc.returncode, proc.stdout


def cli_calls(wl, cli, calls, clock, tally, tracer=None) -> list:
    """The calls as one chunk, each checked: [(seconds, ref units), ...].
    The caller has opened the chunk with clock.tick()."""
    seconds = []
    for call in calls:
        if wl.cli_cold:
            s, code, out = cold_call(call.argv)
        else:
            if tracer is not None:
                tracer.tier, tracer.on = "cli", True
            paused, start = clock.paused_s, perf_counter()
            code, out = workloads.warm_call(cli, call.argv)
            s = perf_counter() - start - (clock.paused_s - paused)
            if tracer is not None:
                tracer.on = False
        seconds.append(s)
        checked(tally, call.label, call.check, code, out)
    unit = clock.tick()
    return [(s, s / unit) for s in seconds]


def acceptance_process(clock, tally) -> tuple:
    """`gbdkit report --suite acceptance` in a fresh process: (seconds, ref units)."""
    clock.start()
    clock.tick()
    seconds, code, out = cold_call(["report", "--suite", "acceptance"])
    unit = clock.tick()
    clock.stop()

    def check(code, out):
        ok = code == 0 and "failed: 0" in out
        return None if ok else f"exit {code}: {out.strip().splitlines()[-2:]}"

    checked(tally, "report --suite acceptance", check, code, out)
    return seconds, seconds / unit


def acceptance_in_process(clock, tally) -> dict:
    """run_criterion(name).seconds per criterion: {name: (seconds, ref units)}."""
    acceptance = importlib.import_module("gbdkit.acceptance")
    out = {}
    clock.start()
    clock.tick()
    for name, _ in acceptance.CRITERIA:
        paused = clock.paused_s
        result = acceptance.run_criterion(name)
        seconds = result.seconds - (clock.paused_s - paused)
        out[name] = (seconds, seconds / clock.tick())
        tally.record(f"acceptance {name}", None if result.passed else result.detail)
    clock.stop()
    return out


def known_failures(G) -> list:
    """Deep paths on odometer_one_sided: (call, levels, outcome).  Run once,
    untimed, so that a fix shows here instead of in a timed metric."""
    o1 = G.make_diagram("odometer_one_sided")
    calls = {"count_paths": lambda m: G.count_paths(o1, 1, 0, 1, m),
             "enumerate_paths": lambda m: G.enumerate_paths(o1, 1, 0, 1, m, cap=1)}
    out = []
    for name, call in calls.items():
        for levels in KNOWN_FAILURE_LEVELS:
            try:
                call(levels)
                outcome = "returned"
            except RecursionError:
                outcome = "RecursionError"
            out.append((name, levels, outcome))
    return out


# --- provenance ----------------------------------------------------------------------

def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gbdkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --- the two kinds of run ----------------------------------------------------------------

def warm_up(wl, clock, tally):
    if wl.warm is not None:
        wl.warm()
    else:
        run_pass(wl, clock, tally)


def measure_untraced(args, wl, cli, clock, tally, setups) -> tuple:
    """End-to-end metrics: {name: (value, raw seconds or None)}."""
    calls = list(wl.cli_calls)
    cli_samples: list = []
    clock.start()
    if wl.cli_cold:  # fresh processes, one at a time, each its own chunk
        clock.tick()
        for call in calls:
            cli_samples += cli_calls(wl, cli, [call], clock, tally)
        calls = []
    started = perf_counter()
    per_gap = -(-len(calls) // CLI_GAPS)

    def between():  # warm calls spread over the run, not bunched in one moment
        if calls:
            cli_samples.extend(cli_calls(wl, cli, calls[:per_gap], clock, tally))
            del calls[:per_gap]

    warm_up(wl, clock, tally)
    passes, samples = [], {}
    while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
        passes.append(run_pass(wl, clock, tally, samples, between=between))
    while calls:
        between()
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if wl.cli_cold:  # one process is a single sample; the mean of two is steadier
        runs = [acceptance_process(clock, tally) for _ in range(ACCEPTANCE_PROCESSES)]
        acceptance = tuple(map(statistics.mean, zip(*runs)))
    else:
        per_criterion = acceptance_in_process(clock, tally).values()
        acceptance = tuple(map(sum, zip(*per_criterion)))
    print(f"# passes {len(passes)}; samples: "
          + ", ".join(f"{tier} {len(v)}" for tier, v in samples.items())
          + f"; cli calls {len(cli_samples)} ({'cold' if wl.cli_cold else 'warm'})")

    def stat(pairs, fn):  # (ref-unit statistic, same statistic of raw seconds)
        return fn([r for _, r in pairs]), fn([s for s, _ in pairs])

    def p(pct):
        return lambda values: percentile(values, pct)

    median = statistics.median
    setup_ref, setup_raw = stat(setups, median)
    return {"setup_s": (setup_ref * NOMINAL_REF_S, setup_raw),
            "batch_ref": stat(passes, median),
            "shallow_p50_ref": stat(samples["shallow"], median),
            "shallow_p90_ref": stat(samples["shallow"], p(90)),
            "deep_p50_ref": stat(samples["deep"], median),
            "peak_rss_mb": (peak_rss_mb, None),
            "cli_call_p50_ref": stat(cli_samples, median),
            "cli_call_p75_ref": stat(cli_samples, p(75)),
            "acceptance_ref": (acceptance[1], acceptance[0])}


def measure_traced(args, wl, cli, clock, tally, imports) -> tuple:
    """Per-layer metrics from one traced pass (and, for in-process CLI
    calls, one traced round of them), with {name: unit}.  Reference runs
    only bracket chunks here, so that no timer signal lands inside a span."""
    warm_up(wl, clock, tally)
    untraced = run_pass(wl, clock, tally)[1]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, clock, tally, tracer=tracer)[1]
        if not wl.cli_cold:
            cli_calls(wl, cli, wl.cli_calls, clock, tally, tracer)
    finally:
        tracer.uninstall()
    print(f"# tracing overhead: traced pass {traced:.4f} ref, untraced pass "
          f"{untraced:.4f} ref, overhead {traced - untraced:+.4f} ref "
          f"({(traced / untraced - 1) * 100:+.1f}%)")
    for tier, counts in tracer.work_counts().items():
        print(f"# work {tier}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path)
    print(f"# spans: {len(tracer.s_name)} written to {path.relative_to(ROOT)}")
    layers = tracer.layer_metrics()
    layers["cli.import_ms"] = (statistics.median(imports) * 1000, "ms")
    for name, (_, ref) in acceptance_in_process(clock, tally).items():
        layers[f"acceptance.{name}_ref"] = (ref, "ref")
    return ({name: (value, None) for name, (value, _) in layers.items()},
            {name: unit for name, (_, unit) in layers.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gbdkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gbdkit sources under {ROOT / 'src'}; run the "
                         "benchmark from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)

    clock, tally = RefClock(sample_during=not args.trace), Tally()
    G, cli, wl, setups, imports = setup(args.workload, args.seed, clock)
    print(f"# workload {args.workload}; seed {args.seed}; trace {args.trace}; "
          f"seconds {args.seconds:g}")
    print(f"# git sha {git_sha()}; gbdkit source sha256 {source_digest()}; "
          f"python {platform.python_version()}")
    if args.trace:
        metrics, units = measure_traced(args, wl, cli, clock, tally, imports)
    else:
        metrics, units = measure_untraced(args, wl, cli, clock, tally, setups), \
            END_TO_END_UNITS
    print(f"# reference loop ({measure.REF_ITERS} iterations): {len(clock.brackets)} "
          f"bracketing runs, median {statistics.median(clock.brackets) * 1000:.3f} ms, "
          f"interquartile spread {clock.spread() * 100:.2f}% of the median; "
          f"{clock.samples} in-chunk runs")
    for name, (value, raw) in metrics.items():
        basis = {"ref": "ref units", "s": f"ref units x {NOMINAL_REF_S} s"}.get(
            units[name], "raw")
        raw_text = "" if raw is None else f"; raw {raw:.6g} s"
        print(f"# metric {name} = {value:.6g} {units[name]} ({basis}{raw_text})")

    known = known_failures(G)
    for name, levels, outcome in known:
        label = "known failure" if outcome != "returned" else "known failure cleared"
        print(f"# {label}: {name} on odometer_one_sided over {levels} levels: {outcome}")
    failed = len(tally.failures)
    for line in tally.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# failed_ratio {failed}/{tally.attempted} = {failed / tally.attempted:.6g}")

    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "git_sha": git_sha(),
              "source_sha256": source_digest(), "python": platform.python_version(),
              "raw_seconds": {name: raw for name, (_, raw) in metrics.items()
                              if raw is not None},
              "reference_loop_ms": [r * 1000 for r in clock.brackets],
              "known_failures": [list(k) for k in known],
              "failures": tally.failures}
    bench_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    bench_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
