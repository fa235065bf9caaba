"""Self-tests of the benchmark: run with `python3 -m pytest bench -q`.

For two seeds, every workload is built twice on fresh objects and given
one untraced and one traced pass; the per-tier work counts must repeat
exactly and no answer may disagree with its oracle.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run
import workloads
from measure import RefClock
from tracer import Tracer

SEEDS = (11, 12)


def traced_counts(name, seed):
    """Per-tier work counts of one traced pass on a fresh build, the oracle
    failures of the warm-up and traced passes, and the tier names."""
    G, cli = run.fresh_import()
    specs = workloads.write_specs(run.OUT / "specs")
    wl = workloads.BY_NAME[name](G, cli, random.Random(seed), specs)
    clock, tally = RefClock(sample_during=False), run.Tally()
    run.warm_up(wl, clock, tally)
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(wl, clock, tally, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer.work_counts(), tally.failures, {tier for tier, _ in wl.tiers}


@pytest.fixture(scope="module")
def counts():
    run.OUT.mkdir(parents=True, exist_ok=True)
    return {(name, seed, rep): traced_counts(name, seed)
            for name in workloads.BY_NAME for seed in SEEDS for rep in (0, 1)}


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
@pytest.mark.parametrize("seed", SEEDS)
def test_work_counts_repeat_and_answers_hold(counts, name, seed):
    first, failures, tiers = counts[name, seed, 0]
    again, failures_again, _ = counts[name, seed, 1]
    assert failures == [] and failures_again == []
    assert first == again
    assert set(first) == tiers


def test_band_costs_do_not_change_with_the_seed(counts):
    assert counts["reach_deep", SEEDS[0], 0][0] == counts["reach_deep", SEEDS[1], 0][0]


def test_cli_batches_leave_ten_samples_beyond_the_p75():
    G, cli = run.fresh_import()
    specs = workloads.write_specs(run.OUT / "specs")
    for build in workloads.BY_NAME.values():
        assert len(build(G, cli, random.Random(1), specs).cli_calls) >= 40
