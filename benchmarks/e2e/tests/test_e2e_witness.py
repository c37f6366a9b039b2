import os
import signal
import statistics
import sys
import time

import sut
import witness
from conftest import ROOT

#: A process that runs city scenarios back to back, as a sim-city server does.
SCENARIOS = """
from repro.scenario.runtime import ScenarioRuntime
from repro.scenario.spec import scenario_from_mapping
seed = 0
while True:
    seed += 1
    spec = scenario_from_mapping({"n_nodes": 300, "duration_s": 30.0, "seed": seed})
    for _ in ScenarioRuntime(spec).run():
        pass
"""


def test_witness_factor_is_the_same_whether_the_core_idles_or_runs_scenarios():
    """The factor divides the gated times, so the program must not move it.

    A scenario process on the witness's core is paused and resumed every
    0.3 s, so both phases see the same host speed; their factors must agree.
    """
    core = max(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    load = sut.spawn_on({core}, [sys.executable, "-c", SCENARIOS], env=env)
    phases = []
    try:
        os.kill(load.pid, signal.SIGSTOP)
        with sut.busy_cores({core}), witness.Witness({core}) as probe:
            for index in range(64):
                running = index % 2 == 1
                os.kill(load.pid, signal.SIGCONT if running else signal.SIGSTOP)
                time.sleep(0.05)
                started = time.perf_counter()
                time.sleep(0.25)
                phases.append((running, started, time.perf_counter()))
    finally:
        load.kill()
        load.wait()
    times, units = probe.series[core]
    by_phase = {True: [], False: []}
    for running, start, end in phases:
        by_phase[running] += [u for t, u in zip(times, units) if start <= t <= end]
    assert min(len(samples) for samples in by_phase.values()) >= 100
    ratio = witness.slowdown(by_phase[True]) / witness.slowdown(by_phase[False])
    assert abs(ratio - 1.0) < 0.10, (ratio, statistics.median(by_phase[True]),
                                     statistics.median(by_phase[False]))
