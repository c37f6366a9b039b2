"""One benchmark run: boot, warm up, calibrate, measure, verify.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced
run (``--trace 1``) repeats the untraced window (for the generator's
numbers and the tracing overhead), then measures the same traffic against
the traced server — or, on sim-city, replays the same scenarios in-process
under class-level wrappers — and reports the per-layer metrics.  No
end-to-end number ever comes from a traced window.
"""

import json
import pathlib
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.service.cli import _build_parser
from repro.utils.validation import check_non_negative_int

import layers
import oracles
import tracing
import witness
from httpgen import Address, Sample, closed_loop, get_json, open_loop, run
from quantiles import MIN_BEYOND, median, tail
from sut import HERE, SERVER_ARGS, Server, Sidecar, cpu_split, service_argv
from traffic import (
    Request,
    calibration,
    encode,
    repeat_working_set,
    scenario_body,
    schedule,
    warmup,
)

#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Seconds of ``GET /healthz`` calibration before the window.
CALIBRATION_S = 3.0
#: A run whose generator enqueued this late at p99 measured itself [ms].
LATENESS_LIMIT_MS = 2.0
#: Scenarios replayed in-process by a traced sim-city run.
REPLAYS = 2
#: Snapshot rows per sim-city scenario (duration / snapshot interval).
SNAPSHOTS = 12
SMOKE_SNAPSHOTS = 2


class Config:
    """What to run and where its scratch files go."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool,
                 workdir: pathlib.Path) -> None:
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        self.workload = workload
        self.seed = check_non_negative_int(seed, "seed")
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.generator_cpus, self.server_cpus = cpu_split()
        self._boots = 0

    @property
    def calibration_s(self) -> float:
        return 0.5 if self.smoke else CALIBRATION_S

    @property
    def snapshots(self) -> int:
        return SMOKE_SNAPSHOTS if self.smoke else SNAPSHOTS

    def cache_dir(self) -> pathlib.Path:
        """A fresh result/ē_b cache directory for the next boot."""
        self._boots += 1
        path = self.workdir / f"cache-{self._boots}"
        path.mkdir(parents=True)
        return path


class Window:
    """What one measured window saw, from the client and from ``/proc``."""

    def __init__(self, cfg: Config) -> None:
        self.generator_cpus = cfg.generator_cpus
        self.server_cpus = cfg.server_cpus
        self.samples: List[Sample] = []
        self.calibration: List[Sample] = []
        self.warm: Dict[bytes, bytes] = {}
        self.metrics_before: Dict[str, Any] = {}
        self.metrics_after: Dict[str, Any] = {}
        #: (time, cumulative server-tree CPU seconds), window start to end.
        self.server_cpu: List[Tuple[float, float]] = []
        self.generator_cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.witness = witness.Witness(cfg.generator_cpus | cfg.server_cpus)

    def request_slowdown(self, start: float, end: float) -> float:
        """Each core's slowdown weighted by the CPU time the window spent
        on it: a request's time is spent on the generator's core (send,
        receive, parse) as well as on the server's."""
        total_s = self.generator_cpu_s + self.server_cpu_s
        share = self.generator_cpu_s / total_s if total_s > 0 else 0.0
        return (share * self.witness.slowdown(start, end, self.generator_cpus)
                + (1.0 - share) * self.server_slowdown(start, end))

    def server_slowdown(self, start: float, end: float) -> float:
        return self.witness.slowdown(start, end, self.server_cpus)

    def overall(self) -> float:
        return self.witness.overall(self.server_cpus)

    @property
    def server_cpu_s(self) -> float:
        return self.server_cpu[-1][1] - self.server_cpu[0][1]


# --------------------------------------------------------------------- #
# Phases                                                                #
# --------------------------------------------------------------------- #


def _tag(prefix: str) -> Callable[[Request], str]:
    """``X-Bench-Id`` values: the schedule index, prefixed per phase."""
    return lambda request: f"{prefix}{request.index}"


async def _warm_up(address: Address, workload: str) -> None:
    """Untimed: lazy pool spawn and first-call imports land in set-up."""
    for sample in await open_loop(address, warmup(workload), _tag("w"), connections=1):
        problem = oracles.check_structure(sample)
        if problem:
            raise RuntimeError(f"warm-up {sample.request.kind} failed: {problem}")


async def _measure(cfg: Config, server: Server, window: Window) -> None:
    """Calibration, the plan-repeat warm pass, then the timed window."""
    address = server.address
    with window.witness:
        window.calibration = await open_loop(
            address, calibration(cfg.seed, cfg.calibration_s), _tag("c"))
        if cfg.workload == "plan-repeat":
            await _warm_pass(address, window)
        window.metrics_before = await get_json(address, "metrics", "m0")
        with Sidecar(cfg.generator_cpus, [str(HERE / "sut.py"), str(server.pid)]) as tree:
            gen0 = time.process_time()
            if cfg.workload == "sim-city":
                def scenario(i: int) -> Request:
                    body = encode(scenario_body(cfg.seed, i, cfg.smoke))
                    return Request(index=i, due_s=0.0, kind="simulate", body=body, stream=True)

                window.samples = await closed_loop(address, scenario, cfg.seconds, timeout_s=170.0)
            else:
                window.samples = await open_loop(
                    address, schedule(cfg.workload, cfg.seed, cfg.seconds), _tag(""))
            window.generator_cpu_s = time.process_time() - gen0
    window.server_cpu = [(t, cpu_s) for t, cpu_s, _ in tree.samples]
    window.peak_rss_mb = max(rss_mb for _, _, rss_mb in tree.samples)
    window.metrics_after = await get_json(address, "metrics", "m1")


async def _warm_pass(address: Address, window: Window) -> None:
    """plan-repeat: answer the whole working set once, untimed, so every
    timed request is a result-cache hit with a known reply."""
    working = [
        Request(index=i, due_s=0.0, kind=kind, body=body, stream=False)
        for i, (kind, body) in enumerate(
            (kind, body) for kind, bodies in repeat_working_set().items() for body in bodies)
    ]
    for sample in await open_loop(address, working, _tag("p")):
        if not sample.ok:
            raise RuntimeError(f"warm pass failed: {sample.status} {sample.error}")
        window.warm[sample.request.body] = sample.body


def run_window(cfg: Config, spans_path: Optional[pathlib.Path] = None,
               boots: int = 1) -> Tuple[Window, List[Tuple[float, float]]]:
    """Boot ``boots`` times (each cold, each warmed up); measure on the last.

    Returns the window and each boot's set-up time (launch to listening,
    plus the warm-up) with the host slowdown measured around it.
    """
    setups: List[Tuple[float, float]] = []
    window = Window(cfg)
    for boot in range(boots):
        units = witness.burst(cfg.server_cpus)
        server = Server(service_argv(spans_path), cfg.cache_dir(), cfg.server_cpus)
        try:
            started = time.perf_counter()  # lint: ignore[RP103]
            run(_warm_up(server.address, cfg.workload))
            setup_s = server.boot_s + time.perf_counter() - started  # lint: ignore[RP103]
            units += witness.burst(cfg.server_cpus)
            setups.append((setup_s, witness.slowdown(units)))
            if boot == boots - 1:
                run(_measure(cfg, server, window))
        finally:
            exit_code = server.stop()
        if exit_code != 0:
            raise RuntimeError(f"server exited {exit_code} instead of draining")
    return window, setups


# --------------------------------------------------------------------- #
# Verification                                                          #
# --------------------------------------------------------------------- #


def verify(cfg: Config, window: Window, direct: Optional[oracles.Direct]) -> List[str]:
    """Every failed check of one window; empty when all outputs are right."""
    failures = []
    for sample in window.samples:
        problem = oracles.check_structure(sample, cfg.snapshots)
        if problem is None and direct is not None and sample.request.index % oracles.DIRECT_EVERY == 0:
            problem = direct.check(sample)
        if problem is None and window.warm and sample.body != window.warm[sample.request.body]:
            problem = "response differs from the warm-pass response for the same body"
        if problem is not None:
            failures.append(f"request {sample.tag} ({sample.request.kind}): {problem}")
    failures += oracles.accounting(
        cfg.workload, window.metrics_before, window.metrics_after, window.samples)
    return failures


def _direct(cfg: Config) -> Optional[oracles.Direct]:
    return oracles.Direct() if cfg.workload in ("plan-unique", "plan-sweep") else None


# --------------------------------------------------------------------- #
# Metrics                                                               #
# --------------------------------------------------------------------- #


def _latencies(samples: List[Sample]) -> List[float]:
    return [sample.latency_ms for sample in samples if sample.ok]


def _timer_wait_ms(window: Window) -> float:
    """The mean time per request spent waiting out the coalescer's window:
    a timer, which no host speed shortens.  ``/metrics`` says how many
    requests went through the coalescer; the window is the CLI default
    the server runs with."""
    coalesced = oracles.delta(window.metrics_before, window.metrics_after, ("coalesce", "requests"))
    window_ms = float(_build_parser().parse_args(list(SERVER_ARGS)).coalesce_ms)
    return window_ms * min(1.0, coalesced / max(len(window.samples), 1))


def _latency_p50_ms(window: Window) -> float:
    """Median latency at the reference host speed: each request's latency,
    less the coalescer's timer wait, divided by the slowdown the witness
    saw around it."""
    slowdown, wait_ms = window.request_slowdown, _timer_wait_ms(window)
    return median([wait_ms + (s.latency_ms - wait_ms) / slowdown(s.due, s.done)
                   for s in window.samples if s.ok])


def end_to_end(window: Window, setups: List[Tuple[float, float]]) -> Dict[str, float]:
    """At the reference host speed (see :mod:`witness`), except memory."""
    return {
        "setup_s": median([setup_s / factor for setup_s, factor in setups]),
        "latency_p50_ms": _latency_p50_ms(window),
        "peak_rss_mb": window.peak_rss_mb,
    }


def _server_cpu_ms_per_op(window: Window) -> float:
    """Server-tree CPU per request at the reference host speed: each
    half-second's CPU divided by the server core's slowdown over it."""
    slowdown = window.server_slowdown
    cpu_s = sum(
        (cpu - cpu_before) / slowdown(t_before, t)
        for (t_before, cpu_before), (t, cpu) in zip(window.server_cpu, window.server_cpu[1:])
    )
    return cpu_s * 1e3 / max(len(window.samples), 1)


def _or(value: Optional[float], fallback: float) -> float:
    return fallback if value is None else value


def window_layer(window: Window) -> Dict[str, float]:
    """What an untraced window shows beyond the end-to-end metrics: the
    generator's own numbers (validity, floor), the raw client tail, the
    server's CPU and the host slowdown the raw per-layer times were
    measured at."""
    open_loop_samples = window.calibration + (
        [] if window.samples[0].request.kind == "simulate" else window.samples)
    lateness = [(s.enqueued - s.due) * 1e3 for s in open_loop_samples]
    latencies = _latencies(window.samples)
    sims = [s for s in window.samples if s.request.kind == "simulate" and s.ok]
    sim_events = sum(json.loads(s.rows[-1])["events_processed"] for s in sims)
    sim_wall_s = sum(s.done - s.due for s in sims)
    return {
        # sim-city's ~600 calibration samples cannot support a p99: there it
        # is the highest percentile with MIN_BEYOND samples beyond it.
        "generator.lateness_p99_ms": _or(tail(lateness, 99.0), sorted(lateness)[-MIN_BEYOND - 1]),
        "generator.queue_wait_p50_ms": median(
            [(s.sent - s.enqueued) * 1e3 for s in window.samples]),
        "generator.cpu_ms_per_op": window.generator_cpu_s * 1e3 / max(len(window.samples), 1),
        "generator.null_latency_p50_ms": median(_latencies(window.calibration)),
        "client.ttfr_p50_ms": median([s.ttfr_ms for s in window.samples if s.ok]),
        "client.latency_p90_ms": _or(tail(latencies, 90.0), 0.0),
        "client.latency_p99_ms": _or(tail(latencies, 99.0), 0.0),
        "client.sim_events_per_s": sim_events / sim_wall_s if sims else 0.0,
        "server.cpu_ms_per_op": _server_cpu_ms_per_op(window),
        "host.slowdown": window.overall(),
    }


def sample_counts(window: Window) -> Dict[str, int]:
    return {
        "timed": len(window.samples),
        "ok": sum(1 for s in window.samples if s.ok),
        "calibration": len(window.calibration),
        "streamed_rows": sum(len(s.rows) for s in window.samples),
    }


# --------------------------------------------------------------------- #
# Runs                                                                  #
# --------------------------------------------------------------------- #


def untraced(cfg: Config) -> Dict[str, Any]:
    window, setups = run_window(cfg, boots=1 if cfg.smoke else SETUP_BOOTS)
    failures = verify(cfg, window, _direct(cfg))
    generator = window_layer(window)
    return {
        "metrics": end_to_end(window, setups),
        "attempted": len(window.samples),
        "failures": failures,
        "generator": generator,
        "valid": generator["generator.lateness_p99_ms"] <= LATENESS_LIMIT_MS,
        "raw": {
            "setups_s": [setup_s for setup_s, _ in setups],
            "setup_slowdowns": [factor for _, factor in setups],
            "window_slowdown": window.overall(),
            "witness_samples": len(window.witness.samples),
            "witness_realtime": witness.realtime_allowed(),
            "latency_p50_ms": median(_latencies(window.samples)),
            "server_cpu_ms_per_op": window.server_cpu_s * 1e3 / max(len(window.samples), 1),
        },
        "samples": sample_counts(window),
        "digests": _digests(window),
    }


def _digests(window: Window) -> Dict[str, str]:
    """sim-city: the summary digest streamed for each scenario seed."""
    out = {}
    for sample in window.samples:
        if sample.request.kind == "simulate" and sample.ok:
            seed = json.loads(sample.request.body)["seed"]
            out[str(seed)] = json.loads(sample.rows[-1]).get("digest", "")
    return out


def _sweep_compute_ms(samples: List[Sample]) -> List[float]:
    """The pooled work functions re-timed in this process, same requests."""
    direct = oracles.Direct()
    times = []
    for sample in samples:
        body = json.loads(sample.request.body)
        started = time.perf_counter()  # lint: ignore[RP103]
        direct.expected(sample.request.kind, body)
        times.append((time.perf_counter() - started) * 1e3)  # lint: ignore[RP103]
    return times


def traced(cfg: Config, per_layer: List[str]) -> Dict[str, Any]:
    base, _ = run_window(cfg)
    failures = verify(cfg, base, _direct(cfg))
    metrics: Dict[str, float] = dict.fromkeys(per_layer, 0.0)
    metrics.update(window_layer(base))
    report: Dict[str, Any] = {"samples": sample_counts(base), "digests": _digests(base)}
    if cfg.workload == "sim-city":
        replay, problems, report["missing_wrappers"] = _replay_scenarios(cfg, base)
        metrics.update(replay)
        failures += problems
    else:
        spans_path = cfg.workdir / "spans.json"
        window, _ = run_window(cfg, spans_path=spans_path)
        failures += verify(cfg, window, None)
        spans, report["missing_wrappers"] = tracing.load(spans_path)
        sweep_ms = _sweep_compute_ms(window.samples) if cfg.workload == "plan-sweep" else []
        service, problems = layers.service_layers(spans, window.samples, sweep_ms)
        tags = {sample.tag for sample in window.samples}
        sim, sim_problems = layers.simulation_layers(
            [span for span in spans if span[3] in tags], len(window.samples))
        metrics.update(service)
        metrics.update(sim)
        failures += problems + sim_problems
        base_p50 = _latency_p50_ms(base)
        metrics["trace.overhead_pct"] = (_latency_p50_ms(window) - base_p50) / base_p50 * 100.0
        report["traced_samples"] = sample_counts(window)
    report.update(
        metrics=metrics,
        attempted=len(base.samples),
        failures=failures,
        generator={k: v for k, v in metrics.items() if k.startswith("generator.")},
        valid=metrics["generator.lateness_p99_ms"] <= LATENESS_LIMIT_MS,
    )
    return report


def _replay(spec: Any, cpus: Set[int]) -> Tuple[List[Dict[str, Any]], float, float, float]:
    """One in-process scenario on this process's core: its rows, set-up
    and run seconds, and the host slowdown the witness saw while it ran."""
    from repro.scenario.runtime import ScenarioRuntime

    with witness.Witness(cpus) as probe:
        started = time.perf_counter()  # lint: ignore[RP103]
        runtime = ScenarioRuntime(spec)
        built = time.perf_counter()  # lint: ignore[RP103]
        rows = list(runtime.run())
        finished = time.perf_counter()  # lint: ignore[RP103]
    return rows, built - started, finished - built, probe.overall(cpus)


def _replay_scenarios(cfg: Config, base: Window
                      ) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Re-run the service's scenarios in-process, untraced then traced:
    (metrics, consistency problems, wrapper targets that no longer exist).
    The tracing overhead compares host-speed-scaled walls."""
    from repro.scenario.spec import scenario_from_mapping

    served = [s for s in base.samples if s.ok][:REPLAYS]
    if not served:
        return {}, ["no scenario completed to replay"], []
    problems: List[str] = []
    plain: List[Tuple[float, float, float]] = []
    events = []
    for sample in served:
        spec = scenario_from_mapping(json.loads(sample.request.body))
        rows, init_s, run_s, slowdown = _replay(spec, cfg.generator_cpus)
        plain.append((init_s, run_s, slowdown))
        events.append(rows[-1]["events_processed"])
        if rows[-1]["digest"] != json.loads(sample.rows[-1])["digest"]:
            problems.append(f"scenario seed {spec.seed}: in-process digest differs from served")
    log, patches = tracing.SpanLog(), tracing.Patches()
    tracing.install_simulation_tracing(log, patches)
    traced_s = []
    totals: Dict[str, float] = {}
    try:
        for sample in served:
            spec = scenario_from_mapping(json.loads(sample.request.body))
            log.spans.clear()
            rows, init_s, run_s, slowdown = _replay(spec, cfg.generator_cpus)
            traced_s.append((init_s + run_s) / slowdown)
            if rows[-1]["digest"] != json.loads(sample.rows[-1])["digest"]:
                problems.append(f"scenario seed {spec.seed}: traced digest differs from served")
            one, layer_problems = layers.simulation_layers(list(log.spans), 1, init_s + run_s)
            problems += layer_problems
            for name, value in one.items():
                totals[name] = totals.get(name, 0.0) + value / len(served)
    finally:
        patches.restore()
    plain_s = [(init_s + run_s) / slowdown for init_s, run_s, slowdown in plain]
    totals.update({
        "service.simulate.transport_ms": median(
            [((s.done - s.due) / base.server_slowdown(s.due, s.done) - wall) * 1e3
             for s, wall in zip(served, plain_s)]),
        "scenario.runtime.setup_ms": sum(p[0] for p in plain) * 1e3 / len(served),
        "scenario.runtime.events_per_s": sum(events) / sum(p[1] for p in plain),
        "simulation.kernel.events": sum(events) / len(served),
        "trace.overhead_pct": (sum(traced_s) - sum(plain_s)) / sum(plain_s) * 100.0,
    })
    return totals, problems, patches.missing
