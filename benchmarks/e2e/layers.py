"""Per-layer numbers from spans: self times, waits, counts and the
consistency checks that keep them honest.

A span's *self time* is its duration minus the durations of its direct
children.  Two checks must hold on every traced run: no span has negative
self time, and a request's direct children fit inside its ``handle``
span.  For an in-process scenario replay the layer self times must also
add up to the wall time measured around the run, within 2%.
"""

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import tracing
from httpgen import Sample
from quantiles import mean, median
from tracing import Span

#: Allowed gap between summed self times and the outside wall [share].
WALL_TOLERANCE = 0.02
#: Float slack when comparing nested spans taken from one clock [s].
_SLACK_S = 1e-7


def _duration(span: Span) -> float:
    return span[5] - span[4]


def self_times(spans: Sequence[Span]) -> Tuple[Dict[int, float], List[str]]:
    """Self time per span id, and a description of each negative one."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            children[span[1]] += _duration(span)
    selfs = {span[0]: _duration(span) - children[span[0]] for span in spans}
    problems = [
        f"span {span[2]} (request {span[3]}) has self time {selfs[span[0]] * 1e6:.3f} us"
        for span in spans
        if selfs[span[0]] < -_SLACK_S
    ]
    return selfs, problems


def _med(values: Sequence[float], scale: float) -> float:
    return median(values) * scale if values else 0.0


def _peak_overlap(intervals: Sequence[Tuple[float, float]]) -> int:
    events = sorted([(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals])
    depth = peak = 0
    for _, step in events:
        depth += step
        peak = max(peak, depth)
    return peak


def service_layers(
    spans: Sequence[Span], samples: Sequence[Sample], in_process_sweep_ms: Sequence[float]
) -> Tuple[Dict[str, float], List[str]]:
    """Serving-layer metrics of one traced window, and consistency problems.

    ``in_process_sweep_ms`` are the same sweep requests' work functions
    re-timed in the benchmark process: the pool hop is what submitting to
    the pool costs on top of them.
    """
    timed = {sample.tag: sample for sample in samples}
    spans = [span for span in spans if span[3] in timed]
    selfs, problems = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    child_sum: Dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            child_sum[span[1]] += _duration(span)

    def durations(name: str) -> List[float]:
        return [_duration(span) for span in by_name[name]]

    transport = []
    for span in by_name["service.app.handle"]:
        if child_sum[span[0]] > _duration(span) + _SLACK_S:
            problems.append(f"request {span[3]}: children outlast the handle span")
        sample = timed[span[3]]
        transport.append((sample.done - sample.sent) - _duration(span))
    reads = [
        span[5] - max(span[4], timed[span[3]].sent)
        for span in by_name["service.httpio.read_request"]
    ]
    gets = by_name["service.rescache.get"]
    batches = [span[6] for span in by_name["service.coalescer.batch"]]
    submits = by_name["service.pool.submit"]
    submit_ms = _med(durations("service.pool.submit"), 1e3)
    metrics = {
        "service.transport_ms_p50": _med(transport, 1e3),
        "service.app.handle_ms_p50": _med(durations("service.app.handle"), 1e3),
        "service.app.self_us": _med(
            [selfs[span[0]] for span in by_name["service.app.handle"]], 1e6),
        "service.httpio.read_request_us": _med(reads, 1e6),
        "service.httpio.render_response_us": _med(
            durations("service.httpio.render_response"), 1e6),
        "service.httpio.response_bytes_mean": mean(
            [span[6] for span in by_name["service.httpio.render_response"]]),
        "service.httpio.ndjson_row_us": _med(durations("service.httpio.ndjson_line"), 1e6)
        + _med(durations("service.httpio.chunk"), 1e6),
        "service.schemas.parse_us": _med(durations("service.schemas.parse"), 1e6),
        "service.rescache.digest_us": _med(durations("service.rescache.digest"), 1e6),
        "service.rescache.get_us": _med(durations("service.rescache.get"), 1e6),
        "service.rescache.hit_share": (
            sum(1 for span in gets if span[6]) / len(gets) if gets else 0.0),
        "service.rescache.put_us": _med(durations("service.rescache.put"), 1e6),
        "service.coalescer.wait_ms_p50": _med(durations("service.coalescer.submit"), 1e3),
        "service.coalescer.batch_mean": mean(batches),
        "service.coalescer.batched_share": (
            sum(size for size in batches if size > 1) / sum(batches) if batches else 0.0),
        "service.work.ebar_lookup_us": _med(durations("service.work.ebar_lookup"), 1e6),
        "service.work.overlay_us": _med(durations("service.work.overlay"), 1e6),
        "service.work.underlay_us": _med(durations("service.work.underlay"), 1e6),
        "service.work.interweave_us": _med(durations("service.work.interweave"), 1e6),
        "service.pool.submit_ms_p50": submit_ms,
        "service.pool.hop_ms": submit_ms - _med(in_process_sweep_ms, 1.0) if submits else 0.0,
        "service.pool.peak_depth": float(_peak_overlap([(s[4], s[5]) for s in submits])),
    }
    return metrics, problems


#: In-process simulation layers: span names whose self time each one owns.
SIM_LAYERS: Mapping[str, Tuple[str, ...]] = {
    "energy": (tracing.ENERGY,),
    "network": (tracing.COMIMONET, tracing.ROUTE),
    "mobility": (tracing.MOBILITY,),
    "dispatch": (tracing.KERNEL_RUN,),
    "runtime": (tracing.CALLBACK, tracing.RUNTIME_INIT, tracing.RUNTIME_RUN),
}


def simulation_layers(
    spans: Sequence[Span], operations: int, wall_s: Optional[float] = None
) -> Tuple[Dict[str, float], List[str]]:
    """Scenario-layer metrics per operation (scenario or request).

    With ``wall_s`` (an in-process replay timed from outside), the layer
    self times must sum to it within :data:`WALL_TOLERANCE`.
    """
    selfs, problems = self_times(spans)
    layer_s = {layer: 0.0 for layer in SIM_LAYERS}
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[2]] += 1
        for layer, names in SIM_LAYERS.items():
            if span[2] in names:
                layer_s[layer] += selfs[span[0]]
    if wall_s is not None:
        total = sum(layer_s.values())
        if abs(total - wall_s) > WALL_TOLERANCE * wall_s:
            problems.append(
                f"layer self times sum to {total:.4f} s, outside wall {wall_s:.4f} s"
            )
    per_op = 1.0 / max(operations, 1)
    energy_calls = counts[tracing.ENERGY]
    metrics = {
        "scenario.runtime.self_ms": layer_s["runtime"] * 1e3 * per_op,
        "energy.model.calls": energy_calls * per_op,
        "energy.model.ms": layer_s["energy"] * 1e3 * per_op,
        "energy.model.us_per_call": (
            layer_s["energy"] * 1e6 / energy_calls if energy_calls else 0.0),
        "network.comimonet.builds": counts[tracing.COMIMONET] * per_op,
        "network.comimonet.build_ms": sum(
            selfs[s[0]] for s in spans if s[2] == tracing.COMIMONET) * 1e3 * per_op,
        "network.graph.route_calls": counts[tracing.ROUTE] * per_op,
        "network.graph.route_ms": sum(
            selfs[s[0]] for s in spans if s[2] == tracing.ROUTE) * 1e3 * per_op,
        "network.mobility.step_ms": layer_s["mobility"] * 1e3 * per_op,
        "simulation.kernel.dispatch_ms": layer_s["dispatch"] * 1e3 * per_op,
    }
    return metrics, problems
