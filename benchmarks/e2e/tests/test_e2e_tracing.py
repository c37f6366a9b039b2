import asyncio
import json
import pickle
import time
import types

import layers
import tracing


def _toy_module():
    module = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def branch(x):
        return module.leaf(x) + module.leaf(x)

    module.leaf, module.branch = leaf, branch
    return module


def test_nested_spans_have_parents_and_non_negative_self_time():
    toy, log, patches = _toy_module(), tracing.SpanLog(), tracing.Patches()
    patches.wrap(toy, "leaf", lambda fn: log.sync("leaf", fn))
    patches.wrap(toy, "branch", lambda fn: log.sync("branch", fn))
    assert toy.branch(1) == 4
    by_name = {}
    for span in log.spans:
        by_name.setdefault(span[2], []).append(span)
    (branch,) = by_name["branch"]
    assert [leaf[1] for leaf in by_name["leaf"]] == [branch[0], branch[0]]
    selfs, problems = layers.self_times(log.spans)
    assert problems == []
    assert all(value >= 0.0 for value in selfs.values())
    patches.restore()
    toy.branch(1)
    assert len(log.spans) == 3  # restored: no more spans


def test_async_spans_of_interleaved_tasks_never_adopt_each_other():
    log = tracing.SpanLog()

    async def inner(delay):
        await asyncio.sleep(delay)

    timed_inner = log.coroutine("inner", inner)

    async def outer(delay):
        await timed_inner(delay)

    timed_outer = log.coroutine("outer", outer)

    async def main():
        await asyncio.gather(timed_outer(0.02), timed_outer(0.01))

    asyncio.run(main())
    outers = {span[0]: span for span in log.spans if span[2] == "outer"}
    inners = [span for span in log.spans if span[2] == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    for span in inners:
        parent = outers[span[1]]
        assert parent[4] <= span[4] and span[5] <= parent[5]
    assert layers.self_times(log.spans)[1] == []


def test_missing_targets_are_recorded_not_fatal():
    toy, patches = _toy_module(), tracing.Patches()
    patches.wrap(toy, "renamed_away", lambda fn: fn)
    assert patches.missing == ["toy.renamed_away"]


def test_wrapped_work_functions_still_pickle_by_name():
    from repro.service import work

    log, patches = tracing.SpanLog(), tracing.Patches()
    tracing.install_service_tracing(log, patches)
    try:
        assert patches.missing == []
        assert pickle.loads(pickle.dumps(work.overlay_rows)) is work.overlay_rows
    finally:
        patches.restore()


def test_scenario_layers_add_up_to_the_wall_and_keep_the_digest():
    from repro.scenario.runtime import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    spec = scenario_from_mapping({"n_nodes": 40, "duration_s": 10.0, "seed": 3})
    plain = list(ScenarioRuntime(spec).run())
    log, patches = tracing.SpanLog(), tracing.Patches()
    tracing.install_simulation_tracing(log, patches)
    try:
        assert patches.missing == []
        started = time.perf_counter()
        traced = list(ScenarioRuntime(spec).run())
        wall = time.perf_counter() - started
    finally:
        patches.restore()
    assert json.dumps(traced) == json.dumps(plain)
    metrics, problems = layers.simulation_layers(log.spans, 1, wall)
    assert problems == []
    assert metrics["energy.model.calls"] > 0
    assert metrics["network.comimonet.builds"] >= 1
    assert metrics["simulation.kernel.dispatch_ms"] > 0.0
