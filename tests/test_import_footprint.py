"""No service, sweep or simulation code path loads any ``scipy`` module.

``repro`` imports :mod:`repro.energy.ebar`, so whatever that module imports
every server process, pool worker and simulation child pays for.  The
e_bar_b root-finder is in-tree, and so are the closed form's binomials for
every diversity order k = mt*mr up to 20; this runs the service's request
kinds and a city scenario in a fresh interpreter and checks that no
``scipy`` module entered ``sys.modules``.  Only a k >= 21 row reaches
scipy's beta-function binomials, and the request that asks for one loads
``scipy.special`` then, and answers as before.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import asyncio
    import json
    import sys

    import repro
    import repro.service.cli
    import repro.scenario.runtime
    from repro.scenario.runtime import ScenarioRuntime
    from repro.scenario.spec import ScenarioSpec
    from repro.service.app import PlanningService
    from repro.service.config import ServiceConfig

    REQUESTS = [
        ("/v1/ebar", {"p": 1e-3, "b": 2, "mt": 2, "mr": 2}),
        ("/v1/ebar", {"p": 3.3e-4, "b": 3, "mt": 2, "mr": 1, "solver": "exact"}),
        ("/v1/ebar", {"p": 1e-3, "b": 2, "mt": 4, "mr": 5, "solver": "exact"}),
        ("/v1/overlay/feasible", {"d1": 40.0, "m": 2, "bandwidth": 10e3, "p_relay": 2.7e-4}),
        ("/v1/underlay/energy", {"p": 4.1e-4, "mt": 2, "mr": 3, "d": 5.0,
                                 "distance": 80.0, "bandwidth": 10e3}),
        ("/v1/interweave/pattern", {"st1": [0.0, 0.0], "st2": [15.0, 0.0],
                                    "wavelength": 30.0, "point": [40.0, 40.0],
                                    "pr": [100.0, 0.0]}),
        ("/v1/overlay/feasible", {"d1": [20.0, 40.0, 60.0], "m": 3, "bandwidth": 40e3}),
        ("/v1/underlay/energy", {"p": 1e-3, "mt": 3, "mr": 2, "d": 5.0,
                                 "distance": [20.0, 200.0], "bandwidth": 10e3}),
    ]

    def scipy_modules():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

    service = PlanningService(ServiceConfig(workers=0, request_log=False, seed=3))
    service.preload()
    for path, body in REQUESTS:
        status, answer = asyncio.run(service.handle("POST", path, json.dumps(body).encode()))
        assert status == 200, (path, status, answer)
    rows = list(ScenarioRuntime(ScenarioSpec(n_nodes=60, duration_s=10.0, seed=5)).run())
    assert rows
    before = scipy_modules()
    k25 = {"p": 1e-3, "mt": 5, "mr": 5, "d": 5.0, "distance": 80.0, "bandwidth": 10e3}
    status, _ = asyncio.run(
        service.handle("POST", "/v1/underlay/energy", json.dumps(k25).encode())
    )
    service.close()
    print(json.dumps({"before": before, "k25_status": status, "after": scipy_modules()}))
    """
)


@pytest.fixture(scope="module")
def footprint():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), REPRO_NO_CACHE="1"),
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_service_paths_never_import_scipy(footprint):
    assert footprint["before"] == []


def test_k25_underlay_answers_then_loads_scipy_special(footprint):
    assert footprint["k25_status"] == 200
    assert "scipy.special" in footprint["after"]
