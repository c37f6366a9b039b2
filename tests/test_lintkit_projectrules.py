"""Per-rule self-tests for the RP2xx project family.

Mirrors ``test_lintkit_rules.py``: every rule must fire on a minimal bad
example, stay silent on the corresponding good example, and honour a
``# lint: ignore[RP2xx]`` on the flagged line.  RP201–RP203 are graph
rules, so their fixtures are small on-disk ``src/repro/service`` trees
run through :func:`analyze_paths`; RP204/RP205 are per-file rules and
use :func:`lint_source` directly.
"""

import pytest

from repro.lintkit import LintStats, all_rules, analyze_paths, lint_source

#: Service-library path: RP204/RP205 apply, schemas exemption does not.
SERVICE = "src/repro/service/handlers.py"
#: Library path outside repro.service.
LIB = "src/repro/somemodule.py"
#: Test path: library_only rules skip it.
TEST = "tests/test_somemodule.py"

HANDLER = "src/repro/service/app.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path=SERVICE, select=None):
    rules = all_rules(select) if select else None
    return lint_source(source, path=path, rules=rules)


def project_lint(tmp_path, files, select, stats=None):
    """Write ``{relpath: source}`` under tmp and run both analysis tiers."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return analyze_paths(
        [str(tmp_path / "src")],
        select=select,
        stats=stats,
        jobs=1,
    )


# --------------------------------------------------------------------- #
# RP201 — blocking calls reachable inside service async defs            #
# --------------------------------------------------------------------- #


class TestRP201:
    @pytest.mark.parametrize(
        "body",
        [
            "    time.sleep(0.01)\n",
            "    open('/tmp/x').read()\n",
            "    subprocess.run(['ls'])\n",
            "    np.load(path)\n",
            "    np.load(path, mmap_mode='r')\n",
            "    sock = socket.socket()\n",
        ],
    )
    def test_fires_on_direct_primitive(self, tmp_path, body):
        findings = project_lint(
            tmp_path,
            {HANDLER: "async def _handle_x(self, path):\n" + body},
            select=["RP201"],
        )
        assert rule_ids(findings) == ["RP201"]

    def test_fires_transitively_with_chain(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "from repro.service.work import helper\n"
                    "async def _handle_x(self):\n"
                    "    helper()\n"
                ),
                "src/repro/service/work.py": (
                    "def helper():\n"
                    "    nested()\n"
                    "def nested():\n"
                    "    time.sleep(0.01)\n"
                ),
            },
            select=["RP201"],
        )
        assert rule_ids(findings) == ["RP201"]
        assert "helper -> nested -> time.sleep()" in findings[0].message

    def test_fires_on_direct_kernel_solve(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "from repro.energy.ebar import solve_ebar\n"
                    "async def _handle_x(self, req):\n"
                    "    return solve_ebar(req)\n"
                ),
                "src/repro/energy/ebar.py": (
                    "def solve_ebar(req):\n    return req\n"
                ),
            },
            select=["RP201"],
        )
        assert rule_ids(findings) == ["RP201"]
        assert "solve_ebar" in findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # Offloaded to the worker pool: runs off-loop by construction.
            "async def _handle_x(self, pool):\n"
            "    await pool.submit(blocking, 1)\n"
            "def blocking(x):\n"
            "    time.sleep(x)\n",
            # Blocking in a sync helper nobody calls from async code.
            "def offline_tool():\n"
            "    time.sleep(1)\n"
            "async def _handle_x(self):\n"
            "    return 1\n",
        ],
    )
    def test_silent_on_good(self, tmp_path, source):
        assert project_lint(tmp_path, {HANDLER: source}, select=["RP201"]) == []

    def test_silent_outside_service(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/simulation/runner.py": (
                    "async def _handle_x(self):\n    time.sleep(1)\n"
                )
            },
            select=["RP201"],
        )
        assert findings == []

    def test_suppressed(self, tmp_path):
        stats = LintStats()
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def _handle_x(self):\n"
                    "    time.sleep(0.01)  # lint: ignore[RP201]\n"
                )
            },
            select=["RP201"],
            stats=stats,
        )
        assert findings == []
        assert stats.suppressed == 1


# --------------------------------------------------------------------- #
# RP202 — unawaited coroutines and fire-and-forget tasks                #
# --------------------------------------------------------------------- #


class TestRP202:
    def test_fires_on_unawaited_coroutine(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def notify(event):\n"
                    "    pass\n"
                    "async def _handle_x(self):\n"
                    "    notify('done')\n"
                )
            },
            select=["RP202"],
        )
        assert rule_ids(findings) == ["RP202"]
        assert "never awaited" in findings[0].message

    def test_fires_on_dropped_task_handle(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def _handle_x(self):\n"
                    "    asyncio.create_task(self.work())\n"
                )
            },
            select=["RP202"],
        )
        assert rule_ids(findings) == ["RP202"]
        assert "dropped" in findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # Awaited: fine.
            "async def notify(event):\n"
            "    pass\n"
            "async def _handle_x(self):\n"
            "    await notify('done')\n",
            # Task handle kept: fine.
            "async def _handle_x(self):\n"
            "    task = asyncio.create_task(self.work())\n"
            "    await task\n",
            # Sync callee as a statement: not a coroutine.
            "def log(event):\n"
            "    pass\n"
            "async def _handle_x(self):\n"
            "    log('done')\n",
        ],
    )
    def test_silent_on_good(self, tmp_path, source):
        assert project_lint(tmp_path, {HANDLER: source}, select=["RP202"]) == []

    def test_silent_in_tests(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/service/tests/test_app.py": (
                    "async def _handle_x(self):\n"
                    "    asyncio.create_task(self.work())\n"
                )
            },
            select=["RP202"],
        )
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def _handle_x(self):\n"
                    "    asyncio.create_task(self.work())  # lint: ignore[RP202]\n"
                )
            },
            select=["RP202"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RP203 — determinism taint reachable from cached handlers              #
# --------------------------------------------------------------------- #


class TestRP203:
    @pytest.mark.parametrize(
        "line,taint",
        [
            ("    t = time.time()\n", "time.time"),
            ("    k = os.urandom(8)\n", "os.urandom"),
            ("    rng = as_rng(None)\n", "as_rng"),
            ("    rng = np.random.default_rng(None)\n", "default_rng"),
        ],
    )
    def test_fires_in_handler(self, tmp_path, line, taint):
        findings = project_lint(
            tmp_path,
            {HANDLER: "async def _handle_query(self, req):\n" + line},
            select=["RP203"],
        )
        assert rule_ids(findings) == ["RP203"]
        assert taint in findings[0].message

    def test_fires_transitively_with_witness_chain(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "from repro.service.work import compute\n"
                    "async def _handle_query(self, req):\n"
                    "    return compute(req)\n"
                ),
                "src/repro/service/work.py": (
                    "def compute(req):\n"
                    "    return time.time()\n"
                ),
            },
            select=["RP203"],
        )
        assert rule_ids(findings) == ["RP203"]
        assert "via _handle_query -> compute" in findings[0].message

    def test_fires_through_pool_offload(self, tmp_path):
        # Offloaded work still feeds the cached payload: taint propagates.
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "from repro.service.work import compute\n"
                    "async def _handle_query(self, req):\n"
                    "    return await self.pool.submit(compute, req)\n"
                ),
                "src/repro/service/work.py": (
                    "def compute(req):\n"
                    "    return time.time()\n"
                ),
            },
            select=["RP203"],
        )
        assert rule_ids(findings) == ["RP203"]

    @pytest.mark.parametrize(
        "source",
        [
            # Seeded generator: deterministic.
            "async def _handle_query(self, req):\n"
            "    rng = as_rng(req.seed)\n",
            # Taint in a function no handler reaches.
            "def offline_report():\n"
            "    return time.time()\n"
            "async def _handle_query(self, req):\n"
            "    return req\n",
        ],
    )
    def test_silent_on_good(self, tmp_path, source):
        assert project_lint(tmp_path, {HANDLER: source}, select=["RP203"]) == []

    def test_suppressed(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def _handle_query(self):\n"
                    "    t = time.time()  # lint: ignore[RP203]\n"
                )
            },
            select=["RP203"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RP204 — error responses must use schemas.error_payload                #
# --------------------------------------------------------------------- #


class TestRP204:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f():\n    return 404, {'error': 'not found'}\n",
            "def f():\n    return 503, dict(error='overloaded')\n",
            "def f(w, s):\n    w.write(render_response(500, {'error': 'boom'}))\n",
            "def f(w, exc):\n"
            "    w.write(render_response(exc.status, {'error': exc.reason}))\n",
            # Encoding a hand-rolled body does not make it audited.
            "def f():\n    return 404, encode_payload({'error': 'not found'})\n",
        ],
    )
    def test_fires(self, snippet):
        assert "RP204" in rule_ids(lint(snippet, select=["RP204"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            # The sanctioned constructor.
            "def f():\n    return 404, error_payload(404, 'not found', 'x')\n",
            "def f(w, s):\n"
            "    w.write(render_response(500, error_payload(500, 'boom', 'y')))\n",
            "def f():\n"
            "    return 404, encode_payload(error_payload(404, 'not found', 'x'))\n",
            # 2xx payloads are not error bodies.
            "def f():\n    return 200, {'ok': True}\n",
            # A tuple of status codes, not (status, payload).
            "RETRYABLE = (429, 503)\n",
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP204"]) == []

    def test_exempt_in_schemas_and_outside_service(self):
        bad = "def f():\n    return 404, {'error': 'not found'}\n"
        assert lint(bad, path="src/repro/service/schemas.py", select=["RP204"]) == []
        assert lint(bad, path=LIB, select=["RP204"]) == []
        assert lint(bad, path=TEST, select=["RP204"]) == []

    def test_suppressed(self):
        src = "def f():\n    return 404, {'error': 'x'}  # lint: ignore[RP204]\n"
        assert lint(src, select=["RP204"]) == []

    def test_suppression_is_counted(self):
        src = "def f():\n    return 404, {'error': 'x'}  # lint: ignore[RP204]\n"
        stats = LintStats()
        lint_source(src, path=SERVICE, stats=stats)
        assert stats.suppressed == 1


# --------------------------------------------------------------------- #
# RP205 — resource hygiene                                              #
# --------------------------------------------------------------------- #


class TestRP205:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f():\n    s = socket.socket()\n    s.sendall(b'x')\n",
            "def f(p):\n    fh = open(p)\n    return fh.read()\n",
            "def f():\n    pool = ProcessPoolExecutor(2)\n    pool.map(ord, 'x')\n",
            "def f(fd):\n    fh = os.fdopen(fd)\n    return fh.readline()\n",
        ],
    )
    def test_fires(self, snippet):
        assert "RP205" in rule_ids(lint(snippet, select=["RP205"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            # Context manager — directly or on the bound name.
            "def f(p):\n    with open(p) as fh:\n        return fh.read()\n",
            "def f():\n    s = socket.socket()\n    with s:\n        s.sendall(b'x')\n",
            # Visible close/shutdown on the bound name.
            "def f():\n    s = socket.socket()\n    s.close()\n",
            "def f():\n    pool = ThreadPoolExecutor()\n    pool.shutdown()\n",
            # Ownership transfer: passed on, returned, or stored on self.
            "def f(loop):\n    return loop.create_server(sock=socket.socket())\n",
            "def f():\n    s = socket.socket()\n    return s\n",
            "def f(self):\n    self.sock = socket.socket()\n",
            "def f(reg):\n    s = socket.socket()\n    reg.adopt(s)\n",
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP205"]) == []

    def test_silent_in_tests(self):
        src = "def f():\n    s = socket.socket()\n    s.sendall(b'x')\n"
        assert lint(src, path=TEST, select=["RP205"]) == []

    def test_suppressed(self):
        src = "def f():\n    s = socket.socket()  # lint: ignore[RP205]\n"
        assert lint(src, select=["RP205"]) == []

    def test_co_fires_with_rp201_on_service_async(self, tmp_path):
        # One bad line, two findings: blocking construction on the loop
        # (graph tier) and a leaked socket (per-file tier).
        findings = project_lint(
            tmp_path,
            {
                HANDLER: (
                    "async def _handle_x(self):\n"
                    "    s = socket.socket()\n"
                    "    s.sendall(b'x')\n"
                )
            },
            select=["RP201", "RP205"],
        )
        assert sorted(rule_ids(findings)) == ["RP201", "RP205"]


# --------------------------------------------------------------------- #
# RP206 — read-modify-write of shared state across an await             #
# --------------------------------------------------------------------- #

RACY_COUNTER = (
    "class Handler:\n"
    "    async def bump(self):\n"
    "        count = self._count\n"
    "        await self.flush()\n"
    "        self._count = count + 1\n"
)


class TestRP206:
    def test_fires_on_read_await_write(self, tmp_path):
        findings = project_lint(tmp_path, {HANDLER: RACY_COUNTER}, select=["RP206"])
        assert rule_ids(findings) == ["RP206"]
        message = findings[0].message
        assert "_count" in message and "await" in message

    def test_fires_on_augmented_assignment_spanning_await(self, tmp_path):
        source = (
            "class Handler:\n"
            "    async def serve(self):\n"
            "        if self._inflight > 10:\n"
            "            return None\n"
            "        await self.work()\n"
            "        self._inflight += 1\n"
        )
        findings = project_lint(tmp_path, {HANDLER: source}, select=["RP206"])
        assert rule_ids(findings) == ["RP206"]

    def test_silent_when_write_precedes_await(self, tmp_path):
        # Reserve-then-await is the safe shape (the fix RP206 suggests).
        source = (
            "class Handler:\n"
            "    async def serve(self):\n"
            "        self._inflight = self._inflight + 1\n"
            "        await self.work()\n"
            "        return self._inflight\n"
        )
        findings = project_lint(tmp_path, {HANDLER: source}, select=["RP206"])
        assert findings == []

    def test_silent_without_await_between(self, tmp_path):
        source = (
            "class Handler:\n"
            "    async def serve(self):\n"
            "        count = self._count\n"
            "        self._count = count + 1\n"
            "        await self.flush()\n"
        )
        findings = project_lint(tmp_path, {HANDLER: source}, select=["RP206"])
        assert findings == []

    def test_silent_outside_service(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {"src/repro/network/peer.py": RACY_COUNTER},
            select=["RP206"],
        )
        assert findings == []

    def test_silent_in_sync_methods(self, tmp_path):
        source = (
            "class Handler:\n"
            "    def bump(self):\n"
            "        count = self._count\n"
            "        self._count = count + 1\n"
        )
        findings = project_lint(tmp_path, {HANDLER: source}, select=["RP206"])
        assert findings == []

    def test_suppressed_on_write_line(self, tmp_path):
        source = RACY_COUNTER.replace(
            "self._count = count + 1",
            "self._count = count + 1  # lint: ignore[RP206]",
        )
        findings = project_lint(tmp_path, {HANDLER: source}, select=["RP206"])
        assert findings == []
