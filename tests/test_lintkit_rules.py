"""Per-rule self-tests: every rule must fire on a minimal bad example and
stay silent on the corresponding good example and on a suppressed line."""

import pytest

from repro.lintkit import Finding, LintStats, all_rules, analyze_paths, lint_source
from repro.lintkit.engine import PARSE_ERROR_RULE_ID

#: A path that counts as library code (library_only rules apply).
LIB = "src/repro/somemodule.py"
#: A path that counts as test code (library_only rules skip it).
TEST = "tests/test_somemodule.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path=LIB, select=None):
    rules = all_rules(select) if select else None
    return lint_source(source, path=path, rules=rules)


# --------------------------------------------------------------------- #
# RP101 — inline dB/linear conversions                                  #
# --------------------------------------------------------------------- #


class TestRP101:
    @pytest.mark.parametrize(
        "snippet",
        [
            "y = 10.0 ** (x / 10.0)",
            "y = 10 ** (x / 20)",
            "y = np.power(10.0, x / 10.0)",
            "y = 10.0 * np.log10(x)",
            "y = 20.0 * np.log10(x)",
            "y = 10.0 * n * np.log10(x)",
            "y = np.log10(x) * 10.0",
        ],
    )
    def test_fires(self, snippet):
        assert "RP101" in rule_ids(lint(snippet, select=["RP101"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "y = db_to_linear(x)",
            "y = 2.0 ** (x / 10.0)",  # not base 10
            "y = 10.0 ** x",  # no dB divisor
            "y = 3.0 * np.log10(x)",  # not a dB factor
            "y = np.log10(x)",
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP101"]) == []

    def test_suppressed(self):
        src = "y = 10.0 ** (x / 10.0)  # lint: ignore[RP101]"
        assert lint(src, select=["RP101"]) == []

    def test_suppression_is_counted(self):
        stats = LintStats()
        src = "y = 10.0 ** (x / 10.0)  # lint: ignore[RP101]"
        lint_source(src, path=LIB, stats=stats)
        assert stats.suppressed == 1

    def test_units_module_is_exempt(self):
        src = "y = 10.0 ** (x / 10.0)"
        assert lint(src, path="src/repro/utils/units.py", select=["RP101"]) == []

    def test_tests_are_exempt(self):
        src = "y = 10.0 ** (x / 10.0)"
        assert lint(src, path=TEST, select=["RP101"]) == []


# --------------------------------------------------------------------- #
# RP102 — numpy.random outside utils/rng                                #
# --------------------------------------------------------------------- #


class TestRP102:
    @pytest.mark.parametrize(
        "snippet",
        [
            "rng = np.random.default_rng(0)",
            "rng = numpy.random.default_rng(seed)",
            "s = np.random.SeedSequence(7)",
            "x = np.random.rand(3)",
            "from numpy.random import default_rng\nrng = default_rng(0)",
        ],
    )
    def test_fires(self, snippet):
        assert "RP102" in rule_ids(lint(snippet, select=["RP102"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "gen = as_rng(rng)",
            # type references (not stream construction) are allowed
            "ok = isinstance(rng, np.random.Generator)",
            "x: np.random.Generator = gen",
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP102"]) == []

    def test_suppressed(self):
        src = "rng = np.random.default_rng(0)  # lint: ignore[RP102]"
        assert lint(src, select=["RP102"]) == []

    def test_rng_module_is_exempt(self):
        src = "rng = np.random.default_rng(0)"
        assert lint(src, path="src/repro/utils/rng.py", select=["RP102"]) == []

    def test_tests_are_exempt(self):
        src = "rng = np.random.default_rng(0)"
        assert lint(src, path=TEST, select=["RP102"]) == []


# --------------------------------------------------------------------- #
# RP103 — nondeterminism sources                                        #
# --------------------------------------------------------------------- #


class TestRP103:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random",
            "from random import shuffle",
            "import time\nt = time.time()",
            "import uuid\nu = uuid.uuid4()",
            "import os\nk = os.urandom(16)",
            "import random\nx = random.random()",
        ],
    )
    def test_fires(self, snippet):
        assert "RP103" in rule_ids(lint(snippet, select=["RP103"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\ntime.sleep(0.1)",  # sleeping is not a result
            "gen = as_rng(7)",
            "import uuid\nu = uuid.uuid5(ns, name)",  # deterministic uuid
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP103"]) == []

    def test_suppressed(self):
        src = "import random  # lint: ignore[RP103]"
        assert lint(src, select=["RP103"]) == []

    def test_tests_are_exempt(self):
        assert lint("import random", path=TEST, select=["RP103"]) == []


# --------------------------------------------------------------------- #
# RP104 — unvalidated public numeric parameters                         #
# --------------------------------------------------------------------- #

BAD_DATACLASS = """
from dataclasses import dataclass

@dataclass
class Thing:
    count: int
"""

GOOD_DATACLASS = """
from dataclasses import dataclass
from repro.utils.validation import check_non_negative_int

@dataclass
class Thing:
    count: int

    def __post_init__(self):
        check_non_negative_int(self.count, "count")
"""

GUARDED_DATACLASS = """
from dataclasses import dataclass

@dataclass
class Thing:
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
"""

BAD_INIT = """
class Thing:
    def __init__(self, rate: float):
        self.rate = rate
"""

GOOD_INIT = """
from repro.utils.validation import check_positive

class Thing:
    def __init__(self, rate: float):
        self.rate = check_positive(rate, "rate")
"""


class TestRP104:
    def test_fires_on_dataclass_field(self):
        assert "RP104" in rule_ids(lint(BAD_DATACLASS, select=["RP104"]))

    def test_fires_on_init_param(self):
        assert "RP104" in rule_ids(lint(BAD_INIT, select=["RP104"]))

    def test_fires_on_optional_numeric(self):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import Optional\n"
            "@dataclass\n"
            "class Thing:\n"
            "    x: Optional[float] = None\n"
        )
        assert "RP104" in rule_ids(lint(src, select=["RP104"]))

    def test_silent_on_checked_dataclass(self):
        assert lint(GOOD_DATACLASS, select=["RP104"]) == []

    def test_silent_on_hand_rolled_guard(self):
        assert lint(GUARDED_DATACLASS, select=["RP104"]) == []

    def test_silent_on_checked_init(self):
        assert lint(GOOD_INIT, select=["RP104"]) == []

    def test_private_names_are_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Thing:\n"
            "    _cache: int = 0\n"
        )
        assert lint(src, select=["RP104"]) == []

    def test_private_classes_are_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class _Internal:\n"
            "    x: float = 0.0\n"
        )
        assert lint(src, select=["RP104"]) == []

    def test_non_numeric_fields_are_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Thing:\n"
            "    name: str\n"
        )
        assert lint(src, select=["RP104"]) == []

    def test_suppressed(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Thing:\n"
            "    count: int  # lint: ignore[RP104]\n"
        )
        assert lint(src, select=["RP104"]) == []

    def test_tests_are_exempt(self):
        assert lint(BAD_DATACLASS, path=TEST, select=["RP104"]) == []


# --------------------------------------------------------------------- #
# RP105 — __all__ consistency                                           #
# --------------------------------------------------------------------- #


class TestRP105:
    def test_fires_on_missing_name(self):
        src = '__all__ = ["ghost"]\n'
        assert "RP105" in rule_ids(lint(src, select=["RP105"]))

    def test_fires_on_duplicate(self):
        src = '__all__ = ["f", "f"]\ndef f():\n    pass\n'
        assert "RP105" in rule_ids(lint(src, select=["RP105"]))

    def test_fires_on_non_literal(self):
        src = "__all__ = [name for name in names]\n"
        assert "RP105" in rule_ids(lint(src, select=["RP105"]))

    def test_silent_on_consistent(self):
        src = (
            '__all__ = ["f", "C", "X", "np"]\n'
            "import numpy as np\n"
            "X = 1\n"
            "def f():\n    pass\n"
            "class C:\n    pass\n"
        )
        assert lint(src, select=["RP105"]) == []

    def test_conditional_definitions_count(self):
        src = (
            '__all__ = ["fast_path"]\n'
            "try:\n"
            "    from accel import fast_path\n"
            "except ImportError:\n"
            "    def fast_path():\n"
            "        pass\n"
        )
        assert lint(src, select=["RP105"]) == []

    def test_suppressed(self):
        src = '__all__ = ["ghost"]  # lint: ignore[RP105]\n'
        assert lint(src, select=["RP105"]) == []

    def test_applies_to_tests_too(self):
        src = '__all__ = ["ghost"]\n'
        assert "RP105" in rule_ids(lint(src, path=TEST, select=["RP105"]))


# --------------------------------------------------------------------- #
# RP106 — mutable default arguments                                     #
# --------------------------------------------------------------------- #


class TestRP106:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x=[]):\n    pass",
            "def f(x={}):\n    pass",
            "def f(*, x=set()):\n    pass",
            "def f(x=list()):\n    pass",
            "def f(x=dict()):\n    pass",
            "lambda x=[]: x",
        ],
    )
    def test_fires(self, snippet):
        assert "RP106" in rule_ids(lint(snippet, select=["RP106"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x=None):\n    pass",
            "def f(x=()):\n    pass",  # tuples are immutable
            "def f(x=frozenset()):\n    pass",
        ],
    )
    def test_silent_on_good(self, snippet):
        assert lint(snippet, select=["RP106"]) == []

    def test_suppressed(self):
        src = "def f(x=[]):  # lint: ignore[RP106]\n    pass"
        assert lint(src, select=["RP106"]) == []

    def test_applies_to_tests_too(self):
        src = "def f(x=[]):\n    pass"
        assert "RP106" in rule_ids(lint(src, path=TEST, select=["RP106"]))


# --------------------------------------------------------------------- #
# Engine mechanics                                                      #
# --------------------------------------------------------------------- #


class TestEngine:
    def test_parse_error_becomes_rp000(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == [PARSE_ERROR_RULE_ID]

    def test_multi_rule_suppression_comment(self):
        src = "y = 10.0 ** (x / 10.0)  # lint: ignore[RP101, RP102]"
        assert lint(src) == []

    def test_suppression_of_other_rule_does_not_hide(self):
        src = "y = 10.0 ** (x / 10.0)  # lint: ignore[RP106]"
        assert "RP101" in rule_ids(lint(src))

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            all_rules(["RP999"])

    def test_findings_sorted_by_location(self):
        src = "def f(x=[]):\n    pass\n\ny = 10.0 ** (q / 10.0)\n"
        findings = lint(src)
        assert findings == sorted(findings)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_finding_format_shape(self):
        f = Finding(path="a.py", line=3, col=7, rule_id="RP101", message="msg")
        assert f.format() == "a.py:3:7: RP101 msg"

    def test_finding_rejects_negative_location(self):
        with pytest.raises(ValueError):
            Finding(path="a.py", line=-1, col=0, rule_id="RP101", message="msg")

    def test_every_registered_rule_has_id_and_summary(self):
        rules = all_rules()
        assert len(rules) >= 6
        for rule in rules:
            assert rule.rule_id.startswith("RP")
            assert rule.summary

    def test_stats_count_per_rule(self):
        stats = LintStats()
        lint_source("def f(x=[]):\n    pass\n", path=LIB, stats=stats)
        assert stats.per_rule.get("RP106") == 1

    def test_pooled_analysis_equals_serial(self, tmp_path):
        """Worker processes hand back pickled findings and summaries; the
        result must equal the in-process run, all three tiers included."""
        files = {
            "src/repro/dirty.py": (
                "y = 10.0 ** (x / 10.0)\n"
                "z = 10.0 ** (w / 10.0)  # lint: ignore[RP101]\n"
            ),
            "src/repro/service/app.py": (
                "async def _handle_x(self):\n    time.sleep(0.01)\n"
            ),
            "src/repro/power.py": (
                "def f(noise_w, snr_db):\n    return noise_w * snr_db\n"
            ),
        }
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)

        runs = []
        for jobs in (1, 2):
            stats = LintStats()
            findings = analyze_paths([str(tmp_path / "src")], stats=stats, jobs=jobs)
            runs.append((findings, stats))
        (serial, serial_stats), (pooled, pooled_stats) = runs

        assert pooled == serial
        assert {"RP101", "RP201", "RP301"} <= set(rule_ids(serial))
        assert serial_stats.suppressed >= 1
        for attr in ("files", "suppressed", "per_rule"):
            assert getattr(pooled_stats, attr) == getattr(serial_stats, attr)


# --------------------------------------------------------------------- #
# RP107 — bare time.sleep in the service layer                          #
# --------------------------------------------------------------------- #

#: A path inside repro.service, where RP107 applies.
SERVICE = "src/repro/service/client.py"


class TestRP107:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\ntime.sleep(1.0)",
            "import time\nbackoff = time.sleep",  # bare reference, no call
            "import time\ndef f(sleep=time.sleep):\n    pass",
            "from time import sleep",
            "from time import sleep\nsleep(0.5)",
            "from time import sleep as pause\npause(0.5)",
        ],
    )
    def test_fires_in_service_code(self, snippet):
        assert "RP107" in rule_ids(lint(snippet, path=SERVICE, select=["RP107"]))

    @pytest.mark.parametrize(
        "snippet",
        [
            "import asyncio\nawait_ = asyncio.sleep",
            "import time\nt = time.monotonic()",
            "def wait(sleep): sleep(0.1)",  # an injected sleeper
        ],
    )
    def test_silent_on_good_service_code(self, snippet):
        assert lint(snippet, path=SERVICE, select=["RP107"]) == []

    def test_non_service_library_code_is_exempt(self):
        src = "import time\ntime.sleep(1.0)"
        assert lint(src, path=LIB, select=["RP107"]) == []

    def test_no_service_module_is_exempt(self):
        src = "import time\ntime.sleep(1.0)"
        path = "src/repro/service/retry.py"
        assert "RP107" in rule_ids(lint(src, path=path, select=["RP107"]))

    def test_tests_are_exempt(self):
        src = "import time\ntime.sleep(1.0)"
        assert lint(src, path="tests/test_service_pool.py", select=["RP107"]) == []

    def test_suppressed(self):
        src = "import time\ntime.sleep(1.0)  # lint: ignore[RP107]"
        assert lint(src, path=SERVICE, select=["RP107"]) == []
