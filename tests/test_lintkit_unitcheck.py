"""Per-rule self-tests for the RP3xx dimensional-analysis family.

Mirrors ``test_lintkit_rules.py``: every rule fires on a minimal bad
example, stays silent on the corresponding good one, and honours a
``# lint: ignore[RP3xx]``.  The mutation tests are the acceptance gate:
deleting a ``db_to_linear`` conversion from a correct fixture (the
classic unit bug this tier exists to catch) must produce a finding.
"""

import json

import pytest

from repro.lintkit import all_rules, analyze_paths, lint_source
from repro.lintkit.cli import main

LIB = "src/repro/somemodule.py"
TEST = "tests/test_somemodule.py"
UNITS = "src/repro/utils/units.py"


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path=LIB, select=("RP3",)):
    return lint_source(source, path=path, rules=all_rules(list(select)))


# --------------------------------------------------------------------- #
# RP301 — mixed-domain arithmetic                                       #
# --------------------------------------------------------------------- #


class TestRP301:
    @pytest.mark.parametrize(
        "expr",
        [
            "noise_w * snr_db",
            "snr_db + noise_w",
            "noise_w - snr_db",
            "noise_w / snr_db",
        ],
    )
    def test_fires_on_mixed_domains(self, expr):
        src = f"def f(noise_w, snr_db):\n    return {expr}\n"
        assert rule_ids(lint(src)) == ["RP301"]

    def test_fires_on_db_times_db(self):
        src = "def f(a_db, b_db):\n    return a_db * b_db\n"
        findings = lint(src)
        assert rule_ids(findings) == ["RP301"]
        assert "combine by addition" in findings[0].message

    def test_flows_through_assignment(self):
        src = (
            "def f(noise_w, snr_db):\n"
            "    x = snr_db\n"
            "    y = noise_w\n"
            "    return x * y\n"
        )
        assert rule_ids(lint(src)) == ["RP301"]

    def test_silent_on_converted(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(noise_w, snr_db):\n"
            "    return noise_w * db_to_linear(snr_db)\n"
        )
        assert lint(src) == []

    def test_silent_on_db_plus_db(self):
        src = "def f(a_db, b_db):\n    return a_db + b_db\n"
        assert lint(src) == []

    def test_silent_on_literal_scaling(self):
        # Literals are UNKNOWN on purpose: halving a dB value is fine.
        src = "def f(snr_db):\n    return snr_db / 2.0\n"
        assert lint(src) == []

    def test_branch_join_degrades_to_unknown(self):
        src = (
            "def f(noise_w, snr_db, flag):\n"
            "    x = snr_db if flag else noise_w\n"
            "    return noise_w * x\n"
        )
        assert lint(src) == []

    def test_silent_in_tests(self):
        src = "def f(noise_w, snr_db):\n    return noise_w * snr_db\n"
        assert lint(src, path=TEST) == []

    def test_exempt_in_units_module(self):
        src = "def f(noise_w, snr_db):\n    return noise_w * snr_db\n"
        assert lint(src, path=UNITS) == []

    def test_suppressed(self):
        src = (
            "def f(noise_w, snr_db):\n"
            "    return noise_w * snr_db  # lint: ignore[RP301]\n"
        )
        assert lint(src) == []


# --------------------------------------------------------------------- #
# RP303 — redundant or missing conversion                               #
# --------------------------------------------------------------------- #


class TestRP303:
    def test_fires_on_already_converted(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(snr_db):\n"
            "    lin = db_to_linear(snr_db)\n"
            "    return db_to_linear(lin)\n"
        )
        findings = lint(src, select=("RP303",))
        assert rule_ids(findings) == ["RP303"]
        assert "already ratio" in findings[0].message

    def test_fires_on_wrong_converter_with_hint(self):
        src = (
            "from repro.utils.units import dbm_to_watts\n"
            "def f(psd_dbm_hz):\n"
            "    return dbm_to_watts(psd_dbm_hz)\n"
        )
        findings = lint(src, select=("RP303",))
        assert rule_ids(findings) == ["RP303"]
        assert "dbm_per_hz_to_watts_per_hz()" in findings[0].message

    def test_silent_on_correct_conversion(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(snr_db):\n"
            "    return db_to_linear(snr_db)\n"
        )
        assert lint(src, select=("RP303",)) == []

    def test_silent_on_unknown_argument(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(value):\n"
            "    return db_to_linear(value)\n"
        )
        assert lint(src, select=("RP303",)) == []

    def test_suppressed(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(margin_linear):\n"
            "    return db_to_linear(margin_linear)  # lint: ignore[RP303]\n"
        )
        assert lint(src, select=("RP303",)) == []


# --------------------------------------------------------------------- #
# RP304 — suffix / annotation / value disagreement                      #
# --------------------------------------------------------------------- #


class TestRP304:
    def test_fires_on_suffix_vs_value(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(snr_db):\n"
            "    gain_db = db_to_linear(snr_db)\n"
            "    return gain_db\n"
        )
        findings = lint(src, select=("RP304",))
        assert rule_ids(findings) == ["RP304"]

    def test_fires_on_suffix_vs_annotation(self):
        src = (
            "from repro.utils.units import DB\n"
            "def f(power_w: DB):\n"
            "    return power_w\n"
        )
        findings = lint(src, select=("RP304",))
        assert rule_ids(findings) == ["RP304"]
        assert "power_w" in findings[0].message

    def test_silent_on_agreement(self):
        src = (
            "from repro.utils.units import DB, db_to_linear\n"
            "def f(snr_db: DB):\n"
            "    snr_linear = db_to_linear(snr_db)\n"
            "    return snr_linear\n"
        )
        assert lint(src, select=("RP304",)) == []

    def test_suppressed(self):
        src = (
            "from repro.utils.units import db_to_linear\n"
            "def f(snr_db):\n"
            "    gain_db = db_to_linear(snr_db)  # lint: ignore[RP304]\n"
            "    return gain_db\n"
        )
        assert lint(src, select=("RP304",)) == []


# --------------------------------------------------------------------- #
# RP302 — call argument vs annotated parameter (project tier)           #
# --------------------------------------------------------------------- #


def project_lint(tmp_path, files, select, stats=None):
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


CONSUMER = (
    "from repro.utils.units import Watts\n"
    "def consume(power_w: Watts):\n"
    "    return power_w\n"
)


class TestRP302:
    def test_fires_across_modules(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/pkg/lib.py": CONSUMER,
                "src/repro/pkg/caller.py": (
                    "from repro.pkg.lib import consume\n"
                    "def run(snr_db):\n"
                    "    return consume(snr_db)\n"
                ),
            },
            select=["RP302"],
        )
        assert rule_ids(findings) == ["RP302"]
        assert "caller.py" in findings[0].path
        assert "annotated watts" in findings[0].message

    def test_fires_on_keyword_argument(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/pkg/lib.py": CONSUMER,
                "src/repro/pkg/caller.py": (
                    "from repro.pkg.lib import consume\n"
                    "def run(snr_db):\n"
                    "    return consume(power_w=snr_db)\n"
                ),
            },
            select=["RP302"],
        )
        assert rule_ids(findings) == ["RP302"]
        assert "keyword argument 'power_w'" in findings[0].message

    def test_silent_on_matching_units(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/pkg/lib.py": CONSUMER,
                "src/repro/pkg/caller.py": (
                    "from repro.pkg.lib import consume\n"
                    "def run(noise_w):\n"
                    "    return consume(noise_w)\n"
                ),
            },
            select=["RP302"],
        )
        assert findings == []

    def test_silent_on_unannotated_callee(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/pkg/lib.py": (
                    "def consume(power):\n    return power\n"
                ),
                "src/repro/pkg/caller.py": (
                    "from repro.pkg.lib import consume\n"
                    "def run(snr_db):\n"
                    "    return consume(snr_db)\n"
                ),
            },
            select=["RP302"],
        )
        assert findings == []

    def test_suppressed_at_call_site(self, tmp_path):
        findings = project_lint(
            tmp_path,
            {
                "src/repro/pkg/lib.py": CONSUMER,
                "src/repro/pkg/caller.py": (
                    "from repro.pkg.lib import consume\n"
                    "def run(snr_db):\n"
                    "    return consume(snr_db)  # lint: ignore[RP302]\n"
                ),
            },
            select=["RP302"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# Mutation tests — the acceptance gate for the whole tier               #
# --------------------------------------------------------------------- #

CORRECT_FIXTURE = (
    "from repro.utils.units import db_to_linear\n"
    "def rx_power(noise_w, snr_db):\n"
    "    snr = db_to_linear(snr_db)\n"
    "    return noise_w * snr\n"
)


class TestMutationDetection:
    def test_correct_fixture_is_clean(self):
        assert lint(CORRECT_FIXTURE) == []

    def test_dropping_the_conversion_is_caught(self):
        # Replace the db_to_linear call with the identity: the canonical
        # unit bug.  The tier must flag the now-mixed arithmetic.
        mutated = CORRECT_FIXTURE.replace(
            "snr = db_to_linear(snr_db)", "snr = snr_db"
        )
        findings = lint(mutated)
        assert "RP301" in rule_ids(findings)

    def test_doubling_the_conversion_is_caught(self):
        mutated = CORRECT_FIXTURE.replace(
            "db_to_linear(snr_db)", "db_to_linear(db_to_linear(snr_db))"
        )
        findings = lint(mutated)
        assert "RP303" in rule_ids(findings)

    def test_wrong_argument_is_caught(self):
        mutated = CORRECT_FIXTURE.replace(
            "db_to_linear(snr_db)", "db_to_linear(noise_w)"
        )
        findings = lint(mutated)
        assert "RP303" in rule_ids(findings)


# --------------------------------------------------------------------- #
# Engine integration: select expansion, CLI, SARIF                      #
# --------------------------------------------------------------------- #


class TestEngineIntegration:
    def test_select_prefix_expands_to_the_whole_tier(self):
        ids = {rule.rule_id for rule in all_rules(["RP3"])}
        assert ids == {"RP301", "RP303", "RP304"}

    def test_cli_select_rp3(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def f(noise_w, snr_db):\n    return noise_w * snr_db\n"
        )
        assert main([str(tmp_path / "src"), "--select", "RP3"]) == 1
        out = capsys.readouterr().out
        assert "RP301" in out

    def test_sarif_includes_rp3_findings_with_location(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def f(noise_w, snr_db):\n    return noise_w * snr_db\n"
        )
        assert main([str(tmp_path / "src"), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        run = doc["runs"][0]
        rule_index = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RP301", "RP302", "RP303", "RP304"} <= rule_index
        results = [r for r in run["results"] if r["ruleId"] == "RP301"]
        assert results
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1
