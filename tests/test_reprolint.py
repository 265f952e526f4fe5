"""The reprolint gate's own regression suite.

Two layers:

* the **fixture corpus** — every checker must flag exactly the codes
  its negative fixtures expect and stay silent on its positive ones
  (so a checker refinement can never silently lobotomize a rule);
* the **repo-wide smoke test** — ``python -m tools.reprolint src/``
  must exit 0 with zero findings and zero suppressions (there is no
  suppression syntax to count).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.base import (  # noqa: E402  (path bootstrap above)
    all_checkers,
    collect_files,
    iter_cases,
    run,
    run_case,
    Project,
)


def _codes(findings):
    return sorted({f.code for f in findings})


class TestFixtureCorpus:
    def test_every_checker_has_pass_and_fail_fixtures(self):
        """Each checker ships >=1 clean and >=1 violating fixture."""
        by_checker = {}
        for case in iter_cases():
            by_checker.setdefault(case.checker, []).append(case)
        assert set(by_checker) == set(all_checkers())
        for checker, cases in by_checker.items():
            kinds = {bool(c.expected) for c in cases}
            assert kinds == {True, False}, (
                f"{checker} needs both a passing and a failing fixture"
            )

    @pytest.mark.parametrize(
        "case", list(iter_cases()), ids=lambda c: f"{c.checker}/{c.name}"
    )
    def test_case_produces_expected_codes(self, case):
        assert _codes(run_case(case)) == sorted(set(case.expected))


class TestRepoIsClean:
    def test_src_has_zero_findings(self):
        findings = run(Project(collect_files([str(REPO_ROOT / "src")])))
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_src_exits_zero_with_empty_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint",
             "--format", "json", "src/"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout) == []

    def test_cli_selftest_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--selftest"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_flags_a_violation(self, tmp_path):
        """End to end: a raw env read under repro/ fails the run."""
        bad = tmp_path / "repro" / "fresh.py"
        bad.parent.mkdir()
        bad.write_text("import os\nMODE = os.environ['REPRO_X']\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint",
             "--format", "json", str(tmp_path)],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["code"] for f in payload] == ["RL201"]
