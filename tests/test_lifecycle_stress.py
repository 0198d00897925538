# Tests of tests/lifecycle_stress.py: the tests it names exist, and its JUnit reading and report.
from __future__ import annotations

from collections import Counter

import test_cli
import test_evaluate
from lifecycle_stress import LIFECYCLE, outcomes, pytest_argv, report

JUNIT = """<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">
<testcase classname="tests.test_cli" name="test_ctrl_c_leaves_no_worker_or_git_process" time="0.2"/>
<testcase classname="tests.test_evaluate" name="test_a_killed_child_is_named_not_waited_for" time="0.1">
<failure message="Failed: DID NOT RAISE&#10;second line">traceback</failure></testcase>
<testcase classname="tests.test_evaluate" name="test_a_child_failure_reraises_the_earliest_failing_item[child-first]" time="0.1">
<error message="setup failed">traceback</error></testcase>
</testsuite></testsuites>
"""


def test_every_test_the_tool_names_is_in_the_suite():
    modules = {"tests/test_cli.py": test_cli, "tests/test_evaluate.py": test_evaluate}
    assert set(LIFECYCLE) == set(modules)
    for path, names in LIFECYCLE.items():
        assert all(callable(getattr(modules[path], name, None)) for name in names), path


def test_outcomes_and_report(tmp_path):
    junit = tmp_path / "round.xml"
    junit.write_text(JUNIT)
    argv = pytest_argv(junit)
    assert argv[argv.index("--junitxml") + 1] == str(junit) and argv[-2:] == list(LIFECYCLE)
    got = outcomes(junit)
    assert got == {
        "tests/test_cli.py::test_ctrl_c_leaves_no_worker_or_git_process": None,
        "tests/test_evaluate.py::test_a_killed_child_is_named_not_waited_for": "Failed: DID NOT RAISE",
        "tests/test_evaluate.py::test_a_child_failure_reraises_the_earliest_failing_item[child-first]": "setup failed",
    }
    runs = Counter(dict.fromkeys(got, 2))
    failures = Counter({t: 1 for t, bad in got.items() if bad})
    lines = report(runs, failures, {t: bad for t, bad in got.items() if bad}, 2)
    assert "    0 of 2     tests/test_cli.py::test_ctrl_c_leaves_no_worker_or_git_process" in lines
    assert "    1 of 2     tests/test_evaluate.py::test_a_killed_child_is_named_not_waited_for" in lines
    assert "               first failure: Failed: DID NOT RAISE" in lines
    assert "not collected  tests/test_cli.py::test_a_failed_fork_exits_2_naming_the_os_error" in lines
    assert lines[-1] == "2 failures in 2 rounds"
