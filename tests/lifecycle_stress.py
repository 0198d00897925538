"""Run the share runner's process-lifecycle tests again and again under load, and count failures per test.

    python3 tests/lifecycle_stress.py [ROUNDS]

Each of ROUNDS rounds (25 by default) runs the tests of LIFECYCLE in one
pytest process, from this tree, while LOOPS CPU-bound loops of this tool's
own keep the cores busy for the whole run. These tests fork, kill and reap
processes, or send them signals, and their defects are races that a quiet
host seldom shows. A test that this tree does not have is reported as not
collected, so the tool also runs in a copy of an older tree.

It prints each test's failures out of its runs, with the first line of its
first failure, and exits 1 when any test failed.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOPS = 2  # CPU-bound loops beside the tests: enough to keep a 2-vCPU host, where these races showed, busy
LIFECYCLE = {  # what each test checks: test file -> test functions
    "tests/test_cli.py": [
        "test_ctrl_c_leaves_no_worker_or_git_process",  # Ctrl-C
        "test_a_failed_fork_exits_2_naming_the_os_error",  # a failed fork
        "test_a_dead_worker_exits_3_as_a_worker_failure",  # a dead worker
        "test_sweep_reaps_its_workers_and_runs_git_only_to_write",  # kill-on-error
        "test_selftest_loads_numpy_random_before_the_battery",  # the held set-up of selftest
    ],
    "tests/test_evaluate.py": [
        "test_an_interrupt_at_the_fork_ends_the_run_and_leaves_no_process",  # the at-fork interrupt
        "test_a_failed_fork_raises_and_leaves_no_child_and_no_pipe",  # a failed fork
        "test_a_killed_child_is_named_not_waited_for",  # a dead worker
        "test_a_dead_child_ends_the_run_before_this_process_designs_another_item",  # a dead worker
        "test_a_child_failure_reraises_the_earliest_failing_item",  # kill-on-error
        "test_a_second_interrupt_does_not_cut_the_clean_up_short",  # an interrupt in the clean-up
        "test_the_run_loads_numpy_random_before_it_forks_or_runs_an_item",  # the held set-up
    ],
}


def pytest_argv(junit: Path) -> list:
    """One round's pytest command line: the LIFECYCLE tests, each parametrization included."""
    names = [name for names in LIFECYCLE.values() for name in names]
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--junitxml", str(junit),
            "-k", " or ".join(names), *LIFECYCLE]


def outcomes(junit: Path) -> dict:
    """{test id: None when it passed or was skipped, else the first line of its failure} from a JUnit file."""
    out = {}
    for case in ET.parse(junit).iter("testcase"):
        test_id = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
        bad = [e for e in case if e.tag in ("failure", "error")]
        out[test_id] = (bad[0].get("message") or "").partition("\n")[0] if bad else None
    return out


def report(runs: Counter, failures: Counter, first: dict, rounds: int) -> list:
    """Text lines: failures/runs per test, LIFECYCLE order, with the first line of each test's first failure."""
    lines = []
    for path, names in LIFECYCLE.items():
        for name in names:
            ids = sorted(t for t in runs if t.startswith(f"{path}::{name}"))
            if not ids:
                lines.append(f"{'not collected':>13}  {path}::{name}")
            for test_id in ids:
                lines.append(f"{failures[test_id]:>5} of {runs[test_id]:<4}  {test_id}")
                if test_id in first:
                    lines.append(f"{'':>15}first failure: {first[test_id]}")
    lines.append(f"{sum(failures.values())} failures in {rounds} rounds")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rounds = int(argv[0]) if argv else 25
    runs, failures, first = Counter(), Counter(), {}
    loops = [subprocess.Popen([sys.executable, "-c", "while True: pass"]) for _ in range(LOOPS)]
    start = time.monotonic()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            junit = Path(tmp) / "round.xml"
            for _ in range(rounds):
                junit.unlink(missing_ok=True)
                subprocess.run(pytest_argv(junit), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                               timeout=600)
                if not junit.exists():
                    print("a round wrote no JUnit file: pytest itself failed", file=sys.stderr)
                    return 1
                for test_id, bad in outcomes(junit).items():
                    runs[test_id] += 1
                    if bad is not None:
                        failures[test_id] += 1
                        first.setdefault(test_id, bad)
    finally:
        for loop in loops:
            loop.kill()
            loop.wait()
    print(f"{rounds} rounds beside {LOOPS} CPU-bound loops in {time.monotonic() - start:.0f} s")
    print("\n".join(report(runs, failures, first, rounds)))
    return 1 if sum(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
