#!/usr/bin/env python3
"""Fail-closed command lines: socbench and run.py must exit 2 on an
unknown workload, an unknown flag or a malformed number, before any
measurement or build starts.  The largest accepted --seconds must
still finish inside run.py's deadline on the slowest traced run.

    cli_test.py PATH/TO/socbench PATH/TO/run.py
"""

import importlib.util
import json
import subprocess
import sys
import time
import unittest

SOCBENCH = None
RUN_PY = None

GOOD = ["--workload", "fleet_12h", "--seed", "1", "--seconds", "1"]


def with_flag(flag, value):
    args = list(GOOD)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return args


BAD_COMMON = [
    [],
    with_flag("--workload", "fleet_13h"),
    with_flag("--workload", ""),
    with_flag("--seed", "abc"),
    with_flag("--seed", "-1"),
    with_flag("--seed", "1x"),
    with_flag("--seed", "1.5"),
    with_flag("--seed", " 1"),
    with_flag("--seed", "99999999999999999999"),
    with_flag("--seconds", "0"),
    with_flag("--seconds", "61"),
    with_flag("--seconds", "ten"),
    with_flag("--trace", "2"),
    with_flag("--trace", "yes"),
    GOOD + ["--bogus", "1"],
    GOOD + ["--trace"],
    ["--seed", "1", "--seconds", "1"],
]

BAD_SOCBENCH = [
    GOOD + ["--threads", "4"],
    with_flag("--t0-ns", "-5"),
    with_flag("--git-sha", "not-a-sha"),
    GOOD + ["--setup-only", "--print-digest"],
]


class CliTest(unittest.TestCase):
    def exit_code(self, cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(proc.stdout, "", cmd)
        return proc.returncode

    def test_socbench_rejects_bad_arguments(self):
        for args in BAD_COMMON + BAD_SOCBENCH:
            with self.subTest(args=args):
                self.assertEqual(self.exit_code([SOCBENCH] + args), 2)

    def test_run_py_rejects_bad_arguments(self):
        for args in BAD_COMMON + [GOOD + ["--threads", "1"]]:
            with self.subTest(args=args):
                self.assertEqual(
                    self.exit_code([sys.executable, RUN_PY] + args), 2)

    def test_setup_only_reports_setup_time(self):
        proc = subprocess.run(
            [SOCBENCH, "--workload", "service_cluster", "--seed", "7",
             "--setup-only"], capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0)
        self.assertGreater(json.loads(proc.stdout)["setup_s"], 0.0)

    def test_largest_seconds_fits_deadline(self):
        # fleet_6w traced is the slowest run: ~4 s calls, so the
        # longest overshoot past S, then the probes and the 1-thread
        # reference run.
        spec = importlib.util.spec_from_file_location("run", RUN_PY)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        start = time.monotonic()
        proc = subprocess.run(
            [SOCBENCH, "--workload", "fleet_6w", "--seed", "101",
             "--seconds", str(run.MAX_SECONDS), "--trace", "1"],
            capture_output=True, text=True, timeout=run.DEADLINE_S)
        elapsed = time.monotonic() - start
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertLess(elapsed, 0.75 * run.DEADLINE_S)


if __name__ == "__main__":
    SOCBENCH, RUN_PY = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
