#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py             # checker tests (no build)
    python3 perfbench/selftest.py --hygiene   # also process-hygiene tests

The checker tests feed each workload's checker answers computed from its
own instance, which it must accept, and the same answers with one row
dropped, one row added, or a probability moved outside its interval, which
it must reject. The hygiene tests run run.py against a real server: a run
with a corrupted answer must report correct=false and exit non-zero, and a
run stopped by SIGTERM must exit non-zero; in both, no incdb_serve process
may outlive run.py.
"""

import json
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import fmt_tuple  # noqa: E402
from corrupt import corrupt  # noqa: E402
from ops import Log, Query, Reply  # noqa: E402
from wl_analytic import Analytic  # noqa: E402
from wl_ctable import CertainCTable  # noqa: E402
from wl_interactive import Interactive  # noqa: E402


def reply(op, version, rows, probs=(), conn=1, seq=0, hit=False):
    r = Reply(op, conn, seq)
    r.version = version
    r.rows = list(rows)
    r.probs = list(probs)
    r.hit = hit
    return r


def log_of(replies):
    log = Log()
    log.replies = replies
    return log


class AnalyticChecker(unittest.TestCase):
    def setUp(self):
        self.w = Analytic(7)
        stream = self.w.stream(1)
        ops = [op for _ in range(3) for op in next(stream)]
        self.replies = [reply(op, 1, sorted(self.w.expected(op, 1)))
                        for op in ops]

    def test_accepts_expected_answers(self):
        self.assertEqual(self.w.check(log_of(self.replies)), [])

    def test_rejects_dropped_row(self):
        log = log_of(self.replies)
        self.assertIsNotNone(corrupt(log, "drop"))
        self.assertNotEqual(self.w.check(log), [])

    def test_rejects_extra_row(self):
        log = log_of(self.replies)
        self.assertIsNotNone(corrupt(log, "extra"))
        self.assertNotEqual(self.w.check(log), [])

    def test_not_in_with_null_is_empty(self):
        q = Query("S1_notin", "3vl", "sql", "", {"c": 1, "a": 0})
        self.assertEqual(self.w.expected(q, 1), set())


def ctable_replies(w, version):
    """Answers a correct server would give to the first rounds of the
    stream: closed forms, with sampled-looking rows where the checker has
    no exact probability."""
    stream = w.stream(1)
    out = []
    for _ in range(4):
        for op in next(stream):
            if op.template == "S_3vl":
                rows = {fmt_tuple((r[0],)) for r in w.db.rows_at("Pay", version)
                        if r[1] == op.params["o"]}
                out.append(reply(op, version, sorted(rows)))
                continue
            certain, possible, probs = w.answers(op, version)
            fmt = CertainCTable._tuple
            if op.notion == "certain-enum":
                rows = [fmt(op, t) for t in certain]
                out.append(reply(op, version, sorted(rows)))
            elif op.notion == "possible":
                rows = [fmt(op, t) for t in possible]
                out.append(reply(op, version, sorted(rows)))
            else:
                table = []
                for t in sorted(possible):
                    if t in probs:
                        p = probs[t]
                        table.append((fmt(op, t), p, p, p, True))
                    else:
                        table.append((fmt(op, t), 0.5, 0.4, 0.6, False))
                rows = [t for (t, p, _, _, _) in table if p >= op.threshold]
                out.append(reply(op, version, sorted(rows), table))
    return out


class CTableChecker(unittest.TestCase):
    def setUp(self):
        self.w = CertainCTable(7)
        self.replies = ctable_replies(self.w, 1)

    def test_accepts_expected_answers(self):
        self.assertEqual(self.w.check(log_of(self.replies)), [])

    def test_rejects_each_corruption(self):
        for mode in ("drop", "extra", "prob"):
            replies = ctable_replies(self.w, 1)
            log = log_of(replies)
            self.assertIsNotNone(corrupt(log, mode), mode)
            self.assertNotEqual(self.w.check(log), [], mode)

    def test_rejects_wrong_exact_probability(self):
        for r in self.replies:
            for i, (t, p, lo, hi, exact) in enumerate(r.probs):
                if exact and p < 1.0:
                    q = p * 0.9
                    r.probs[i] = (t, q, q, q, True)
                    self.assertNotEqual(self.w.check(log_of(self.replies)),
                                        [])
                    return
        self.fail("no exact probability below 1 in the test rounds")


class InteractiveChecker(unittest.TestCase):
    def setUp(self):
        self.w = Interactive(7)
        by_name = {t.template: t for t in self.w.templates}
        prob_enum, prob_ct = by_name["I07"], by_name["I08"]
        table = [("(11)", 0.25, 0.25, 0.25, True),
                 ("(12)", 1.0, 1.0, 1.0, True)]
        self.replies = [
            reply(by_name["I00"], 2, ["(11)", "(12)"], seq=0),
            reply(by_name["I00"], 2, ["(11)", "(12)"], seq=1, hit=True),
            reply(prob_enum, 2, ["(12)"], table, seq=2),
            reply(prob_ct, 2, ["(12)"], table, seq=3),
        ]

    def test_accepts_consistent_answers(self):
        self.assertEqual(self.w.check(log_of(self.replies)), [])

    def test_rejects_each_corruption(self):
        for mode in ("drop", "extra", "prob"):
            self.setUp()
            log = log_of(self.replies)
            self.assertIsNotNone(corrupt(log, mode), mode)
            self.assertNotEqual(self.w.check(log), [], mode)


# --- process hygiene --------------------------------------------------------

def serve_pids():
    """Pids of running incdb_serve processes."""
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv0 = f.read().split(b"\0")[0]
        except OSError:
            continue
        if argv0.endswith(b"/incdb_serve"):
            out.append(int(pid))
    return out


class Hygiene(unittest.TestCase):
    RUN = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "certain_ctable", "--seed", "3", "--seconds", "2", "--trace", "0"]

    def setUp(self):
        self.before = set(serve_pids())

    def assert_no_server_left(self):
        self.assertEqual(set(serve_pids()) - self.before, set())

    def test_failed_check_stops_server(self):
        p = subprocess.run(self.RUN + ["--corrupt", "drop"],
                           capture_output=True, text=True, timeout=300)
        self.assertEqual(p.returncode, 1, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assert_no_server_left()

    def test_signal_stops_server(self):
        p = subprocess.Popen(self.RUN, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        deadline = time.time() + 300
        while not set(serve_pids()) - self.before:
            self.assertIsNone(p.poll(), "run ended before its server rose")
            self.assertLess(time.time(), deadline)
            time.sleep(0.05)
        p.send_signal(signal.SIGTERM)
        out, _ = p.communicate(timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn(b'"correct"', out)
        self.assert_no_server_left()

    def test_normal_run_leaves_nothing(self):
        p = subprocess.run(self.RUN, capture_output=True, text=True,
                           timeout=300)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertTrue(json.loads(p.stdout.strip().splitlines()[-1])
                        ["correct"])
        self.assert_no_server_left()


if __name__ == "__main__":
    hygiene = "--hygiene" in sys.argv
    if hygiene:
        sys.argv.remove("--hygiene")
    else:
        del Hygiene
    unittest.main()
