#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Run from the repository root:  python3 omqbench/selftest.py

1. On one seed, two traced runs of each workload must report exactly the
   same deterministic counters: the meta decision's bouquets and tableau
   steps, the datalog maintenance and tableau counters of the fixed-length
   replays, and the backend picks.
2. A second, held-out seed must change the inputs (the input digest) but not
   the verdicts or the picks.

serve_conp reports failed operations by design (the tableau budget defect
shows above the cliff); this test checks only that its counters repeat.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEED, HELD_OUT = 7, 1009
DETERMINISTIC = {
    "cold_start": ["reasoner.bouquets_checked", "reasoner.meta_tableau_steps",
                   "datalog.rewrite_rules", "datalog.fo_disjuncts"],
    "serve_lookup": ["reasoner.bouquets_checked",
                     "serve.answer_memo_hit_rate"],
    "serve_update": ["reasoner.bouquets_checked", "serve.dred_rounds",
                     "serve.overdeleted_facts", "serve.rederived_facts",
                     "serve.incremental_refreshes"],
    "serve_conp": ["reasoner.tableau_steps", "reasoner.branches_opened",
                   "serve.tableau_recomputes"],
}
PICKS = ["serve.backend_picks.fo", "serve.backend_picks.datalog",
         "serve.backend_picks.cspsat", "serve.backend_picks.tableau",
         "serve.truncated_fallbacks"]


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    picks = next(json.loads(l[len("picks "):]) for l in lines
                 if l.startswith("picks "))
    digest = next(l.split("=", 1)[1] for l in lines
                  if l.startswith("inputs digest="))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return result, metrics, picks, digest


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload, counters in DETERMINISTIC.items():
        res_a, a, picks_a, digest_a = run(workload, SEED)
        _, b, picks_b, digest_b = run(workload, SEED)
        for name in counters + PICKS:
            expect(a[name] == b[name],
                   f"{workload} {name} repeats: {a[name]} vs {b[name]}")
        expect(picks_a == picks_b, f"{workload} recorded picks repeat")
        expect(digest_a == digest_b, f"{workload} inputs repeat")
        if workload != "serve_conp":
            expect(res_a["correct"] and res_a["failed"] == 0,
                   f"{workload} has no failed operation")
        else:
            expect(res_a["failed"] > 0,
                   "serve_conp reports the above-cliff sessions as failed")
        _, c, picks_c, digest_c = run(workload, HELD_OUT)
        expect(digest_c != digest_a, f"{workload} held-out seed changes inputs")
        expect(picks_c == picks_a,
               f"{workload} held-out seed keeps verdicts and picks")
        for name in PICKS:
            expect(c[name] == a[name], f"{workload} held-out {name}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
