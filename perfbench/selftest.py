"""Shows that each output check can fail, so a zero fail_rate means something.

    python3 perfbench/selftest.py

Runs a few oneshot points at seed 0, confirms they pass every check, then
injects one wrong value per check (a wrong expected QoS, a wrong expected
feasible flag, a wrong reported eps*, a B&B optimum below its heuristic, a
QoS that rises as the budget falls) and requires each to count exactly one
failed point. Exits 1 if any case behaves otherwise.
"""

from __future__ import annotations

import copy
import sys

import bootstrap


def main() -> int:
    bootstrap.pin()
    import check
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS["oneshot"]
    state = wl.setup(check.DEFAULT_SEED, bootstrap.WORK)
    state["graphs"] = state["graphs"][:4]
    with spans.Recorder(spans.POINTS + spans.LP_CAPTURE) as rec:
        res = wl.run_pass(state, rec)
    table = {k: v for k, v in check.load_table("oneshot").items() if k in res.outcomes}

    def failed_with(table=table, rec=rec):
        tally = check.Tally(wl, table)
        tally.add(res, rec)
        tally.add_highs(rec)
        return tally.failed

    feasible_key = next(k for k, v in table.items() if v.get("qos") is not None)
    wrong_qos = copy.deepcopy(table)
    wrong_qos[feasible_key]["qos"] *= 1 + 1e-6
    wrong_flag = copy.deepcopy(table)
    wrong_flag[feasible_key]["feasible"] = False

    bad_rec = copy.copy(rec)
    bad_rec.spans = list(rec.spans)
    i = next(i for i, s in enumerate(rec.spans) if s.func == "epsilon_star")
    eps_span = copy.copy(rec.spans[i])
    args, (star, sched, asg) = eps_span.data
    eps_span.data = (args, (star * (1 + 1e-5), sched, asg))
    bad_rec.spans[i] = eps_span

    bnb = {"x": {"status": "optimal", "objective": 0.5, "proposed_qos": 0.6,
                 "verified": True}}
    rising = {"g/proposed/1": {"feasible": True, "qos": 0.8},
              "g/proposed/0.95": {"feasible": True, "qos": 0.9}}
    cases = [
        ("honest run", failed_with(), 0),
        ("wrong expected qos", failed_with(table=wrong_qos), 1),
        ("wrong expected feasible flag", failed_with(table=wrong_flag), 1),
        ("wrong reported eps* (HiGHS)", failed_with(table=None, rec=bad_rec), 1),
        ("B&B optimum below heuristic", len(check.invariants("bnb", bnb)), 1),
        ("qos rising as budget falls", len(check.invariants("oneshot", rising)), 1),
    ]
    ok = True
    for name, got, want in cases:
        ok &= got == want
        print(f"{'PASS' if got == want else 'FAIL'} {name}: {got} failed, want {want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
