"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

1. A deliberately wrong expected value must fail every pass of every
   workload (fail_rate 1), so the output check can fail.
2. One untraced and one traced pass per workload must print byte-identical
   stdout, hence the same report_hash: tracing observes, never changes.

Takes about a minute; exits nonzero on the first broken property.
"""

import copy
import json
import sys

import run


def corrupted(expected):
    """Expected outputs with one wrong value per workload."""
    bad = copy.deepcopy(expected)
    for spec in run.WORKLOADS.values():
        pinned = bad[" ".join(spec["calls"][0])]["content"]
        if "classes" in pinned:
            pinned["classes"][0]["towers"] = [{"bottom": 1}]
        elif "les" in pinned:
            pinned["les"]["exact"] = False
        else:
            pinned["suites"][0]["checked"] += 1
    return bad


def main():
    expected = json.loads(run.EXPECTED.read_text())
    bad = corrupted(expected)
    run.OUT.mkdir(exist_ok=True)
    ok = True
    for name in sorted(run.WORKLOADS):
        wrong = run.Run(name, run.DEFAULT_SEED, bad)
        wrong.measure(0, trace=False)
        rate = wrong.failed / wrong.attempted
        print("%s: wrong expected value -> fail_rate %.2f (%d/%d)"
              % (name, rate, wrong.failed, wrong.attempted))
        ok = ok and rate == 1

        pair = run.Run(name, run.DEFAULT_SEED, expected,
                       run.OUT / ("spans-selftest-%s.jsonl" % name))
        pair.spans_path.write_text("")
        pair.measure(0, trace=True)
        plain, traced = pair.passes[False], pair.passes[True]
        # run_pass fails a traced pass whose stdout differs from the
        # untraced pass with the same argv, so both passing proves identity.
        same = pair.failed == 0 and plain and traced
        hashes = [json.loads(c["stdout"])["report_hash"]
                  for c in (plain[0]["calls"] if plain else [])]
        print("%s: traced stdout byte-identical to untraced: %s; report_hash %s"
              % (name, bool(same), ", ".join(h[:12] for h in hashes)))
        ok = ok and bool(same)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
