#!/usr/bin/env python3
"""Diff two benchmark result files of the same workload and seed.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Result files are written by run.py to ``perfbench_out/``.  Lists every
request whose stdout hash differs and, for traced results, every exact
counter that differs.  Exit code 0 when outputs are byte-identical and the
exact counters match, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from tracing import EXACT_COUNTERS


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.load(open(path)) for path in argv)
    for key in ("workload", "seed"):
        if before["env"][key] != after["env"][key]:
            print("error: %s differs (%s vs %s)" % (key, before["env"][key], after["env"][key]))
            return 2
    differ = 0
    old = {r["id"]: r["sha256"] for r in before["requests"]}
    for r in after["requests"]:
        if old.get(r["id"]) != r["sha256"]:
            differ += 1
            print("output differs: %s" % r["id"])
    if "counters" in before and "counters" in after:
        for name in EXACT_COUNTERS:
            a, b = before["counters"][0].get(name, 0), after["counters"][0].get(name, 0)
            if a != b:
                differ += 1
                print("counter differs: %s %d -> %d" % (name, a, b))
    print("%d difference(s) over %d requests" % (differ, len(after["requests"])))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
