"""Record the reference results that run.py checks outputs against.

    python3 perfbench/record.py --commit HASH

Solves every input of every workload with the code in src/ and
writes perfbench/reference.json: per instance, a digest of its wire text and
the matching the solver returned (run-length encoded), plus, on small_cli,
the matching oracle_leximin returned.  Run it only when the workloads
change, at the commit whose results later changes are compared with; it
prints the instances whose results already fail a check (such as a known
miss against the oracle).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import check
import workloads
from run import REFERENCE, import_lexmatch, solve_in_process


def record_workload(lexmatch, modules, workload) -> dict:
    entries = {}
    algorithms = Counter()
    for item in workloads.pool(workload, lexmatch, None):
        text = solve_in_process(modules, item.text, item.algo)
        report = json.loads(text)
        algorithms[report["algorithm"]] += 1
        entry = {
            "sha": workloads.text_digest(item.text),
            "ref": check.encode_assignment(report["matching"]["assignment"]),
        }
        if not workload.in_process:
            best = lexmatch.oracle_leximin(
                item.instance, require_complete=True, respect_capacities=True
            )
            entry["oracle"] = check.encode_assignment(best.matching.assignment)
        item.reference = entry
        status = check.check_output(lexmatch, item, text)
        if status not in (check.OK, check.IMPROVED):
            print(f"  {workload.name} {item.key}: {status}", file=sys.stderr)
        entries[item.key] = entry
    print(f"{workload.name}: {len(entries)} instances, solvers {dict(algorithms)}")
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record perfbench/reference.json")
    parser.add_argument("--commit", required=True, help="commit the results come from")
    args = parser.parse_args(argv)
    lexmatch, modules, _ = import_lexmatch()
    # every workload is recorded again, so one commit covers the whole file
    data = {"commit": args.commit, "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        data["workloads"][name] = record_workload(lexmatch, modules, workloads.WORKLOADS[name])
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
