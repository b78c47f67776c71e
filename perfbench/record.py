"""Record the known answers of the suite workloads in ``digests.json``.

For every universe a suite workload can visit, this stores a digest of each
operation's JSON (each check's ``CheckResult``, the univalence certificates
and the universality check) and of the pass's whole output.  Run it only
when the expected outputs change on purpose, and say why in the change:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0, as the benchmark does", file=sys.stderr)
        return 2
    table: dict[str, dict[str, dict[str, str]]] = {}
    for workload in workloads.SUITES:
        table[workload] = {}
        for index in sorted(set(workloads.visit_order(workload, 0))):
            _, report, univalence = workloads.run_suite(workload, index)
            ops, whole = workloads.pass_ops(report, univalence)
            failed = [name for name, ok, _, _, _ in ops if not ok]
            if failed:
                print(f"{workload} universe {index}: failed {failed}", file=sys.stderr)
                return 1
            entry = {name: dig for name, _, dig, _, _ in ops}
            entry["report"] = whole
            table[workload][str(index)] = entry
            print(workload, index, whole, flush=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
