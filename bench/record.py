"""Record the canonical outputs that every benchmark run is checked against.

    python3 bench/record.py

Writes `tables.json` (the canonical b-table of each pair, the input of the
`models` workload) and `digests.json` (the digest of every operation's
output, per workload, pair and stage).  Run it only on a commit whose
outputs are known good; a later change that alters any output then fails
the benchmark.
"""

import json
import sys

from workloads import DIGESTS_FILE, PAIRS, SRC, TABLES_FILE, WORKLOADS, label
from run import spawn


def main():
    sys.path.insert(0, str(SRC))
    from exhopf import bst

    tables = {label((g, p)): bst.full_table(g, p).as_dict() for g, p in PAIRS}
    TABLES_FILE.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    digests = {}
    for workload, pairs in WORKLOADS.items():
        result = spawn(workload, [label(pair) for pair in pairs])
        failed = [o for o in result["ops"] if o["error"]]
        if failed:
            sys.exit(f"{workload}: operations raised: {failed}")
        per_pair = digests.setdefault(workload, {})
        for o in result["ops"]:
            per_pair.setdefault(o["pair"], {})[o["stage"]] = o["digest"]
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
