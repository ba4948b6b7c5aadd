"""Workloads of the exhopf benchmark and the canonical form of their outputs.

A workload is a list of (G, p) pairs and the stages run on each pair.  An
operation is one (pair, stage) call; its output is reduced to canonical
JSON and digested, and the digest must equal the one recorded in
`digests.json`.

Why these workloads:

- `tables`: `bst.full_table` (auto strategy) on all ten pairs, the default
  reproduction path.  Method II dominates (the Wu-formula rewrite for
  (E8,5)), with a small Method I fallback on (F4,3)/(E6,3).  `hopf` is idle.
- `models`: Hopf model, coproducts and check suite on all ten pairs, from
  the recorded b-tables in `tables.json`, so `symfun`, `steenrod` and
  `groebner` are idle and `hopf` does all the work.
- `crosscheck`: Method I against Method II (`strategy="both"`) on the four
  F4/E6 pairs and Method I on (G2,2).  Division in the weight ring
  dominates.  E7/E8 are left out: Method I takes minutes there.
"""

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TABLES_FILE = HERE / "tables.json"
DIGESTS_FILE = HERE / "digests.json"

PAIRS = (
    ("G2", 2), ("F4", 2), ("E6", 2), ("E7", 2), ("E8", 2),
    ("F4", 3), ("E6", 3), ("E7", 3), ("E8", 3), ("E8", 5),
)

# Method I is only affordable on the small ranks; G2 has no Method II
CROSSCHECK_STRATEGY = {
    ("F4", 2): "both", ("E6", 2): "both", ("F4", 3): "both", ("E6", 3): "both",
    ("G2", 2): "method1",
}

WORKLOADS = {
    "tables": PAIRS,
    "models": PAIRS,
    "crosscheck": tuple(p for p in PAIRS if p in CROSSCHECK_STRATEGY),
}

def label(pair):
    group, p = pair
    return f"{group}_{p}"


def pair_orders(workload, seed):
    """The pair order of each successive process of one run.

    Order matters: `symfun` caches are shared by every pair of a process.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        yield order


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_tables():
    """The recorded canonical b-tables, as public `BstTable` objects."""
    from exhopf import bst, liedata

    raw = json.loads(TABLES_FILE.read_text())
    tables = {}
    for group, p in PAIRS:
        data = raw[label((group, p))]
        entries = {
            (e["s"], e["t"]): bst.BstEntry(e["s"], e["t"], e["k"], e["b"], e["method"])
            for e in data["entries"]
        }
        tables[(group, p)] = bst.BstTable(liedata.profile(group, p), entries)
    return tables


def model_output(model):
    """The generator tables a model is built from, rendered canonically."""
    out = {
        "basis_dimension": model.basis_dimension(),
        "poincare": model.poincare_polynomial(),
        "bockstein": {s: model.render_element(v) for s, v in model.bockstein_table.items()},
    }
    if model.p == 2:
        out["square"] = {s: model.render_element(v) for s, v in model.square_table.items()}
    return out


def coproducts_output(model, phi):
    """Each reduced coproduct as a sorted list of (left, right, coeff)."""
    return {
        s: [[model.render_basis(a), model.render_basis(b), c]
            for (a, b), c in sorted(t.terms.items())]
        for s, t in sorted(phi.items())
    }


def _need(result):
    if result is None:
        raise RuntimeError("an earlier stage of this pair failed")
    return result


def run_pair(workload, pair, tables, op):
    """Run every stage of `workload` on `pair` through `op(stage, call, canon)`.

    `op` times `call()`, reduces its result with `canon` and returns the
    result, or None when the call raised; a later stage that needs a failed
    result then fails too.
    """
    from exhopf import bst, hopf

    group, p = pair
    if workload == "models":
        model = op("build_model", lambda: hopf.build_model(group, p, tables[pair]),
                   model_output)
        op("derive_coproducts", lambda: _need(model).derive_coproducts(),
           lambda phi: coproducts_output(model, phi))
        op("check_suite", lambda: hopf.check_suite(_need(model)), lambda r: r)
        return
    strategy = CROSSCHECK_STRATEGY[pair] if workload == "crosscheck" else "auto"
    table = op("full_table", lambda: bst.full_table(group, p, strategy=strategy),
               lambda t: t.as_dict())
    op("verify_lemma22", lambda: bst.verify_lemma22(group, p, _need(table)), lambda r: r)
