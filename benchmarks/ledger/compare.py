"""``compare A.json B.json``: did B get worse than A, per workload x metric?

Both files come from ``run --out``; each holds, per workload and
end-to-end metric, the values of one or more runs.  The verdict follows
the choosing-metrics guide (section 6.5):

``worse``       B's median is worse than A's by more than the metric's
                bound (and the spread does not explain it);
``unresolved``  A's own run-to-run spread is wider than the bound, so
                the difference cannot be told from noise — unless every
                run of B reads better than every run of A (``ok``) or
                worse than every run of A by more than the bound
                (``worse``);
``ok``          otherwise.
``info``        ``op_p90_ms``: shown, never gated.

Simulated statistics (``sim.*``) and golden digests must be *identical*
on every seed both files share; a difference is reported as ``worse``.
"""

from __future__ import annotations

import json
from statistics import median

from benchmarks.ledger.stats import spread


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> dict:
    """Compare one metric's runs; ``better`` is ``lower`` or ``higher``."""
    med_a, med_b = median(a), median(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B worse, as a share of A's median.
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    noise = spread(a)
    if better == "lower":
        all_better = max(b) < min(a)
        all_worse = min(b) > max(a) * (1 + bound)
    else:
        all_better = min(b) > max(a)
        all_worse = max(b) < min(a) * (1 - bound)
    if noise > bound:
        word = "ok" if all_better else "worse" if all_worse else "unresolved"
    else:
        word = "worse" if change > bound else "ok"
    return {
        "median_a": med_a,
        "median_b": med_b,
        "change": change,
        "spread_a": noise,
        "verdict": word,
    }


def compare(doc_a: dict, doc_b: dict, spec: dict) -> tuple[list[dict], list[str]]:
    """Rows for every workload x end-to-end metric, and exactness breaks."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = doc_a["end_to_end"].get(workload)
        runs_b = doc_b["end_to_end"].get(workload)
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                runs_a[name], runs_b[name],
                better=metric["better"], bound=metric["bound"],
            )
            rows.append(
                {"workload": workload, "metric": name, "unit": metric["unit"],
                 "bound": metric["bound"], **row}
            )
        tail_a = doc_a.get("info", {}).get(workload, {}).get("op_p90_ms")
        tail_b = doc_b.get("info", {}).get(workload, {}).get("op_p90_ms")
        if tail_a and tail_b:
            # Shown for the reader; never gated (README, "op_p90_ms").
            row = verdict(tail_a, tail_b, better="lower", bound=float("inf"))
            rows.append(
                {"workload": workload, "metric": "op_p90_ms", "unit": "ms",
                 "bound": None, **row, "verdict": "info"}
            )
    breaks = []
    for key, exact_a in doc_a.get("exact", {}).items():
        exact_b = doc_b.get("exact", {}).get(key)
        if exact_b is not None and exact_b != exact_a:
            breaks.append(f"{key}: {exact_a} != {exact_b}")
    return rows, breaks


def main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, breaks = compare(json.load(fa), json.load(fb), spec)
    print(
        f"{'workload':<16} {'metric':<12} {'A median':>12} {'B median':>12} "
        f"{'B worse by':>10} {'spread A':>9} {'bound':>6}  verdict"
    )
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(
            f"{row['workload']:<16} {row['metric']:<12} "
            f"{row['median_a']:>12.4f} {row['median_b']:>12.4f} "
            f"{row['change']:>+10.1%} {row['spread_a']:>9.1%} "
            f"{bound:>6}  {row['verdict']}  [{row['unit']}]"
        )
    for line in breaks:
        print(f"NOT IDENTICAL  {line}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    gated = [r for r in rows if r["verdict"] != "info"]
    print(
        f"{len(gated)} comparisons: {len(worse)} worse, "
        f"{len(unresolved)} unresolved, {len(breaks)} exactness breaks"
    )
    return 1 if worse or breaks else 0
