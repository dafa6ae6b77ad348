"""Verdicts for two run reports, one row per (workload, metric).

Bounds come from ``BENCHMARK.json``: a metric regresses when the new
value is worse than the base value by more than ``bound`` times the base
value, and is ``improved`` when it is better by more than that.  Two rules
are not expressible there and live here: ``setup_s`` may always worsen by
up to ``SETUP_FLOOR_S`` (import-time jitter dominates a short set-up), and
``error_rate`` may not increase at all.  A changed ``outcome_digest`` fails
too: the program's outcomes must stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import load_spec

SETUP_FLOOR_S = 0.05


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) for every end-to-end metric, plus error_rate."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in load_spec()["end_to_end"]}
    bounds["error_rate"] = ("lower", 0.0)
    return bounds


def _verdict(metric: str, base: dict, new: dict, better: str, bound: float) -> Tuple[str, float]:
    old, fresh = base["value"], new["value"]
    worse = fresh - old if better == "lower" else old - fresh
    allowed = bound * abs(old)
    if metric == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    change = worse / abs(old) if old else (float("inf") if worse > 0 else 0.0)
    if worse > allowed:
        return "REGRESSION", change
    if worse < -allowed:
        return "improved", change
    return "ok", change


def compare(base: dict, new: dict, bounds: Dict[str, Tuple[str, float]]) -> List[dict]:
    rows = []
    for workload, old_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            rows.append({"workload": workload, "metric": "-", "verdict": "MISSING"})
            continue
        same = (old_entry["outcome_digest"] is not None
                and old_entry["outcome_digest"] == new_entry["outcome_digest"])
        rows.append({"workload": workload, "metric": "outcome_digest",
                     "verdict": "same" if same else "DIFFERENT"})
        for metric, (better, bound) in bounds.items():
            old_value = old_entry.get("metrics", {}).get(metric)
            new_value = new_entry.get("metrics", {}).get(metric)
            if old_value is None or new_value is None:
                rows.append({"workload": workload, "metric": metric, "verdict": "MISSING"})
                continue
            verdict, change = _verdict(metric, old_value, new_value, better, bound)
            rows.append({"workload": workload, "metric": metric, "base": old_value["value"],
                         "new": new_value["value"], "unit": new_value["unit"],
                         "worse_by": change, "bound": bound, "verdict": verdict})
    return rows


FAILING = ("REGRESSION", "DIFFERENT", "MISSING")


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<15} {'base':>12} {'new':>12} "
             f"{'worse by':>9} {'bound':>6}  verdict"]
    for row in rows:
        if "base" not in row:
            lines.append(f"{row['workload']:<14} {row['metric']:<15} {'':>12} {'':>12} "
                         f"{'':>9} {'':>6}  {row['verdict']}")
            continue
        lines.append(f"{row['workload']:<14} {row['metric']:<15} {row['base']:>12.5g} "
                     f"{row['new']:>12.5g} {row['worse_by']:>+9.1%} {row['bound']:>6.0%}  "
                     f"{row['verdict']}")
    failing = sum(row["verdict"] in FAILING for row in rows)
    lines.append(f"verdict: {'FAIL' if failing else 'pass'} "
                 f"({failing} failing of {len(rows)} rows)")
    return "\n".join(lines)
