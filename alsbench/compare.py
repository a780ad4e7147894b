"""Direction-aware comparison of benchmark results against BENCHMARK.json.

Every metric in BENCHMARK.json carries its unit and which direction is
better.  `change()` turns a pair of values into a signed "worse by" share, so
a slowdown of a lower-is-better time and a drop of a higher-is-better rate
both read as positive (worse).  `self_test()` feeds it synthetic regressions
and fails if either reads as an improvement, the inversion a quality gate
must never have.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec):
    """name -> metric entry, over end_to_end and per_layer."""
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            out[m["name"]] = m
    return out


def change(better, base, new):
    """Share by which `new` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(metric, base, new):
    """'worse' when the change exceeds the metric's bound, else 'ok'."""
    bound = metric.get("bound", 0.0)
    return "worse" if change(metric["better"], base, new) > bound else "ok"


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def self_test(spec):
    """Synthetic 2x slowdown on solve_s and 2x drop on jobs_per_s must both
    read as worse; their mirror images must not.  Returns a list of errors."""
    metrics = metric_specs(spec)
    errors = []
    cases = [("solve_s", 10.0, 20.0, "worse"), ("solve_s", 10.0, 5.0, "ok"),
             ("jobs_per_s", 100.0, 50.0, "worse"), ("jobs_per_s", 100.0, 200.0, "ok")]
    for name, base, new, want in cases:
        if name not in metrics:
            errors.append("self-test: %s missing from BENCHMARK.json" % name)
            continue
        got = verdict(metrics[name], base, new)
        if got != want:
            errors.append("self-test: %s %g -> %g reads %s, expected %s"
                          % (name, base, new, got, want))
    return errors


if __name__ == "__main__":
    problems = self_test(load_spec())
    for p in problems:
        print(p)
    print("direction self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
