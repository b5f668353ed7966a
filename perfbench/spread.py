#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report, per
end-to-end metric, the median and the distance between the first and
third quartile as a share of the median, against the metric's bound in
BENCHMARK.json (a steady benchmark keeps each spread below a third of
its bound, setup_s aside, which is judged on medians only).

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1] [--out FILE]
    python3 perfbench/spread.py --compare FIRST SECOND

Run it from the root of an oshil checkout; it runs perfbench/run.py with
BENCHMARK.json's run_seconds, one seed after another. --out saves the
set's values; --compare takes two saved sets of the same workload and
reports, per metric, how much worse the second median is than the first
as a share of the first, against the metric's bound."""

import argparse
import json
import subprocess
import sys

import stats


def run_set(bench, workload, runs, first_seed):
    values = {}
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    return values


def report_spread(bench, values):
    steady = True
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        share = stats.iqr_share(vs)
        gated = metric["name"] != "setup_s"
        ok = share < metric["bound"] / 3
        steady = steady and (ok or not gated)
        print("%-18s median %-12.6g IQR/median %.4f  bound %.2f  %s" % (
            metric["name"], stats.median(vs), share, metric["bound"],
            ("ok" if ok else "TOO NOISY") + ("" if gated else " (spread not gated)")))
    return steady


def worse_share(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    a, b = stats.median(first), stats.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def report_compare(bench, first, second):
    agree = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        share = worse_share(first[name], second[name], metric["better"])
        ok = share <= metric["bound"]
        agree = agree and ok
        print("%-18s medians %-12.6g %-12.6g worse by %+.4f  bound %.2f  %s" % (
            name, stats.median(first[name]), stats.median(second[name]), share,
            metric["bound"], "ok" if ok else "DISAGREE"))
    return agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.compare:
        sets = []
        for path in a.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = report_compare(bench, *sets)
    else:
        if not a.workload:
            ap.error("--workload is required unless --compare is given")
        values = run_set(bench, a.workload, a.runs, a.first_seed)
        if a.out:
            with open(a.out, "w") as f:
                json.dump(values, f)
        ok = report_spread(bench, values)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
