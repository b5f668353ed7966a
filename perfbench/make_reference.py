#!/usr/bin/env python3
"""Regenerate reference.json, the lock bands the benchmark checks every
reply against:

    python3 perfbench/make_reference.py

Run it from the root of an oshil checkout, and only when a change to
the analyses is meant to move the bands. Each entry holds the band
edges and the tolerance on them: the lock-range bisection's phase
tolerance (1e-5 rad) mapped to Hz through the band's slope, plus the
rounding of the printed report."""

import json
import os
import re
import subprocess

import run
import workloads

PHI = re.compile(r"phi_d_max = ([-+0-9.eE]+) rad")


def main():
    run.build()
    os.makedirs(run.RUN_ROOT, exist_ok=True)
    path = os.path.join(run.RUN_ROOT, "reference.tsv")
    ops = workloads.reference_ops()
    for i, op in enumerate(ops):
        op.cls = "reference"
        op.line = op.wire("ref-%d" % i).encode()
    run.write_requests(path, [("op", ops)])
    out = subprocess.run([run.REPLAY, "handle", "--jobs", "2", path],
                             stdout=subprocess.PIPE, check=True, text=True).stdout
    os.remove(path)
    ref, phis = {}, {}
    for op, line in zip(ops, out.splitlines()):
        report = json.loads(line)["report"]
        if op.op == "shil":
            band = run.SHIL_BAND.search(report)
            phi = phis[op.key] = float(PHI.search(report).group(1))
        else:
            # the DF half of the hb report is the exact shil analysis
            band = run.DF_BAND.search(report)
            phi = phis[workloads.shil("tanh", workloads.PAPER_VI).key]
        lo, hi = float(band.group(1)), float(band.group(2))
        ref[op.key] = {"lo": lo, "hi": hi, "tol": 1e-5 * (hi - lo) / (2 * phi) + 1e-7 * hi}
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
