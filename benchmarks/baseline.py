"""Set the traced spans beside the figures ROADMAP.md gives as its baseline.

    python3 benchmarks/baseline.py

Reads ``benchmarks/out/spans-<workload>-seed<n>.npz`` as written by traced
runs (``run.py --trace 1``) of the three workloads, and prints inclusive
wall times per call (median over every call on that workload's own ops)
next to the one-off figures that ROADMAP.md recorded before this
benchmark existed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"

# (what, workload, spans summed per op, label, ROADMAP figure in ms)
ROWS = [
    ("run_postselected, 11-qubit pattern", "verify_n3",
     ["mbqc.run_postselected"], "pattern", 1.6),
    ("run_postselected, 36-qubit lattice", "verify_n3",
     ["mbqc.run_postselected"], "lattice", 16.6),
    ("elimination_order, lattice", "verify_n3",
     ["tensor.elimination_order"], "lattice", 9.0),
    ("reduce_lattice", "compile_n3", ["mbqc.reduce_lattice"], None, 4.2),
    ("compile one circuit (to_zx_tracked + simplify_mbqc)", "compile_n3",
     ["circuit.to_zx_tracked", "rewrite.simplify_mbqc"], None, 1.7),
    ("run_sampled, 2 qubits, 1000 shots", "sample_n2",
     ["mbqc.run_sampled"], None, 240.0),
]


def inclusive_ms(spans, workload: str, names: list[str], label) -> float:
    """Median over the workload's own ops of the summed inclusive time of
    the named spans, counting only spans with the given label."""
    first, stop = spans["op_ranges"][list(spans["workloads"]).index(workload)]
    op = spans["op_of"]
    keep = (op >= first) & (op < stop)
    keep &= np.isin(spans["name_of"],
                    [list(spans["names"]).index(n) for n in names])
    if label is not None:
        keep &= spans["label_of"] == list(spans["labels"]).index(label)
    dur = (spans["end"] - spans["start"])[keep] / 1e6
    if len(names) == 1:
        return float(np.median(dur))
    per_op = np.bincount(op[keep] - first, weights=dur)
    return float(np.median(per_op[per_op > 0]))


def main() -> int:
    print(f"{'figure':<54} {'traced ms':>10} {'ROADMAP ms':>11}  spans file")
    for what, workload, names, label, roadmap in ROWS:
        files = sorted(OUT.glob(f"spans-{workload}-seed*.npz"))
        if not files:
            print(f"no spans for {workload}; run run.py --workload {workload}"
                  " --trace 1 first", file=sys.stderr)
            return 1
        with np.load(files[0]) as spans:
            ms = inclusive_ms(spans, workload, names, label)
        print(f"{what:<54} {ms:>10.2f} {roadmap:>11.1f}  {files[0].name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
