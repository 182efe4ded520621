"""One benchmark process: set up, run one workload's closed loop, report JSON.

Started by ``run.py`` with BLAS threads pinned to 1; not meant to be run by
hand.  Prints one JSON document on stdout.  With ``--setup-only`` it stops
once the inputs are ready and reports that instant and the reference
kernel's time, so the launcher can time set-up from process launch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP_OPS = 3
# enough latency samples that at least 10 lie above the p90
MIN_OPS = 100
# traced ops of each other workload, to time functions this one never calls
COMPANION_OPS = 3
SHOTS = 1000
# The reference kernel brackets every op; under 1 ms on a 2-vCPU Xeon VM
# with CPython 3.11.  Its run time tracks the machine's momentary speed.
KERNEL_SIZE = 400
# kernel runs that time the machine's speed at the end of set-up
SETUP_KERNELS = 5


def import_zxdj():
    """Import zxdj from this checkout's sources, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import zxdj

    if Path(zxdj.__file__).resolve().parent != (SRC / "zxdj").resolve():
        raise SystemExit(f"zxdj imported from {zxdj.__file__}, not {SRC}")
    return zxdj


# -- inputs and the reference verdict ------------------------------------------

def promise_tables(n: int) -> list[int]:
    """Truth tables of every constant or balanced n-bit function."""
    size = 1 << n
    return [t for t in range(1 << size)
            if bin(t).count("1") in (0, size // 2, size)]


def reference_verdict(f) -> str:
    """Popcount of the truth table; needs no circuit, diagram or tensor."""
    ones = bin(f.table).count("1")
    return "constant" if ones in (0, 1 << f.n) else "balanced"


class Inputs:
    """The seeded op stream: shuffled variants, each with its own op seed."""

    def __init__(self, zxdj, n: int, seed: int) -> None:
        self._rng = random.Random(seed)
        tables = promise_tables(n)
        self._rng.shuffle(tables)
        self.functions = [zxdj.BooleanFunction(n, t) for t in tables]
        self._next = 0

    def take(self):
        f = self.functions[self._next % len(self.functions)]
        self._next += 1
        return f, self._rng.getrandbits(32)


# -- workloads: op (timed) and check (untimed) -----------------------------------

def verify_n3(zxdj, f, op_seed):
    """The four routes of ``verify-all --n 3`` for one variant."""
    circuit = zxdj.dj_run_circuit(zxdj.oracle_circuit_3q(f))
    d, carriers = zxdj.to_zx_tracked(zxdj.oracle_circuit_3q(f))
    reduced, _ = zxdj.simplify_mbqc(d, frozenset(carriers))
    pipeline = zxdj.run_postselected(zxdj.pattern_from_graph_like(reduced))
    pattern = zxdj.run_postselected(zxdj.dj_pattern_3q(f))
    lattice = zxdj.run_postselected(zxdj.lattice_pattern_3q(f))
    return [circuit, pipeline.verdict, pattern.verdict, lattice.verdict]


def check_verify_n3(zxdj, f, result, expected) -> bool:
    return all(v.value == expected for v in result)


def compile_n3(zxdj, f, op_seed):
    """``compile-mbqc`` then ``simulate``, then ``lattice --reduce``."""
    d, carriers = zxdj.to_zx_tracked(zxdj.oracle_circuit_3q(f))
    reduced, _ = zxdj.simplify_mbqc(d, frozenset(carriers))
    compiled = zxdj.pattern_from_graph_like(reduced)
    verdict = zxdj.run_postselected(compiled).verdict
    lattice, _ = zxdj.reduce_lattice(zxdj.lattice_pattern_3q(f))
    return verdict, compiled, lattice


def check_compile_n3(zxdj, f, result, expected) -> bool:
    verdict, compiled, lattice = result
    golden = zxdj.dj_pattern_3q(f)
    return (verdict.value == expected
            and zxdj.patterns_isomorphic(compiled, golden)
            and zxdj.patterns_isomorphic(lattice, golden))


def sample_n2(zxdj, f, op_seed):
    return zxdj.run_sampled(zxdj.dj_pattern_2q(f), seed=op_seed, shots=SHOTS)


def check_sample_n2(zxdj, f, result, expected) -> bool:
    return (result.verdict.value == expected and result.shots == SHOTS
            and result.agreeing_shots == SHOTS)


WORKLOADS = {
    "verify_n3": (3, verify_n3, check_verify_n3),
    "compile_n3": (3, compile_n3, check_compile_n3),
    "sample_n2": (2, sample_n2, check_sample_n2),
}


# -- the closed loop --------------------------------------------------------------

def reference_kernel() -> None:
    """Fixed work whose duration is one ref-ms by definition.

    Tuple-keyed dict inserts, a sort and small tensor contractions: the mix
    zxdj's diagram code and samplers run, so that a busy host slows the
    kernel by about the same factor as an op.
    """
    import numpy as np

    table = {}
    for i in range(KERNEL_SIZE):
        table[(i * 7919) % 1013, i] = [i]
    sorted(table.items())
    state = np.ones((2, 2, 2), dtype=complex)
    bra = np.array([1, 1j])
    for _ in range(KERNEL_SIZE // 8):
        branch = np.tensordot(bra, state, axes=([0], [0]))
        np.vdot(branch, branch)


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


class LoopResult:
    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        # kernel_ns[i] and kernel_ns[i + 1] bracket op i
        self.kernel_ns: list[int] = []
        self.failed = 0
        self.raised = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def latencies_ref_ms(self) -> list[float]:
        """Each op's wall time over the mean of its two bracketing kernel
        runs: its latency at the speed the kernel defines as reference."""
        k = self.kernel_ns
        return [2 * t / (k[i] + k[i + 1])
                for i, t in enumerate(self.latencies_ns)]


def run_loop(zxdj, workload: str, inputs: Inputs, seconds: float,
             min_ops: int = 0, recorder=None,
             reference=reference_verdict) -> LoopResult:
    """One caller issues ops back to back for ``seconds`` (and at least
    ``min_ops`` ops).  Only the op is timed; the verdict check runs after
    the clock stops, and a raising or mismatching op counts as failed."""
    _, op, check = WORKLOADS[workload]
    out = LoopResult()
    clock = time.perf_counter_ns
    deadline = time.monotonic() + seconds
    out.kernel_ns.append(kernel_ns())
    while time.monotonic() < deadline or out.attempted < min_ops:
        f, op_seed = inputs.take()
        if recorder is not None:
            recorder.begin_op()
        error = None
        t0 = clock()
        try:
            result = op(zxdj, f, op_seed)
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        t1 = clock()
        if recorder is not None:
            recorder.end_op()
        out.latencies_ns.append(t1 - t0)
        out.kernel_ns.append(kernel_ns())
        if error is None:
            try:
                ok = check(zxdj, f, result, reference(f))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
            out.raised += 1
        if not ok:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(
                    f"table {f.table}: " + (
                        "".join(traceback.format_exception_only(error)).strip()
                        if error is not None else "verdict mismatch"))
    return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[min(max(k, 0), len(sorted_values) - 1)]


def latency_figures(lat: list[float]) -> dict:
    """Throughput and latency percentiles of per-op times in ms (or ref-ms)."""
    lat = sorted(lat)
    p90 = percentile(lat, 0.9)
    return {"ops_per_s": len(lat) / (sum(lat) / 1e3),
            "op_ms_p50": percentile(lat, 0.5), "op_ms_p90": p90,
            "above_p90": sum(1 for x in lat if x > p90)}


def end_to_end(loop: LoopResult) -> tuple[dict, dict]:
    ref = latency_figures(loop.latencies_ref_ms())
    wall = latency_figures([t / 1e6 for t in loop.latencies_ns])
    completed = (loop.attempted - loop.raised) / loop.attempted
    metrics = {
        "ops_per_s": ref["ops_per_s"] * completed,
        "op_ms_p50": ref["op_ms_p50"],
        "op_ms_p90": ref["op_ms_p90"],
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"ops": loop.attempted, "failed": loop.failed,
               "raised": loop.raised, "above_p90": ref["above_p90"],
               "kernel_ms_p50": statistics.median(loop.kernel_ns) / 1e6,
               "wall": {k: v for k, v in wall.items() if k != "above_p90"}}
    return metrics, samples


# -- CLI contract probe ---------------------------------------------------------

PROBES = {"verify_all_n3": (["verify-all", "--n", "3"], 72),
          "verify_all_n2": (["verify-all", "--n", "2"], 8)}


def cli_probe(zxdj) -> dict:
    """Run ``verify-all`` as a user would and check its output contract:
    exit code 0, exactly one JSON document, all routes agreeing."""
    from zxdj import cli

    report = {}
    for key, (argv, count) in PROBES.items():
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        ms = (time.perf_counter_ns() - t0) / 1e6
        text = buf.getvalue()
        try:
            doc, end = json.JSONDecoder().raw_decode(text)
            single = not text[end:].strip()
        except json.JSONDecodeError:
            doc, single = {}, False
        report[key] = {
            "argv": argv, "exit_code": code, "ms": ms,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "ok": (code == 0 and single and doc.get("all_agree") is True
                   and doc.get("count") == count),
        }
    return report


# -- run ------------------------------------------------------------------------

def environment() -> dict:
    import networkx
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def peak_ranks(zxdj, f) -> dict:
    """Contraction peak rank per diagram shape; computed, not timed."""
    out = {}
    for shape, maker in (("lattice", zxdj.lattice_pattern_3q),
                         ("pattern", zxdj.dj_pattern_3q)):
        d = zxdj.pattern_to_diagram(maker(f))
        rank = zxdj.max_intermediate_rank(d)
        out[f"tensor.peak_rank.{shape}"] = rank
        out[f"tensor.peak_bytes.{shape}"] = 16 * 2 ** rank
    return out


def traced_run(zxdj, workload, inputs, seconds, out_dir, seed) -> dict:
    """Untraced then traced halves in one process; per-layer figures."""
    import tracer

    plain = run_loop(zxdj, workload, inputs, seconds / 2)
    probe = cli_probe(zxdj)
    rec = tracer.Recorder()
    loops = {}
    rec.install()
    try:
        loops[workload] = run_loop(zxdj, workload, inputs, seconds / 2,
                                   recorder=rec)
        for other, (n, _, _) in WORKLOADS.items():
            if other != workload:
                loops[other] = run_loop(zxdj, other, Inputs(zxdj, n, seed), 0,
                                        min_ops=COMPANION_OPS, recorder=rec)
    finally:
        rec.uninstall()
    op_ranges, first = {}, 0
    for name, loop in loops.items():
        op_ranges[name] = range(first, first + loop.attempted)
        first += loop.attempted
    figures = {name: tracer.layer_metrics(rec, ops)
               for name, ops in op_ranges.items()}
    traced = loops[workload]
    metrics = tracer.fill_idle(
        figures.pop(workload), [figures[w] for w in WORKLOADS if w in figures])
    metrics.update(peak_ranks(zxdj, zxdj.BooleanFunction(3, 0)))
    for key, rep in probe.items():
        metrics[f"cli.main.{key}.ms"] = rep["ms"]
    metrics["trace.overhead_ratio"] = (end_to_end(traced)[0]["ops_per_s"]
                                       / end_to_end(plain)[0]["ops_per_s"])
    rec.save(out_dir / f"spans-{workload}-seed{seed}.npz", op_ranges)
    loops["untraced"] = plain
    return {"metrics": {k: {"value": v, "unit": tracer.unit(k)}
                        for k, v in metrics.items()},
            "probe": probe,
            "attempted": sum(x.attempted for x in loops.values()),
            "failed": sum(x.failed for x in loops.values()),
            "errors": [e for x in loops.values() for e in x.errors],
            "samples": {name: x.attempted for name, x in loops.items()}
            | {"spans": len(rec.start)}}


def untraced_run(zxdj, workload, inputs, seconds) -> dict:
    loop = run_loop(zxdj, workload, inputs, seconds, min_ops=MIN_OPS)
    metrics, samples = end_to_end(loop)  # RSS read before the probe runs
    return {"metrics": metrics, "probe": cli_probe(zxdj),
            "attempted": loop.attempted, "failed": loop.failed,
            "errors": loop.errors, "samples": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    zxdj = import_zxdj()
    inputs = Inputs(zxdj, WORKLOADS[args.workload][0], args.seed)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        kernel = statistics.median(kernel_ns() for _ in range(SETUP_KERNELS))
        print(json.dumps({"ready_ns": ready_ns, "kernel_ns": kernel}))
        return 0

    _, op, _ = WORKLOADS[args.workload]
    for _ in range(WARMUP_OPS):
        op(zxdj, *inputs.take())
    if args.trace:
        doc = traced_run(zxdj, args.workload, inputs, args.seconds,
                         args.out_dir, args.seed)
    else:
        doc = untraced_run(zxdj, args.workload, inputs, args.seconds)
    doc["env"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
