"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

The PASS/FAIL lines print with capture suspended so they always reach the
terminal.
"""

import random
import time

import numpy as np
import pytest

from zxdj.circuit import (
    Circuit,
    dj_run_circuit,
    pauli_y,
    pauli_z,
    plus_amplitude,
    to_zx_tracked,
)
from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram
from zxdj.errors import ZxError
from zxdj.mbqc import (
    dj_pattern_1q,
    dj_pattern_2q,
    dj_pattern_3q,
    lattice_pattern_3q,
    pattern_from_graph_like,
    pattern_to_diagram,
    patterns_isomorphic,
    reduce_lattice,
    run_postselected,
    run_sampled,
)
from zxdj.oracle import (
    classify,
    count_balanced,
    enumerate_promise,
    oracle_circuit_3q,
    table2_function,
    table2_printed_angles,
    two_qubit_spider_angles,
)
from zxdj.phase import HALF_PI, MINUS_HALF_PI, PI, Phase, ZERO
from zxdj.rewrite import (
    collapse_hadamard_chain,
    color_change,
    decouple_x_state,
    expand_hadamard_edge,
    fuse_spiders,
    hadamard_cancel,
    local_complement,
    simplify_mbqc,
)
from zxdj.circuit import unitary
from zxdj.tensor import (
    equivalent_up_to_scalar,
    evaluate,
    max_intermediate_rank,
)

from test_oracle import _angles_realize_oracle


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# -- 1: counting -------------------------------------------------------------

def test_criterion_1_counting():
    start = time.perf_counter()
    counts = [count_balanced(n) for n in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = counts == [2, 6, 70] and elapsed < 1e-3
    _report(1, "balanced-function counts", ok,
            f"counts={counts} elapsed={elapsed:.6f}s")


# -- 2: circuit-level oracle correctness -------------------------------------

def test_criterion_2_oracle_circuits():
    start = time.perf_counter()
    ok = True
    detail = ""
    for f in enumerate_promise(3):
        u = unitary(oracle_circuit_3q(f))
        diag = np.diag([(-1.0) ** f.value(i) for i in range(8)]).astype(complex)
        good, _ = equivalent_up_to_scalar(u, diag)
        if not good:
            ok, detail = False, f"table {f.table} is not the phase oracle"
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        ok, detail = False, f"elapsed {elapsed:.2f}s"
    _report(2, "72 oracle circuits vs diagonal tensor", ok, detail)


# -- 3: algorithm dichotomy --------------------------------------------------

def _two_qubit_circuit(f) -> Circuit:
    gates = []
    for wire, (x_angle, z_angle) in enumerate(
            zip(*[iter(two_qubit_spider_angles(f))] * 2)):
        if x_angle == PI and z_angle == PI:
            gates.append(pauli_y(wire))
        elif z_angle == PI:
            gates.append(pauli_z(wire))
    return Circuit(2, gates)


def test_criterion_3_dichotomy():
    ok = True
    detail = ""
    cases = [(f, oracle_circuit_3q(f)) for f in enumerate_promise(3)]
    cases += [(f, _two_qubit_circuit(f)) for f in enumerate_promise(2)]
    for f, c in cases:
        amp = abs(plus_amplitude(c))
        if min(abs(amp - 1.0), abs(amp)) > 1e-9:
            ok, detail = False, f"table {f.table}: |amplitude|={amp}"
            break
        if dj_run_circuit(c) is not classify(f):
            ok, detail = False, f"table {f.table}: verdict mismatch"
            break
    _report(3, "amplitude dichotomy and verdicts", ok, detail)


# -- 4: compilation closure --------------------------------------------------

def test_criterion_4_compilation_closure():
    start = time.perf_counter()
    ok = True
    detail = ""
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        reduced, _ = simplify_mbqc(d, frozenset(carriers))
        n_h = sum(1 for e in reduced.edges.values()
                  if e.kind is EdgeKind.HADAMARD)
        if len(reduced.spiders) != 11 or n_h != 12 or len(reduced.edges) != 12:
            ok, detail = False, (f"table {f.table}: {len(reduced.spiders)} "
                                 f"spiders, {n_h} Hadamard edges")
            break
        p = pattern_from_graph_like(reduced)
        if not patterns_isomorphic(p, dj_pattern_3q(f)):
            ok, detail = False, f"table {f.table}: not isomorphic to fixture"
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        ok, detail = False, f"elapsed {elapsed:.2f}s"
    _report(4, "72 compiled patterns match the 11-qubit fixture", ok, detail)


# -- 5: rewrite soundness ----------------------------------------------------

def _random_base(rng, n_max=8):
    d = ZxDiagram()
    n = rng.randint(1, n_max)
    for _ in range(n):
        d.add_spider(rng.choice([SpiderKind.Z, SpiderKind.X]),
                     Phase(rng.randrange(8), 4))
    ids = sorted(d.spiders)
    for _ in range(rng.randint(0, n)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            d.add_edge(a, b, rng.choice([EdgeKind.PLAIN, EdgeKind.HADAMARD]))
    k = rng.randint(0, min(2, n))
    d.outputs = rng.sample(ids, k)
    return d


def _site_fuse(rng):
    d = _random_base(rng, 6)
    a = d.add_spider(rng.choice([SpiderKind.Z, SpiderKind.X]),
                     Phase(rng.randrange(8), 4))
    b = d.add_spider(d.spiders[a].kind, Phase(rng.randrange(8), 4))
    d.add_edge(a, b, EdgeKind.PLAIN)
    for v, others in ((a, [u for u in d.spiders if u not in (a, b)]),
                      (b, [u for u in d.spiders if u not in (a, b)])):
        for u in rng.sample(others, min(len(others), rng.randint(0, 2))):
            d.add_edge(v, u, rng.choice([EdgeKind.PLAIN, EdgeKind.HADAMARD]))
    return d, lambda: fuse_spiders(d, a, b)


def _site_color_change(rng):
    d = _random_base(rng)
    v = rng.choice(sorted(d.spiders))
    return d, lambda: color_change(d, v)


def _site_hadamard_cancel(rng):
    d = _random_base(rng, 6)
    others = sorted(d.spiders)
    m = d.add_spider(SpiderKind.Z, ZERO)
    a, b = (rng.sample(others, 2) if len(others) >= 2
            else (others[0], d.add_spider(SpiderKind.Z)))
    d.add_edge(m, a, EdgeKind.HADAMARD)
    d.add_edge(m, b, EdgeKind.HADAMARD)
    return d, lambda: hadamard_cancel(d, m)


def _site_expand(rng):
    d = _random_base(rng, 6)
    ids = sorted(d.spiders)
    a, b = (rng.sample(ids, 2) if len(ids) >= 2
            else (ids[0], d.add_spider(SpiderKind.Z)))
    eid = d.add_edge(a, b, EdgeKind.HADAMARD)
    return d, lambda: expand_hadamard_edge(d, eid)


def _site_collapse(rng):
    d, apply_expand = _site_expand(rng)
    step = apply_expand()
    return d, lambda: collapse_hadamard_chain(d, *step.after)


def _site_decouple(rng):
    d = _random_base(rng, 6)
    z = d.add_spider(SpiderKind.Z, Phase(rng.randrange(8), 4))
    for u in rng.sample(sorted(d.spiders)[:-1],
                        min(len(d.spiders) - 1, rng.randint(0, 3))):
        d.add_edge(z, u, rng.choice([EdgeKind.PLAIN, EdgeKind.HADAMARD]))
    x = d.add_spider(SpiderKind.X, ZERO)
    d.add_edge(x, z, EdgeKind.PLAIN)
    return d, lambda: decouple_x_state(d, x)


def _site_local_complement(rng):
    d = ZxDiagram()
    n = rng.randint(2, 8)
    ids = [d.add_spider(SpiderKind.Z, Phase(rng.randrange(8), 4))
           for _ in range(n)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    for a, b in rng.sample(pairs, min(len(pairs), rng.randint(1, 2 * n))):
        d.add_edge(a, b, EdgeKind.HADAMARD)
    pivot = rng.choice(ids)
    d.spiders[pivot].phase = rng.choice([HALF_PI, MINUS_HALF_PI])
    d.outputs = rng.sample([v for v in ids if v != pivot],
                           min(n - 1, rng.randint(0, 2)))
    return d, lambda: local_complement(d, pivot)


_RULE_SITES = {
    "fuse_spiders": _site_fuse,
    "color_change": _site_color_change,
    "hadamard_cancel": _site_hadamard_cancel,
    "expand_hadamard_edge": _site_expand,
    "collapse_hadamard_chain": _site_collapse,
    "decouple_x_state": _site_decouple,
    "local_complement": _site_local_complement,
}


def test_criterion_5_rewrite_soundness():
    start = time.perf_counter()
    rng = random.Random(99)
    ok = True
    detail = ""
    for rule, make_site in _RULE_SITES.items():
        applied = 0
        while applied < 500:
            d, apply = make_site(rng)
            before = d.copy()
            try:
                apply()
            except ZxError:
                continue
            applied += 1
            good, _ = equivalent_up_to_scalar(
                evaluate(before), evaluate(d))
            if not good:
                ok, detail = False, f"{rule} changed the tensor"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        ok, detail = False, f"elapsed {elapsed:.2f}s"
    _report(5, "500 sound applications per rewrite rule", ok, detail)


# -- 6: MBQC verdicts --------------------------------------------------------

def test_criterion_6_mbqc_verdicts():
    start = time.perf_counter()
    ok = True
    detail = ""
    cases = ([(f, dj_pattern_3q) for f in enumerate_promise(3)]
             + [(f, dj_pattern_2q) for f in enumerate_promise(2)]
             + [(f, dj_pattern_1q) for f in enumerate_promise(1)])
    for f, maker in cases:
        if run_postselected(maker(f)).verdict is not classify(f):
            ok, detail = False, f"n={f.n} table {f.table}: verdict mismatch"
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        ok, detail = False, f"elapsed {elapsed:.2f}s"
    _report(6, "post-selected verdicts match classification", ok, detail)


# -- 7: lattice equivalence --------------------------------------------------

def test_criterion_7_lattice():
    ok = True
    detail = ""
    for f in enumerate_promise(3):
        start = time.perf_counter()
        p = lattice_pattern_3q(f)
        d = pattern_to_diagram(p)
        if max_intermediate_rank(d) > 12:
            ok, detail = False, f"table {f.table}: rank > 12"
            break
        if run_postselected(p).verdict is not classify(f):
            ok, detail = False, f"table {f.table}: lattice verdict mismatch"
            break
        reduced, _ = reduce_lattice(p)
        if not patterns_isomorphic(reduced, dj_pattern_3q(f)):
            ok, detail = False, f"table {f.table}: reduction not isomorphic"
            break
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            ok, detail = False, f"table {f.table}: elapsed {elapsed:.2f}s"
            break
    _report(7, "36-qubit lattice agrees and reduces to the fixture", ok, detail)


# -- 8: sampled execution ----------------------------------------------------

def test_criterion_8_sampling():
    ok = True
    detail = ""
    cases = [(maker, f) for maker, n in ((dj_pattern_3q, 3), (dj_pattern_2q, 2),
                                         (dj_pattern_1q, 1))
             for f in enumerate_promise(n)]
    assert len(cases) == 72 + 8 + 4
    for maker, f in cases:
        out = run_sampled(maker(f), seed=2024, shots=1000)
        if out.verdict is not classify(f) or out.agreeing_shots != 1000:
            ok, detail = False, (f"n={f.n} table {f.table}: "
                                 f"{out.agreeing_shots}/1000 shots")
            break
    _report(8, "1000-shot runs of 72 + 8 + 4 variants are deterministic "
            "and correct", ok, detail)


# -- 9: erratum regression ---------------------------------------------------

def test_criterion_9_erratum():
    printed_fail = all(
        not _angles_realize_oracle(table2_function(v), table2_printed_angles(v))
        for v in ("iv", "v"))
    derived_pass = all(
        _angles_realize_oracle(f, two_qubit_spider_angles(f))
        for f in enumerate_promise(2))
    ok = printed_fail and derived_pass
    _report(9, "printed angle rows iv/v fail, derived rows pass", ok,
            f"printed_fail={printed_fail} derived_pass={derived_pass}")
