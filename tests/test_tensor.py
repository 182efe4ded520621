"""Dense contraction semantics against independently constructed matrices."""

import hashlib
import math
import random
from types import SimpleNamespace as _Factor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxdj import tensor
from zxdj.circuit import to_zx
from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram, new_diagram
from zxdj.errors import ShapeMismatchError
from zxdj.mbqc import (
    dj_pattern_2q,
    dj_pattern_3q,
    lattice_pattern_3q,
    pattern_to_diagram,
)
from zxdj.oracle import BooleanFunction, enumerate_promise
from zxdj.phase import HALF_PI, PI, Phase, QUARTER_PI, ZERO
from zxdj.rewrite import fuse_spiders
from zxdj.tensor import (
    _degree_score,
    _fill_score,
    _greedy_order,
    collapse_floor,
    elimination_order,
    equivalent_up_to_scalar,
    evaluate,
    max_intermediate_rank,
    plan_contraction,
    spider_tensor,
)

from test_diagram import diagrams, random_diagram
from test_rewrite import _random_circuit


# the Hadamard edge's matrix, from the expression evaluate builds it with,
# so that the reference contraction matches it bit for bit
_H = np.array([[1, 1], [1, -1]], dtype=complex) * math.sqrt(0.5)


def test_hadamard_is_involutive():
    # a lone Hadamard edge evaluates to H, which squares to the identity
    d = new_diagram(1, 1)
    ((eid, e),) = d.edges.items()
    d.replace_edge(eid, e.a, e.b, EdgeKind.HADAMARD)
    m = evaluate(d)
    assert np.array_equal(m, _H)
    assert np.allclose(m @ m, np.eye(2), atol=1e-15)


def test_z_spider_tensor_definition():
    # oracle: 1 at index 0...0, phase factor at 1...1, zero elsewhere
    for rank in range(1, 4):
        t = spider_tensor(SpiderKind.Z, 1j, rank)
        flat = t.reshape(-1)
        assert flat[0] == 1
        assert flat[-1] == 1j
        assert np.count_nonzero(flat) == 2


def test_x_spider_tensor_definition():
    # oracle: entry at bits b is 1 + e^{i a} (-1)^popcount(b)
    for rank in range(1, 4):
        pf = np.exp(0.3j)
        t = spider_tensor(SpiderKind.X, pf, rank).reshape(-1)
        for i, entry in enumerate(t):
            assert entry == pytest.approx(1 + pf * (-1) ** bin(i).count("1"))


def test_two_leg_z_is_phase_matrix():
    d = new_diagram(1, 1)
    d.spiders[d.inputs[0]].phase = Phase(1, 3)
    m = evaluate(d).reshape(2, 2)
    ok, _ = equivalent_up_to_scalar(m, np.diag([1, np.exp(1j * math.pi / 3)]))
    assert ok


def test_hadamard_edge_squares_to_identity():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    mid = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, mid, EdgeKind.HADAMARD)
    d.add_edge(mid, b, EdgeKind.HADAMARD)
    d.inputs, d.outputs = [a], [b]
    m = evaluate(d).reshape(2, 2)
    ok, c = equivalent_up_to_scalar(m, np.eye(2, dtype=complex))
    assert ok


def test_closed_chain_scalar():
    # Z(0)-H-Z(a0)-H-Z(a1) closed chain contracts to 1 + e^{i a1},
    # independent of a0
    for a0, a1 in [(ZERO, ZERO), (HALF_PI, PI), (QUARTER_PI, HALF_PI)]:
        d = ZxDiagram()
        v0 = d.add_spider(SpiderKind.Z, ZERO)
        v1 = d.add_spider(SpiderKind.Z, a0)
        v2 = d.add_spider(SpiderKind.Z, a1)
        d.add_edge(v0, v1, EdgeKind.HADAMARD)
        d.add_edge(v1, v2, EdgeKind.HADAMARD)
        s = complex(evaluate(d))
        assert s == pytest.approx(1 + a1.phase_factor())


def test_cnot_diagram():
    d = ZxDiagram()
    zi = d.add_spider(SpiderKind.Z)
    zc = d.add_spider(SpiderKind.Z)
    zo = d.add_spider(SpiderKind.Z)
    xi = d.add_spider(SpiderKind.Z)
    xt = d.add_spider(SpiderKind.X)
    xo = d.add_spider(SpiderKind.Z)
    for a, b in [(zi, zc), (zc, zo), (xi, xt), (xt, xo), (zc, xt)]:
        d.add_edge(a, b)
    d.inputs, d.outputs = [zi, xi], [zo, xo]
    m = evaluate(d).reshape(4, 4)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    ok, _ = equivalent_up_to_scalar(m, cnot)
    assert ok


def test_spider_color_duality():
    # an X spider equals the Z spider conjugated by Hadamard edges
    for rank in (1, 2, 3):
        for phase in (ZERO, PI, HALF_PI, QUARTER_PI):
            d1 = ZxDiagram()
            x = d1.add_spider(SpiderKind.X, phase)
            d1.outputs = [x] * rank
            d2 = ZxDiagram()
            z = d2.add_spider(SpiderKind.Z, phase)
            outs = []
            for _ in range(rank):
                cap = d2.add_spider(SpiderKind.Z, ZERO)
                d2.add_edge(z, cap, EdgeKind.HADAMARD)
                outs.append(cap)
            d2.outputs = outs
            ok, _ = equivalent_up_to_scalar(evaluate(d1), evaluate(d2))
            assert ok, (rank, phase)


def test_parallel_plain_edges_are_distinct_strands():
    # two plain strands between Z(0) and X(0) disconnect (Hopf law): the
    # composite is the rank-1 product of a Z-side |0>+|1> sum and an X-side
    # |0> column, i.e. [[2, 2], [0, 0]] as an (out, in) matrix
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.X)
    d.add_edge(a, b)
    d.add_edge(a, b)
    d.inputs, d.outputs = [a], [b]
    m = evaluate(d).reshape(2, 2)
    assert np.allclose(m, [[2, 2], [0, 0]])


def test_equivalence_edge_cases():
    z = np.zeros((2, 2), dtype=complex)
    i = np.eye(2, dtype=complex)
    assert equivalent_up_to_scalar(z, z) == (True, 1)
    ok, c = equivalent_up_to_scalar(z, i)
    assert not ok
    ok, c = equivalent_up_to_scalar(2j * np.eye(2, dtype=complex), i)
    assert ok and c == pytest.approx(2j)
    with pytest.raises(ShapeMismatchError):
        equivalent_up_to_scalar(z, np.zeros((2,), dtype=complex))


def _grid_diagram(rows, cols):
    d = ZxDiagram()
    ids = {}
    for r in range(rows):
        for c in range(cols):
            ids[r, c] = d.add_spider(SpiderKind.Z, ZERO)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                d.add_edge(ids[r, c], ids[r, c + 1], EdgeKind.HADAMARD)
            if r + 1 < rows:
                d.add_edge(ids[r, c], ids[r + 1, c], EdgeKind.HADAMARD)
    return d


def test_elimination_order_keeps_grid_rank_small():
    d = _grid_diagram(4, 4)
    order = elimination_order(d)
    assert sorted(order) == sorted(d.spiders)
    assert max_intermediate_rank(d, order) <= 8


def test_elimination_order_deterministic():
    d = _grid_diagram(3, 5)
    assert elimination_order(d) == elimination_order(d)


@given(diagrams)
@settings(max_examples=50, deadline=None)
def test_contraction_order_independence(d):
    boundary = set(d.inputs) | set(d.outputs)
    default = evaluate(d)
    reverse_order = [v for v in sorted(d.spiders, reverse=True)
                     if v not in boundary]
    alt = evaluate(d, reverse_order)
    assert np.allclose(default, alt, atol=1e-12 * max(
        1.0, float(np.abs(default).max())))


def test_collapse_floor_scales_with_spider_norms():
    d = ZxDiagram()
    d.add_spider(SpiderKind.X, ZERO)  # degree-0: max |entry| = 2
    assert collapse_floor(d) == pytest.approx(2e-9)
    assert collapse_floor(new_diagram(0, 0)) == pytest.approx(1e-9)


def _reference_collapse_floor(d):
    """The dense definition: build each spider tensor, read its max |entry|."""
    product = 1.0
    for v in d.node_ids():
        s = d.spiders[v]
        rank = d.degree(v) + d.boundary_legs(v)
        base = spider_tensor(s.kind, s.phase.phase_factor(), rank)
        product *= max(float(np.max(np.abs(base))), 1.0)
    return 1e-9 * product


def test_collapse_floor_matches_dense_reference():
    # every phase here is a multiple of pi/2: bit-identical to the dense form
    diagrams_ = [pattern_to_diagram(dj_pattern_2q(f))
                 for f in enumerate_promise(2)]
    for f in enumerate_promise(3):
        diagrams_.append(pattern_to_diagram(dj_pattern_3q(f)))
        diagrams_.append(pattern_to_diagram(lattice_pattern_3q(f)))
    assert len(diagrams_) == 152
    for d in diagrams_:
        assert collapse_floor(d) == _reference_collapse_floor(d)


def _close_in_ulps(a, b):
    # abs() and numpy's array abs may round |z| differently in the last bit
    return abs(a - b) <= 4 * np.finfo(float).eps * max(abs(a), abs(b))


def test_collapse_floor_closed_form_on_every_eighth_turn():
    for kind in SpiderKind:
        for num in range(16):
            for rank in range(4):
                d = ZxDiagram()
                v = d.add_spider(kind, Phase(num, 8))
                for _ in range(rank):
                    d.add_edge(v, d.add_spider(SpiderKind.Z), EdgeKind.PLAIN)
                assert _close_in_ulps(collapse_floor(d),
                                      _reference_collapse_floor(d))


@given(diagrams)
@settings(max_examples=60, deadline=None)
def test_collapse_floor_matches_dense_reference_on_random_diagrams(d):
    assert _close_in_ulps(collapse_floor(d), _reference_collapse_floor(d))


# -- the planner against the loops it replaced ---------------------------------

def _reference_merge(f1, f2):
    shared = [lab for lab in f1.labels if lab in f2.labels]
    ax1 = [f1.labels.index(lab) for lab in shared]
    ax2 = [f2.labels.index(lab) for lab in shared]
    data = np.tensordot(f1.data, f2.data, axes=(ax1, ax2))
    labels = [lab for lab in f1.labels if lab not in shared] + [
        lab for lab in f2.labels if lab not in shared]
    return _Factor(data=data, labels=labels)


def _reference_factors(d):
    factors = {}
    for v in d.node_ids():
        s = d.spiders[v]
        labels = [("e", eid) for eid in d.edges_at(v)]
        labels += [("in", i) for i, b in enumerate(d.inputs) if b == v]
        labels += [("out", i) for i, b in enumerate(d.outputs) if b == v]
        data = spider_tensor(s.kind, s.phase.phase_factor(), len(labels))
        factors[v] = _Factor(data=data, labels=labels)
    for eid, e in sorted(d.edges.items()):
        if e.kind is EdgeKind.HADAMARD:
            f = factors[min(e.a, e.b)]
            axis = f.labels.index(("e", eid))
            f.data = np.moveaxis(
                np.tensordot(f.data, _H, axes=([axis], [0])), -1, axis)
    return factors


def _reference_contraction(d, order):
    """The tensor-materializing merge loop the planner replaced, on
    np.tensordot: merge along each eliminated spider's edges, then fold the
    rest in id order.  Returns the result factor and the largest ndim seen."""
    pool = _reference_factors(d)
    merged_into = {}

    def find(v):
        while v in merged_into:
            v = merged_into[v]
        return v

    best = max((f.data.ndim for f in pool.values()), default=0)
    for v in order:
        for eid in d.edges_at(v):
            e = d.edges[eid]
            ka, kb = find(e.a), find(e.b)
            if ka == kb:
                continue
            fa, fb = pool.pop(ka), pool.pop(kb)
            pool[ka] = _reference_merge(fa, fb)
            merged_into[kb] = ka
            best = max(best, pool[ka].data.ndim)
    keys = sorted(pool)
    result = pool[keys[0]] if keys else None
    for k in keys[1:]:
        result = _reference_merge(result, pool[k])
        best = max(best, result.data.ndim)
    return result, best


def _reference_greedy_order(d, score):
    """Greedy elimination that rescans every remaining spider per step."""
    boundary = set(d.inputs) | set(d.outputs)
    adj = {v: set() for v in d.spiders}
    for e in d.edges.values():
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    remaining = set(v for v in d.spiders if v not in boundary)
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (*score(u, adj), u))
        order.append(v)
        remaining.discard(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        for u in nbrs:
            for w in nbrs:
                if u != w:
                    adj[u].add(w)
    return order


def _reference_fill(u, adj):
    nbrs = sorted(adj[u])
    missing = sum(1 for i, a in enumerate(nbrs)
                  for b in nbrs[i + 1:] if b not in adj[a])
    return (missing, len(nbrs))


def _assert_plan_matches_reference(d):
    for order in (elimination_order(d), None):
        plan = plan_contraction(d, order)
        result, best = _reference_contraction(d, plan.order)
        assert plan.peak_rank == best
        assert max_intermediate_rank(d, order) == best
        assert len(plan.merges) == max(len(d.spiders) - 1, 0)
        if result is not None:
            # the same products in the same order: bit-identical numbers
            t = evaluate(d, order)
            perm = [result.labels.index(("out", i)) for i in range(len(d.outputs))]
            perm += [result.labels.index(("in", i)) for i in range(len(d.inputs))]
            assert np.array_equal(t, np.transpose(result.data, perm))


def _internal(d):
    return [v for v in sorted(d.spiders) if v not in d.inputs + d.outputs]


def _assert_greedy_matches_reference(d):
    assert _greedy_order(d, _internal(d), _degree_score) == (
        _reference_greedy_order(d, lambda u, adj: (len(adj[u]),)))
    assert _greedy_order(d, _internal(d), _fill_score) == (
        _reference_greedy_order(d, _reference_fill))


@given(diagrams)
@settings(max_examples=80, deadline=None)
def test_plan_matches_reference_contraction(d):
    _assert_plan_matches_reference(d)
    _assert_greedy_matches_reference(d)


def test_plan_and_orders_on_pattern_and_lattice():
    f = BooleanFunction(3, 0)
    pattern = pattern_to_diagram(dj_pattern_3q(f))
    lattice = pattern_to_diagram(lattice_pattern_3q(f))
    for d in (pattern, lattice, _grid_diagram(4, 4)):
        _assert_plan_matches_reference(d)
        _assert_greedy_matches_reference(d)
    assert elimination_order(pattern) == [0, 4, 5, 1, 3, 6, 7, 8, 2, 9, 10]
    assert plan_contraction(pattern).peak_rank == 3
    # both greedy orders lose on the lattice, so ascending ids win
    assert elimination_order(lattice) == list(range(48))
    assert plan_contraction(lattice).peak_rank == 11
    for score in (_degree_score, _fill_score):
        greedy = _greedy_order(lattice, list(range(48)), score)
        assert plan_contraction(lattice, greedy).peak_rank > 11


# -- evaluate against the reference and the pinned digest ----------------------

@given(diagrams)
@settings(max_examples=80, deadline=None)
def test_evaluate_is_bit_identical_to_the_reference_contraction(d):
    boundary = set(d.inputs) | set(d.outputs)
    for order in (None, [v for v in sorted(d.spiders, reverse=True)
                         if v not in boundary]):
        t = evaluate(d, order)
        result, _ = _reference_contraction(d, plan_contraction(d, order).order)
        perm = [result.labels.index(("out", i)) for i in range(len(d.outputs))]
        perm += [result.labels.index(("in", i)) for i in range(len(d.inputs))]
        assert np.array_equal(t, np.transpose(result.data, perm))


def _seeded_diagram(rng, max_spiders=8, max_boundary=2):
    """``test_diagram.random_diagram`` drawn from a ``random.Random``."""
    d = ZxDiagram()
    n = rng.randint(1, max_spiders)
    for _ in range(n):
        d.add_spider(rng.choice([SpiderKind.Z, SpiderKind.X]),
                     Phase(rng.randrange(8), 4))
    ids = sorted(d.spiders)
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            d.add_edge(a, b, rng.choice([EdgeKind.PLAIN, EdgeKind.HADAMARD]))
    d.inputs = [rng.choice(ids) for _ in range(rng.randint(0, max_boundary))]
    d.outputs = [rng.choice(ids) for _ in range(rng.randint(0, max_boundary))]
    return d


# SHA-256 of the shapes and bytes evaluate returns in the test below, last
# retaken when pattern_to_diagram began to add edges in ascending pair
# order, which changes the order of the lattice's and the eleven-qubit
# pattern's floating-point products.  It holds for one numpy and BLAS build:
# another may round a product differently in the last bit, and then the
# digest is retaken from the same build.
EVALUATE_DIGEST = (
    "8921dce80eeb2b6334ef79c90c8fc772994766c2bdf3ce6ddadc729ad15d4d2c")


def test_evaluate_keeps_the_pinned_digest():
    cases = []
    for f in enumerate_promise(3):
        cases.append((pattern_to_diagram(lattice_pattern_3q(f)), None))
        cases.append((pattern_to_diagram(dj_pattern_3q(f)), None))
    rng = random.Random(2024)
    for _ in range(300):
        d = _seeded_diagram(rng)
        boundary = set(d.inputs) | set(d.outputs)
        cases.append((d, None))
        cases.append((d, [v for v in sorted(d.spiders, reverse=True)
                          if v not in boundary]))
    for _ in range(100):
        cases.append((to_zx(_random_circuit(rng, 4, 12)), None))
    digest = hashlib.sha256()
    for d, order in cases:
        data = evaluate(d, order)
        digest.update(repr(data.shape).encode())
        digest.update(data.tobytes())
    assert digest.hexdigest() == EVALUATE_DIGEST


def _mutable_diagram():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.Z, QUARTER_PI)
    c = d.add_spider(SpiderKind.X, PI)
    e = d.add_spider(SpiderKind.Z, ZERO)
    d.add_edge(a, b, EdgeKind.PLAIN)
    d.add_edge(b, c, EdgeKind.HADAMARD)
    d.add_edge(c, e, EdgeKind.PLAIN)
    d.outputs = [e]
    return d, (a, b, c, e)


def test_mutation_after_evaluate_gets_a_fresh_plan():
    d, (a, b, c, e) = _mutable_diagram()
    mutations = [
        lambda: d.add_edge(a, c, EdgeKind.HADAMARD),
        lambda: fuse_spiders(d, a, b),
        lambda: d.inputs.append(c),
        lambda: d.outputs.append(e),
    ]
    for mutate in mutations:
        before = evaluate(d)
        mutate()
        after = evaluate(d)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, evaluate(d.copy()))


def test_elimination_order_returns_a_fresh_list():
    d = _grid_diagram(3, 4)
    first = elimination_order(d)
    expected = list(first)
    first.reverse()
    first.append(99)
    assert elimination_order(d) == expected
    assert elimination_order(d) is not elimination_order(d)


def test_default_evaluate_plans_each_candidate_once(monkeypatch):
    f = BooleanFunction(3, 0)
    calls = []
    real = tensor.plan_contraction
    monkeypatch.setattr(tensor, "plan_contraction", lambda d, order=None: (
        calls.append(order), real(d, order))[1])
    for d in (pattern_to_diagram(dj_pattern_3q(f)),
              pattern_to_diagram(lattice_pattern_3q(f)), _grid_diagram(4, 4)):
        calls.clear()
        t = evaluate(d)
        # the three candidate orders, and the winner is not planned again
        assert len(calls) == 3 and None not in calls
        order = elimination_order(d)
        assert order in calls
        calls.clear()
        assert np.array_equal(t, evaluate(d, order))
        assert calls == [order]
