"""Rewrite rules: targeted examples, soundness, involutions."""

import copy
import importlib
import itertools
import pickle
import pkgutil
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from zxdj.diagram import (
    _STATE, EdgeKind, SpiderKind, ZxDiagram, new_diagram)
from zxdj.errors import (
    KindMismatchError,
    NotAdjacentError,
    NotGraphLikeError,
    PreconditionFailed,
    NoFlowError,
    ReductionStuckError,
    UnknownNodeError,
    WouldSelfLoopError,
)
import zxdj
from zxdj import circuit, mbqc, rewrite
from zxdj.circuit import (
    Circuit, cnot, hadamard, pauli_z, phase_gate, to_zx, to_zx_tracked)
from zxdj.mbqc import (
    MeasurementPattern, lattice_pattern_3q, pattern_from_graph_like,
    reduce_lattice, run_postselected, run_sampled)
from zxdj.oracle import BooleanFunction, enumerate_promise, oracle_circuit_3q
from zxdj.phase import HALF_PI, MINUS_HALF_PI, PI, Phase, QUARTER_PI, ZERO
from zxdj.rewrite import (
    MEMO_SHAPES,
    RewriteStep,
    collapse_hadamard_chain,
    color_change,
    decouple_x_state,
    expand_hadamard_edge,
    fuse_spiders,
    hadamard_cancel,
    local_complement,
    plug_plus_states,
    simplify_mbqc,
    to_graph_like,
)
from zxdj.tensor import equivalent_up_to_scalar, evaluate

from conftest import MEMOS
from test_diagram import diagrams


def assert_sound(before, after, context=""):
    t1, t2 = evaluate(before), evaluate(after)
    ok, c = equivalent_up_to_scalar(t1, t2)
    assert ok, f"tensor changed {context}: scale fit {c}"


# -- targeted behaviors ------------------------------------------------------

def test_fuse_adds_phases():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.Z, HALF_PI)
    d.add_edge(a, b)
    before = d.copy()
    fuse_spiders(d, a, b)
    assert d.spiders[a].phase == PI
    assert b not in d.spiders
    assert_sound(before, d)


def test_fuse_guards():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.X)
    c = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b)
    d.add_edge(a, c, EdgeKind.HADAMARD)
    with pytest.raises(KindMismatchError):
        fuse_spiders(d, a, b)
    with pytest.raises(NotAdjacentError):
        fuse_spiders(d, a, c)  # only a Hadamard edge between them
    d.add_edge(a, c)
    with pytest.raises(WouldSelfLoopError):
        fuse_spiders(d, a, c)  # mixed plain+Hadamard would self-loop
    with pytest.raises(UnknownNodeError):
        fuse_spiders(d, a, 99)


def test_color_change_toggles_node_and_edges():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.X, HALF_PI)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.PLAIN)
    before = d.copy()
    color_change(d, a)
    assert d.spiders[a].kind is SpiderKind.Z
    assert d.edges[0].kind is EdgeKind.HADAMARD
    assert_sound(before, d)


def test_color_change_detaches_boundary():
    d = new_diagram(1, 1)
    v = d.inputs[0]
    before = d.copy()
    step = color_change(d, v)
    assert d.inputs[0] != v  # a stub took the boundary slot
    assert len(step.after) == 2
    assert_sound(before, d)


def test_color_change_is_structural_involution():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.X, HALF_PI)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    snapshot = d.to_json()
    color_change(d, a)
    color_change(d, a)
    assert d.to_json() == snapshot


def test_hadamard_cancel():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    mid = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, mid, EdgeKind.HADAMARD)
    d.add_edge(mid, b, EdgeKind.HADAMARD)
    d.inputs, d.outputs = [a], [b]
    before = d.copy()
    hadamard_cancel(d, mid)
    assert mid not in d.spiders
    (eid,) = d.edges_between(a, b)
    assert d.edges[eid].kind is EdgeKind.PLAIN
    assert_sound(before, d)


def test_hadamard_cancel_guards():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    with pytest.raises(PreconditionFailed):
        hadamard_cancel(d, a)  # nonzero phase
    with pytest.raises(PreconditionFailed):
        hadamard_cancel(d, b)  # degree 1


def test_expand_collapse_round_trip():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, Phase(1, 3))
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    d.inputs, d.outputs = [a], [b]
    snapshot = d.to_json()
    before = d.copy()
    step = expand_hadamard_edge(d, 0)
    assert_sound(before, d, "after expand")
    z1, x, z2 = step.after
    collapse_hadamard_chain(d, z1, x, z2)
    assert d.to_json_dict()["spiders"] == before.to_json_dict()["spiders"]
    assert_sound(before, d, "after round trip")


def test_collapse_guards():
    d = ZxDiagram()
    ids = [d.add_spider(SpiderKind.Z, HALF_PI) for _ in range(3)]
    with pytest.raises(PreconditionFailed):
        collapse_hadamard_chain(d, *ids)  # no edges, wrong kinds


def test_decouple_x_state():
    # X(0) state plugged into Z(alpha): neighbor legs receive basis caps
    d = ZxDiagram()
    x = d.add_spider(SpiderKind.X, ZERO)
    z = d.add_spider(SpiderKind.Z, HALF_PI)
    p = d.add_spider(SpiderKind.Z)
    h = d.add_spider(SpiderKind.Z)
    d.add_edge(x, z)
    d.add_edge(z, p, EdgeKind.PLAIN)
    d.add_edge(z, h, EdgeKind.HADAMARD)
    d.inputs, d.outputs = [p], [h]
    before = d.copy()
    step = decouple_x_state(d, x)
    assert x not in d.spiders and z not in d.spiders
    caps = step.after
    kinds = sorted(d.spiders[c].kind.value for c in caps)
    assert kinds == ["X", "Z"]  # plain leg -> X cap, Hadamard leg -> Z cap
    assert_sound(before, d)


def test_decouple_guards():
    d = ZxDiagram()
    x = d.add_spider(SpiderKind.X, HALF_PI)
    z = d.add_spider(SpiderKind.Z)
    d.add_edge(x, z)
    with pytest.raises(PreconditionFailed):
        decouple_x_state(d, x)  # nonzero phase


def _graph_state(n_nodes, edges, phases):
    d = ZxDiagram()
    ids = [d.add_spider(SpiderKind.Z, p) for p in phases]
    for a, b in edges:
        d.add_edge(ids[a], ids[b], EdgeKind.HADAMARD)
    return d, ids


def test_local_complement_triangle():
    # pivot with three neighbors: the neighborhood triangle inverts
    d, ids = _graph_state(
        4, [(0, 1), (0, 2), (0, 3), (1, 2)],
        [HALF_PI, ZERO, PI, HALF_PI])
    before = d.copy()
    local_complement(d, ids[0])
    assert ids[0] not in d.spiders
    assert not d.edges_between(ids[1], ids[2])       # removed
    assert d.edges_between(ids[1], ids[3])           # added
    assert d.edges_between(ids[2], ids[3])           # added
    assert d.spiders[ids[1]].phase == MINUS_HALF_PI  # 0 - pi/2
    assert_sound(before, d)


def test_local_complement_guards():
    d, ids = _graph_state(2, [(0, 1)], [PI, ZERO])
    with pytest.raises(PreconditionFailed):
        local_complement(d, ids[0])  # phase is pi, not +-pi/2


# -- pipeline ---------------------------------------------------------------

def test_to_graph_like_properties():
    rng = random.Random(11)
    for _ in range(25):
        d = _random_circuit_like(rng)
        g = to_graph_like(d)
        for s in g.spiders.values():
            assert s.kind is SpiderKind.Z
        # no parallel Hadamard pairs between the same nodes
        seen = {}
        for e in g.edges.values():
            if e.kind is EdgeKind.HADAMARD:
                key = frozenset((e.a, e.b))
                assert key not in seen, "parallel Hadamard pair survived"
                seen[key] = True
        assert_sound(d, g)


def test_plug_plus_states_closes():
    d = new_diagram(2, 2)
    g = plug_plus_states(d)
    assert g.is_closed()
    assert len(g.spiders) == len(d.spiders) + 4


def test_simplify_mbqc_empty():
    d = ZxDiagram()
    out, steps = simplify_mbqc(d)
    assert not out.spiders and not steps


def _random_circuit(rng, max_width=3, max_gates=6):
    w = rng.randint(1, max_width)
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        kind = rng.choice(["phase", "h", "cnot"]) if w > 1 else \
            rng.choice(["phase", "h"])
        if kind == "phase":
            gates.append(phase_gate(rng.randrange(w), Phase(rng.randrange(8), 4)))
        elif kind == "h":
            gates.append(hadamard(rng.randrange(w)))
        else:
            a, b = rng.sample(range(w), 2)
            gates.append(cnot(a, b))
    return Circuit(w, gates)


def _random_circuit_like(rng):
    return to_zx(_random_circuit(rng))


def test_simplify_mbqc_preserves_scalar():
    rng = random.Random(5)
    for _ in range(20):
        d = _random_circuit_like(rng)
        closed = plug_plus_states(d)
        out, steps = simplify_mbqc(d)
        assert out.is_closed()
        assert_sound(closed, out)


def test_simplify_mbqc_random_circuit_sweep():
    # a Hadamard wire whose two ends already share a Hadamard edge used to be
    # cancelled, and the fusion that followed raised WouldSelfLoopError
    rng = random.Random(7)
    for _ in range(400):
        d, carriers = to_zx_tracked(_random_circuit(rng, 4, 12))
        closed = plug_plus_states(d)
        for protected in (frozenset(), frozenset(carriers)):
            out, _ = simplify_mbqc(d, protected)
            assert_sound(closed, out)


def _assert_fixpoint(d, protected):
    """Run ``simplify_core`` on ``d``; no rule may still apply at any of the
    spiders it leaves."""
    _, formulas = rewrite.simplify_core(d, protected)
    held = {u: list(ps) for u, _, ps in formulas}
    for _, rule in rewrite._RULES:
        for v in sorted(d.spiders):
            assert rule(d.copy(), v, held, []) is None


def test_simplified_circuits_are_fixpoints():
    # the driver stops only when a scan of every spider finds no rule that
    # applies; check the result on random circuits and on the lattice
    rng = random.Random(11)
    for _ in range(100):
        d, carriers = to_zx_tracked(_random_circuit(rng, 4, 12))
        for protected in (set(), set(carriers)):
            _assert_fixpoint(d.copy(), protected)
    lattice = mbqc.pattern_to_diagram(lattice_pattern_3q(BooleanFunction(3, 0)))
    _assert_fixpoint(lattice, set(mbqc._LATTICE_CARRIER_IDS))


@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_simplified_diagrams_are_fixpoints(d, rng):
    _assert_fixpoint(d, {v for v in d.spiders if rng.random() < 0.5})


def _replayed_formulas(d, inputs, steps):
    """The phase formulas as they were read before the simplifier tracked
    its carriers itself, kept as the reference: follow each protected input
    through the trace's fusions to the spider it ends in; the constant is
    what that survivor holds beyond the inputs."""
    merged_into = {s.before[1]: s.before[0] for s in steps
                   if s.rule == "fuse_spiders"}
    groups: dict[int, list[int]] = {}
    for p in sorted(inputs):
        v = p
        while v in merged_into:
            v = merged_into[v]
        groups.setdefault(v, []).append(p)
    formulas = []
    for v, ps in groups.items():
        constant = d.spiders[v].phase
        for p in ps:
            constant = constant - inputs[p]
        formulas.append((v, constant, tuple(ps)))
    return tuple(formulas)


def _assert_formulas_match_the_replay(d, protected):
    """Run ``simplify_core`` on ``d``; it leaves ``protected`` as it was and
    gives the formulas the trace replay gives."""
    inputs = {p: d.spiders[p].phase for p in protected if p in d.spiders}
    before = set(protected)
    steps, formulas = rewrite.simplify_core(d, protected)
    assert protected == before
    assert formulas == _replayed_formulas(d, inputs, steps)
    return formulas


def test_simplify_core_formulas_match_the_trace_replay():
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        formulas = _assert_formulas_match_the_replay(d, set(carriers))
        assert sorted(p for _, _, ps in formulas for p in ps) == sorted(carriers)
        p = lattice_pattern_3q(f)
        formulas = _assert_formulas_match_the_replay(
            mbqc.pattern_to_diagram(p), set(mbqc._LATTICE_CARRIER_IDS))
        assert len(formulas) == 7
        # carrier (6, 1) fuses into the spare at pi
        p = replace(p, angles={**p.angles, mbqc._grid_id((3, 1)): PI})
        formulas = _assert_formulas_match_the_replay(
            mbqc.pattern_to_diagram(p), set(mbqc._LATTICE_CARRIER_IDS))
        assert mbqc._grid_id((3, 1)) in {v for v, _, _ in formulas}


@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_simplify_core_formulas_match_the_trace_replay_on_any_diagram(d, rng):
    _assert_formulas_match_the_replay(
        d, {v for v in d.spiders if rng.random() < 0.5})


def _unblocked_wire(step):
    """A phase-0 wire w between carriers a and c, blocked by an a - c edge
    that a later step at a higher id removes: a local complementation at a
    +-pi/2 wire, or a Hadamard-wire cancellation whose fusion doubles the
    a - c edge into a Hopf pair.  Returns the diagram, the carriers and w."""
    q = Phase(1, 4)
    if step == "local_complement":
        d, (a, w, c, _) = _graph_state(
            4, [(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)], [q, ZERO, q, HALF_PI])
        return d, {a, c}, w
    d, (a, w, c, _, b) = _graph_state(
        5, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 2), (4, 2)],
        [q, ZERO, q, ZERO, q])
    return d, {a, b, c}, w


@pytest.mark.parametrize("step", ["local_complement", "hadamard_cancel"])
def test_worklist_requeues_a_wire_a_step_unblocks(step):
    d, protected, w = _unblocked_wire(step)
    out, steps = simplify_mbqc(d, frozenset(protected))
    assert step in [s.rule for s in steps]
    assert steps[-2].rule == "hadamard_cancel" and steps[-2].before[0] == w
    assert w not in out.spiders
    assert_sound(d, out)


def _wire(phase):
    """A closed Hadamard wire a - v - b with phase-carrying ends."""
    d, ids = _graph_state(3, [(0, 1), (1, 2)], [Phase(1, 4), phase, Phase(1, 3)])
    return d, ids[1]


@pytest.mark.parametrize("phase", [HALF_PI, MINUS_HALF_PI])
def test_protected_clifford_wire_is_never_complemented(phase):
    d, v = _wire(phase)
    out, steps = simplify_mbqc(d, frozenset({v}))
    assert not steps
    assert out.to_json() == d.to_json()
    out, steps = simplify_mbqc(d)  # unprotected, the wire is removed
    assert [s.rule for s in steps] == ["local_complement"]
    assert v not in out.spiders
    assert_sound(d, out)


def _restarting_fuse_all_plain(d, live, steps):
    """The fusion loop before the one-pass version: restart the edge scan
    after every fusion."""
    while True:
        plain = [e for _, e in sorted(d.edges.items())
                 if e.kind is EdgeKind.PLAIN
                 and d.spiders[e.a].kind is d.spiders[e.b].kind]
        if not plain:
            return
        a, b = sorted((plain[0].a, plain[0].b))
        steps.append(fuse_spiders(d, a, b))
        if b in live:
            live.discard(b)
            live.add(a)


def _scanning_hopf_pairs(d, steps):
    """The first parallel-Hadamard pass, kept as a reference: scan every
    edge."""
    seen = set()
    for eid in sorted(d.edges):
        e = d.edges.get(eid)
        if e is None:
            continue
        pair = (min(e.a, e.b), max(e.a, e.b))
        if pair in seen:
            continue
        seen.add(pair)
        hadamards = [x for x in d.edges_between(*pair)
                     if d.edges[x].kind is EdgeKind.HADAMARD]
        while len(hadamards) >= 2:
            d.remove_edge(hadamards.pop())
            d.remove_edge(hadamards.pop())
            steps.append(RewriteStep("hopf_pair", pair, pair))


def _rescanning_simplify(d, protected):
    """The simplifier's first form, kept as a reference: after the
    graph-like pass, restart a scan from the lowest spider id after every
    rule, trailing caps before Hadamard wires (which skip a wire whose ends
    already share an edge).  It has no Clifford-wire rule."""
    result, live, steps = d.copy(), set(protected), []
    if not result.is_closed():
        rewrite._plug_inplace(result, steps)
    for v in sorted(result.spiders):
        if result.spiders[v].kind is SpiderKind.X:
            steps.append(color_change(result, v))
    _restarting_fuse_all_plain(result, live, steps)
    _scanning_hopf_pairs(result, steps)

    def trailing_cap():
        for v in sorted(result.spiders):
            s = result.spiders[v]
            if (v in live or s.kind is not SpiderKind.Z
                    or not s.phase.is_zero() or result.degree(v) != 1):
                continue
            e = result.edges[result.edges_at(v)[0]]
            if e.kind is EdgeKind.HADAMARD and e.other(v) not in live:
                steps.append(color_change(result, v))
                steps.append(decouple_x_state(result, v))
                _restarting_fuse_all_plain(result, live, steps)
                return True
        return False

    def hadamard_wire():
        for v in sorted(result.spiders):
            s = result.spiders[v]
            if (v in live or s.kind is not SpiderKind.Z
                    or not s.phase.is_zero() or result.degree(v) != 2):
                continue
            e1, e2 = (result.edges[e] for e in result.edges_at(v))
            n1, n2 = e1.other(v), e2.other(v)
            if (e1.kind is not EdgeKind.HADAMARD
                    or e2.kind is not EdgeKind.HADAMARD
                    or n1 == n2 or result.edges_between(n1, n2)):
                continue
            steps.append(hadamard_cancel(result, v))
            _restarting_fuse_all_plain(result, live, steps)
            _scanning_hopf_pairs(result, steps)
            return True
        return False

    while trailing_cap() or hadamard_wire():
        pass
    return result, steps


def test_worklist_matches_the_rescanning_loops(monkeypatch, cold_memos):
    # without the Clifford-wire rule, the driver must pick the same rule
    # at the same spider as the hand-written per-rule scans, step by step;
    # cold memos keep results of the full rule set from being replayed,
    # and keep this test's from outliving it
    monkeypatch.setattr(rewrite, "_RULES", rewrite._RULES[:2])
    rng = random.Random(3)
    for _ in range(150):
        d, carriers = to_zx_tracked(_random_circuit(rng, 4, 12))
        for protected in (frozenset(), frozenset(carriers)):
            out, steps = simplify_mbqc(d, protected)
            ref, ref_steps = _rescanning_simplify(d, protected)
            assert steps == ref_steps
            assert out.to_json() == ref.to_json()


@given(diagrams)
@settings(max_examples=80, deadline=None)
def test_one_fusion_pass_matches_restarting_scans(d):
    ref, ref_steps = d.copy(), []
    try:
        _restarting_fuse_all_plain(ref, set(), ref_steps)
    except WouldSelfLoopError:
        # a Hadamard edge parallel to a fused plain edge: the simplifier
        # absorbs it as a pi phase, which the soundness tests below check
        return
    steps: list[RewriteStep] = []
    rewrite._fuse_all_plain(d, set(), steps)
    assert steps == ref_steps
    assert d.to_json() == ref.to_json()


# -- randomized soundness over arbitrary diagrams ---------------------------

@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_rule_applications_sound(d, rng):
    before = d.copy()
    applied = False
    nodes = sorted(d.spiders)
    v = rng.choice(nodes)
    choice = rng.randrange(3)
    try:
        if choice == 0:
            color_change(d, v)
            applied = True
        elif choice == 1:
            u = rng.choice(nodes)
            fuse_spiders(d, v, u)
            applied = True
        else:
            hadamard_cancel(d, v)
            applied = True
    except (PreconditionFailed, KindMismatchError, NotAdjacentError,
            WouldSelfLoopError, UnknownNodeError):
        pass
    if applied:
        assert_sound(before, d)


# -- the rewrite records ------------------------------------------------------

def _simplified(d, protected):
    """``simplify_mbqc``'s diagram and trace, in comparable form."""
    out, steps = simplify_mbqc(d, frozenset(protected))
    return (out.to_json(), out._next_node, out._next_edge), steps


def _cold(d, protected):
    """simplify_core's diagram and trace on a copy of ``d``, in the form
    of ``_simplified``."""
    d = d.copy()
    steps, _ = rewrite.simplify_core(d, frozenset(protected))
    return (d.to_json(), d._next_node, d._next_edge), steps


def _rephased(c, rng):
    """``c`` with each phase gate at a random multiple of pi/4."""
    return Circuit(c.width, [
        phase_gate(g.qubits[0], Phase(rng.randrange(8), 4))
        if g.op == "phase" else g for g in c.gates])


def test_memo_hit_equals_a_cold_run(cold_memos):
    # a circuit of a known shape takes the rewrite record of its
    # translation's record, and evaluates the phase formulas on its own
    # phases; it must leave what the rule search would leave
    rng = random.Random(17)
    hits = 0
    for _ in range(200):
        c = _random_circuit(rng, 4, 12)
        rewrite._rewrite.cache_clear()
        _simplified(*to_zx_tracked(c))
        d, carriers = to_zx_tracked(_rephased(c, rng))
        hit = _simplified(d, carriers)
        assert rewrite._rewrite.cache_info()[:2] == (1, 1)
        assert hit == _cold(d, carriers)
        hits += any(g.op == "phase" for g in c.gates)
    assert hits > 150


def test_memo_hit_is_sound(cold_memos):
    rng = random.Random(19)
    for _ in range(30):
        c = _random_circuit(rng, 3, 10)
        d, carriers = to_zx_tracked(c)
        simplify_mbqc(d, frozenset(carriers))
        d, carriers = to_zx_tracked(_rephased(c, rng))
        out, _ = simplify_mbqc(d, frozenset(carriers))
        assert_sound(plug_plus_states(d), out)


def _count_searches(monkeypatch):
    """Count the rule searches simplify_mbqc starts."""
    calls = []
    drive = rewrite._drive

    def counting(*args):
        calls.append(1)
        return drive(*args)

    monkeypatch.setattr(rewrite, "_drive", counting)
    return calls


def test_memo_key_holds_what_the_rules_read(monkeypatch, cold_memos):
    # a view takes its record's rewrite, by protected set, only where no
    # rule can read a phase it sets and only while its state is unbuilt
    searches = _count_searches(monkeypatch)
    c = Circuit(2, [phase_gate(0, Phase(1, 4)), cnot(0, 1),
                    phase_gate(1, ZERO), hadamard(1), phase_gate(1, HALF_PI)])
    d, carriers = to_zx_tracked(c)
    protected = frozenset(carriers)
    plain = next(v for v in sorted(d.spiders) if v not in carriers)

    def run(d, protected):
        searches.clear()
        got = _simplified(d, protected)
        count = len(searches)
        assert got == _cold(d, protected)
        return count

    def view():
        return to_zx_tracked(c)[0]

    assert run(view(), protected) > 0
    assert run(view(), protected) == 0  # a hit
    # the first phase gate's pi/4 is unprotected: the rules read it
    assert run(view(), protected - {carriers[0]}) > 0
    assert run(view(), protected - {carriers[0]}) > 0
    built = view()
    built.spiders[carriers[0]].phase = PI  # a write builds the state
    assert run(built, protected) > 0
    built = view()
    built.inputs = built.inputs[::-1]
    assert run(built, protected) > 0
    assert run(view(), protected | {plain}) > 0  # another protected set
    assert run(view(), protected | {plain}) == 0
    # the two protected sets the views took the record with
    assert rewrite._rewrite.cache_info()[1:] == (2, MEMO_SHAPES, 2)


def test_memo_key_holds_the_protected_set(cold_memos):
    c = Circuit(1, [hadamard(0), pauli_z(0), hadamard(0), pauli_z(0),
                    hadamard(0)])
    d, (a, b) = to_zx_tracked(c)
    first = _simplified(d, {a})
    second = _simplified(to_zx_tracked(c)[0], {b})
    assert second == _cold(d, {b}) and second != first
    assert rewrite._rewrite.cache_info().misses == 2


# A one-wire circuit of Z gates, whose spiders 0..MEMO_SHAPES + 11 each
# protect differently.
_Z_CHAIN = Circuit(1, [pauli_z(0)] * (MEMO_SHAPES + 10))
# Readout choices of the reduced oracle diagram: each spider, then each
# ordered pair.
_ORACLE = oracle_circuit_3q(BooleanFunction(3, 0b01101001))
_ORACLE_SPIDERS = sorted(simplify_mbqc(
    *to_zx_tracked(_ORACLE))[0].copy().spiders)
_READOUT_CHOICES = [(q,) for q in _ORACLE_SPIDERS] + list(
    itertools.permutations(_ORACLE_SPIDERS, 2))
# Sets of lattice carriers: a pattern of them, unjoined, reduces to itself.
_CARRIER_SETS = [
    [q for j, q in enumerate(sorted(mbqc._LATTICE_CARRIER_IDS)) if i >> j & 1]
    for i in range(1, 1 << len(mbqc._LATTICE_CARRIER_IDS))]


def _chain(n):
    """An n-qubit path at angle 0, read out at its last qubit."""
    return MeasurementPattern(dict.fromkeys(range(n), ZERO),
                              {frozenset((q, q + 1)) for q in range(n - 1)},
                              [n - 1])


def _translated(i):
    d, carriers = to_zx_tracked(Circuit(i + 1, [phase_gate(i, PI)]))
    return d.to_json(), carriers


def _read_out(i):
    d, carriers = to_zx_tracked(_ORACLE)
    reduced, _ = simplify_mbqc(d, frozenset(carriers))
    return pattern_from_graph_like(reduced, _READOUT_CHOICES[i])


def _stuck_lattice():
    # grid position (2, 5) must hold -pi/2; at pi it survives with degree 2
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    return replace(p, angles={**p.angles, mbqc._grid_id((2, 5)): PI})


def _refused_rewrite(monkeypatch):
    def refuse(*args):
        raise PreconditionFailed("refused")

    monkeypatch.setattr(rewrite, "_drive", refuse)
    simplify_mbqc(*to_zx_tracked(Circuit(1, [pauli_z(0)])))


# Each memo by name (conftest.MEMOS): a call that misses it with a new key
# for each i below MEMO_SHAPES + 10, in a form a cold run can be compared
# with; a call whose build raises, given monkeypatch; and what it raises.
# The translation and exact builders raise only on a key no caller makes.
_MEMO_CALLS = {
    "zx": (_translated,
           lambda m: circuit._translate(1, (("phase", (1,)),)), IndexError),
    "rewrite": (lambda i: _simplified(to_zx_tracked(_Z_CHAIN)[0], {i}),
                _refused_rewrite, PreconditionFailed),
    "template": (_read_out, lambda m: pattern_from_graph_like(
        to_zx_tracked(_ORACLE)[0]), NotGraphLikeError),
    "exact": (lambda i: run_postselected(_chain(i + 1)),
              lambda m: mbqc._prelude(mbqc._Shape(
                  (0, 1, 2), frozenset({frozenset((0, 1, 2))}), (),
                  frozenset())), ValueError),
    "flow": (lambda i: run_sampled(_chain(i + 1), shots=5),
             lambda m: run_sampled(replace(_chain(3), readouts=[1])),
             NoFlowError),
    "lattice": (lambda i: reduce_lattice(MeasurementPattern(
        dict.fromkeys(_CARRIER_SETS[i], ZERO), set(), [])),
                lambda m: reduce_lattice(_stuck_lattice()),
                ReductionStuckError),
}


@pytest.mark.parametrize("name", _MEMO_CALLS)
def test_every_memo_stays_within_memo_shapes(cold_memos, name):
    memo, (call, _, _) = MEMOS[name], _MEMO_CALLS[name]
    assert memo.cache_info().maxsize == MEMO_SHAPES
    for i in range(MEMO_SHAPES + 10):
        call(i)
        assert memo.cache_info()[1:] == (
            i + 1, MEMO_SHAPES, min(i + 1, MEMO_SHAPES))
    # the least recently used key went first
    call(MEMO_SHAPES + 9)
    assert memo.cache_info().misses == MEMO_SHAPES + 10
    call(0)
    assert memo.cache_info().misses == MEMO_SHAPES + 11


@pytest.mark.parametrize("name", _MEMO_CALLS)
def test_every_memo_hit_equals_a_cold_run(cold_memos, name):
    memo, (call, _, _) = MEMOS[name], _MEMO_CALLS[name]
    for i in range(3):
        memo.cache_clear()
        call(i)
        warm = call(i)
        assert memo.cache_info().misses == 1
        memo.cache_clear()
        assert call(i) == warm
        assert memo.cache_info().misses == 1


@pytest.mark.parametrize("name", _MEMO_CALLS)
def test_every_memo_stores_nothing_when_its_build_raises(
        monkeypatch, cold_memos, name):
    memo, (_, refused, error) = MEMOS[name], _MEMO_CALLS[name]
    for attempt in range(1, 3):
        with pytest.raises(error):
            refused(monkeypatch)
        assert memo.cache_info()[1:] == (attempt, MEMO_SHAPES, 0)


def _package_caches():
    """Every functools cache wrapper a zxdj module or class holds, by id."""
    found = {}
    for info in pkgutil.iter_modules(zxdj.__path__):
        module = importlib.import_module(f"zxdj.{info.name}")
        for value in list(vars(module).values()):
            inner = vars(value).values() if isinstance(value, type) else ()
            for candidate in [value, *inner]:
                if hasattr(candidate, "cache_info"):
                    found[id(candidate)] = candidate
    return found


# Tables capped by their input's size, not memos: nothing evicts them.
_TABLES = (circuit._wire_tables,)


def test_every_cache_in_the_package_is_a_listed_memo_or_table():
    assert _MEMO_CALLS.keys() == MEMOS.keys()
    found = _package_caches()
    listed = [*MEMOS.values(), *_TABLES]
    assert {id(c) for c in listed} == found.keys(), [
        c.__wrapped__.__qualname__ for c in found.values()
        if all(c is not m for m in listed)]
    for table in _TABLES:
        assert table.cache_info().maxsize is None


def test_memo_stores_nothing_when_the_search_raises(monkeypatch,
                                                    cold_memos):
    def refuse(*args):
        raise PreconditionFailed("refused")

    monkeypatch.setattr(rewrite, "_drive", refuse)
    d, carriers = to_zx_tracked(Circuit(1, [pauli_z(0)]))
    with pytest.raises(PreconditionFailed):
        simplify_mbqc(d, frozenset(carriers))
    # nor does a pattern read that raises: the translation is open
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(d)
    assert rewrite._rewrite.cache_info().currsize == 0
    assert mbqc._view_template.cache_info().currsize == 0


def test_memo_hands_out_results_a_caller_may_mutate(cold_memos):
    # a miss and a hit each return a diagram and a trace of the caller's
    # own; mutating them, or the translation, leaves the next hit as the
    # rule search left it
    c = Circuit(2, [phase_gate(0, Phase(1, 4)), cnot(0, 1), hadamard(1),
                    phase_gate(1, HALF_PI), cnot(1, 0)])
    d, carriers = to_zx_tracked(c)
    protected = frozenset(carriers)
    expected = _cold(d, protected)
    for _ in range(2):  # the first round mutates a miss, the second a hit
        d, carriers = to_zx_tracked(c)
        out, steps = simplify_mbqc(d, protected)
        v = next(iter(out.spiders))
        out.spiders[v].phase = out.spiders[v].phase + PI
        out.remove_spider(max(out.spiders))
        out.add_spider(SpiderKind.X)
        steps.clear()
        d.spiders[carriers[0]].phase = ZERO
        d.add_spider(SpiderKind.X)
        assert _simplified(to_zx_tracked(c)[0], protected) == expected
    assert rewrite._rewrite.cache_info().misses == 1


def test_a_view_copies_and_pickles_as_its_state(cold_memos):
    # copy, deepcopy and pickle of a view take its state alone, not its
    # record
    c = oracle_circuit_3q(enumerate_promise(3)[5])
    for _ in range(2):  # the second round is warm
        d, carriers = to_zx_tracked(c)
        reduced, _ = simplify_mbqc(d, frozenset(carriers))
        pattern_from_graph_like(reduced)
    for view in (d, reduced):
        twin = view.copy()
        expected = (twin.to_json(), twin._next_node, twin._next_edge)
        copies = [copy.deepcopy(view.copy()), copy.copy(view.copy()),
                  pickle.loads(pickle.dumps(view.copy())),
                  copy.deepcopy(view)]
        for out in copies:
            assert type(out) is ZxDiagram and set(vars(out)) == _STATE
            assert (out.to_json(), out._next_node,
                    out._next_edge) == expected
        # the deep copy is its own: the view it came from is unchanged
        copies[-1].spiders[max(view.spiders)].phase += PI
        assert view.to_json() == expected[0]


def test_every_oracle_translation_shares_one_memo_entry(cold_memos):
    # all 72 oracle circuits have one shape: one translation record, one
    # rewrite of it and one pattern template of that
    records = set()
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        reduced, _ = simplify_mbqc(d, frozenset(carriers))
        pattern_from_graph_like(reduced)
        records.add((d._record, reduced._record))
    ((translation, reduction),) = records
    assert type(translation) is circuit._Translation
    assert type(reduction) is rewrite._Rewrite
    for memo in (circuit._translate, rewrite._rewrite, mbqc._view_template):
        assert memo.cache_info()[:2] == (71, 1)


def _reversed(d):
    """A copy of ``d`` whose spider and edge dicts hold the same items in
    reverse insertion order."""
    out = d.copy()
    out.spiders = dict(reversed(out.spiders.items()))
    out.edges = dict(reversed(out.edges.items()))
    return out


def test_a_reordered_diagram_simplifies_as_a_cold_run():
    # an ordinary diagram is simplified afresh, whatever its dict order
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        protected = frozenset(carriers)
        cold = _reversed(d)
        steps, _ = rewrite.simplify_core(cold, protected)
        out, trace = simplify_mbqc(_reversed(d), protected)
        assert out.to_json() == cold.to_json()
        assert (out._next_node, out._next_edge) == (cold._next_node,
                                                    cold._next_edge)
        assert trace == steps


# -- a Hadamard edge parallel to a fused plain edge ----------------------------

def test_fusion_absorbs_a_parallel_hadamard_edge_as_pi():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, Phase(1, 4))
    b = d.add_spider(SpiderKind.Z, HALF_PI)
    d.add_edge(a, b, EdgeKind.PLAIN)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    with pytest.raises(WouldSelfLoopError):
        fuse_spiders(d.copy(), a, b)  # the public rule keeps its contract
    out, steps = simplify_mbqc(d)
    assert [s.rule for s in steps] == ["hadamard_loop", "fuse_spiders"]
    assert out.spiders[a].phase == Phase(7, 4)  # pi/4 + pi/2 + pi
    assert_sound(d, out)


@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_diagrams_with_hadamard_beside_plain_edges_simplify(d, rng):
    # give some like-kind plain pair a parallel Hadamard edge, which made
    # the simplifier's fusion raise WouldSelfLoopError
    pairs = [(e.a, e.b) for e in d.edges.values() if e.kind is EdgeKind.PLAIN
             and d.spiders[e.a].kind is d.spiders[e.b].kind]
    if pairs:
        d.add_edge(*rng.choice(pairs), EdgeKind.HADAMARD)
    out, _ = simplify_mbqc(d)
    assert_sound(plug_plus_states(d), out)
