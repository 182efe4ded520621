"""Diagram data structure: construction, validation, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxdj.diagram import (
    _STATE, EdgeKind, SpiderKind, ZxDiagram, _Record, _View, new_diagram)
from zxdj.errors import (
    SelfLoopError,
    UnknownNodeError,
    ZxError,
)
from zxdj.phase import HALF_PI, PI, Phase, ZERO
from zxdj.rewrite import color_change, fuse_spiders, local_complement
from zxdj.tensor import equivalent_up_to_scalar, evaluate


def random_diagram(draw, max_spiders=6, max_boundary=2):
    d = ZxDiagram()
    n = draw(st.integers(min_value=1, max_value=max_spiders))
    for _ in range(n):
        kind = draw(st.sampled_from([SpiderKind.Z, SpiderKind.X]))
        phase = Phase(draw(st.integers(min_value=0, max_value=7)), 4)
        d.add_spider(kind, phase)
    ids = sorted(d.spiders)
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_edges):
        a = draw(st.sampled_from(ids))
        b = draw(st.sampled_from(ids))
        if a != b:
            d.add_edge(a, b, draw(st.sampled_from([EdgeKind.PLAIN,
                                                   EdgeKind.HADAMARD])))
    n_in = draw(st.integers(min_value=0, max_value=max_boundary))
    n_out = draw(st.integers(min_value=0, max_value=max_boundary))
    d.inputs = [draw(st.sampled_from(ids)) for _ in range(n_in)]
    d.outputs = [draw(st.sampled_from(ids)) for _ in range(n_out)]
    return d


diagrams = st.composite(random_diagram)()


def test_add_edge_guards():
    d = ZxDiagram()
    v = d.add_spider(SpiderKind.Z)
    with pytest.raises(SelfLoopError):
        d.add_edge(v, v)
    with pytest.raises(UnknownNodeError):
        d.add_edge(v, 99)


def test_remove_spider_refuses_boundary():
    d = new_diagram(1, 1)
    with pytest.raises(ValueError):
        d.remove_spider(d.inputs[0])


def test_remove_spider_drops_incident_edges():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.X)
    d.add_edge(a, b)
    d.remove_spider(b)
    assert not d.edges
    assert list(d.node_ids()) == [a]


def test_node_ids_never_reused():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    d.remove_spider(a)
    b = d.add_spider(SpiderKind.Z)
    assert b != a


def test_queries():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.X)
    c = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    d.add_edge(a, c)
    d.inputs = [a]
    assert d.degree(a) == 3
    assert d.neighbors(a) == {b, c}
    assert len(d.edges_between(a, b)) == 2
    assert d.boundary_legs(a) == 1
    assert not d.is_closed()


def test_new_diagram_identity_wire():
    d = new_diagram(1, 1)
    ok, _ = equivalent_up_to_scalar(evaluate(d), np.eye(2, dtype=complex))
    assert ok


def test_new_diagram_empty_scalar():
    d = new_diagram(0, 0)
    assert complex(evaluate(d)) == 1


@given(diagrams)
@settings(max_examples=60, deadline=None)
def test_json_round_trip(d):
    d2 = ZxDiagram.from_json(d.to_json())
    assert d2.to_json_dict() == ZxDiagram.from_json_dict(d2.to_json_dict()).to_json_dict()
    t1, t2 = evaluate(d), evaluate(d2)
    ok, _ = equivalent_up_to_scalar(t1, t2)
    assert ok


@given(diagrams)
@settings(max_examples=40, deadline=None)
def test_copy_is_independent(d):
    d2 = d.copy()
    d2.add_spider(SpiderKind.Z, PI)
    assert len(d2.spiders) == len(d.spiders) + 1


# -- views ---------------------------------------------------------------------

def _view_of(d, values):
    """A view of a record of ``d`` whose carriers are the spiders
    ``values`` names, each its own source."""
    return _View(_Record(d, tuple([(v, d.spiders[v].phase, (v,))
                                   for v in values])), values)


@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_view_builds_its_state_on_first_read(d, rng):
    # each carrier takes its offset, the phase the record holds it at,
    # plus the values of its sources; a source without a value adds 0
    carriers = tuple([(v, d.spiders[v].phase,
                       tuple(rng.sample(range(4), rng.randrange(4))))
                      for v in d.spiders if rng.random() < 0.5])
    values = {k: Phase(rng.randrange(8), 4) for k in range(4)
              if rng.random() < 0.75}
    expected = d.copy()
    for v, _, sources in carriers:
        for k in sources:
            expected.spiders[v].phase += values.get(k, ZERO)
    record = d.to_json()
    view = _View(_Record(d, carriers), values)
    assert set(vars(view)) == {"_record", "_values"}  # no state yet
    assert view.to_json() == expected.to_json()
    # the read made it an ordinary diagram, which holds its state alone
    assert type(view) is ZxDiagram and set(vars(view)) == _STATE
    assert (view._next_node, view._next_edge) == (d._next_node, d._next_edge)
    # and that state is its own
    v = view.add_spider(SpiderKind.X, PI)
    view.add_edge(v, min(view.spiders))
    for s in view.spiders.values():
        s.phase = HALF_PI
    view.inputs.append(v)
    assert d.to_json() == record
    assert_index_matches_scan(view)


def test_a_write_builds_the_view_first():
    d = new_diagram(2, 2)
    view = _view_of(d, {0: PI})
    view.inputs = [1]  # a write that reads nothing first
    assert type(view) is ZxDiagram
    assert (view.inputs, view.outputs) == ([1], d.outputs)
    assert view.spiders[0].phase == PI and d.spiders[0].phase == ZERO
    assert d.inputs == [0, 1]


def test_a_view_builds_nothing_for_a_missing_name():
    view = _view_of(new_diagram(1, 1), {0: PI})
    with pytest.raises(AttributeError, match="nothing"):
        view.nothing
    assert type(view) is _View


def test_a_views_copy_is_another_view():
    d = new_diagram(2, 2)
    view = _view_of(d, {0: PI})
    twin = view.copy()
    assert type(twin) is _View and twin is not view
    twin.spiders[0].phase = HALF_PI
    twin.remove_edge(0)
    assert type(view) is _View  # building the copy left the view as it was
    assert view.spiders[0].phase == PI and 0 in view.edges
    # a built view copies as any diagram does
    built = view.copy()
    assert type(built) is ZxDiagram
    built.spiders[0].phase = ZERO
    assert view.spiders[0].phase == PI


def test_to_dot_shapes():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.X)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    dot = d.to_dot()
    assert "ellipse" in dot and "box" in dot and "dashed" in dot
    assert dot.startswith("graph zx {") and dot.endswith("}")


def assert_index_matches_scan(d):
    """The incidence-backed queries equal a brute-force scan of d.edges."""
    for v in d.spiders:
        incident = [eid for eid, e in sorted(d.edges.items())
                    if v in (e.a, e.b)]
        assert d.edges_at(v) == incident
        assert d.degree(v) == len(incident)
        assert d.neighbors(v) == {d.edges[eid].other(v) for eid in incident}
        for u in d.spiders:
            assert d.edges_between(v, u) == [
                eid for eid, e in sorted(d.edges.items())
                if {e.a, e.b} == {v, u}]


@given(diagrams, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_incidence_index_matches_edge_scan(d, rng):
    # every diagram made along the way, so copies are checked independent
    seen = [d]
    for _ in range(15):
        nodes = sorted(d.spiders)
        pick = lambda: rng.choice(nodes)
        op = rng.randrange(8)
        try:
            if op == 0 or not nodes:
                d.add_spider(rng.choice(list(SpiderKind)),
                             Phase(rng.randrange(8), 4))
            elif op == 1:
                d.add_edge(pick(), pick(), rng.choice(list(EdgeKind)))
            elif op == 2 and d.edges:
                d.remove_edge(rng.choice(sorted(d.edges)))
            elif op == 3:
                d.remove_spider(pick())
            elif op == 4 and d.edges:
                e = d.edges[rng.choice(sorted(d.edges))]
                fuse_spiders(d, e.a, e.b)
            elif op == 5:
                color_change(d, pick())
            elif op == 6:
                local_complement(d, pick())
            else:
                d = d.copy()
                seen.append(d)
        except (ZxError, ValueError):
            pass  # a refused operation must leave the index intact too
        for x in seen:
            assert_index_matches_scan(x)


def test_incidence_index_under_local_complement():
    # a graph state where local complementation applies and rewires edges
    d = ZxDiagram()
    v = [d.add_spider(SpiderKind.Z, HALF_PI if i == 0 else ZERO)
         for i in range(5)]
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]:
        d.add_edge(v[a], v[b], EdgeKind.HADAMARD)
    local_complement(d, v[0])
    assert_index_matches_scan(d)
    assert d.neighbors(v[1]) == {v[3]}
    assert d.neighbors(v[3]) == {v[1], v[2], v[4]}
