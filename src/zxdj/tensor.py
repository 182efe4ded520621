"""Ground-truth semantics: contract a diagram to a dense complex tensor.

Spiders are kept unnormalized (the Z spider of degree k is the k-index
tensor with 1 at 0...0 and e^{i*alpha} at 1...1; the X spider is the same
object in the unnormalized plus/minus basis).  A Hadamard edge carries the
matrix [[1,1],[1,-1]]/sqrt(2) so that two consecutive Hadamard edges are
the identity (to machine precision).  All cross-model comparisons go
through ``equivalent_up_to_scalar``.

A contraction is planned on index labels alone (:func:`plan_contraction`,
in the order :func:`elimination_order` picks), checked against
``MAX_PEAK_RANK``, and only then run on the spider tensors by
:func:`evaluate`.  Nothing is memoized: ``mbqc._sum_exact`` decides every
Clifford pattern, which covers every pattern for n <= 3, so the commands
contract only a non-Clifford pattern loaded by ``simulate --pattern``,
post-selected or with ``--shots``, once per process.  numpy is imported
by the functions that build an array, so planning a contraction, as
``max_intermediate_rank`` and ``collapse_floor`` do, loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .errors import ShapeMismatchError, WidthTooLargeError

if TYPE_CHECKING:
    import numpy as np

# The one float tolerance: equivalent_up_to_scalar's relative tolerance,
# collapse_floor's scale and circuit.dj_verdict's margin around 0 and 1.
_TOL = 1e-9


def spider_tensor(kind: SpiderKind, phase_factor: complex, rank: int) -> np.ndarray:
    """The bare spider tensor before Hadamard-edge dressing."""
    import numpy as np

    if rank == 0:
        # degree-0 spider: sum of the two basis weights
        return np.array(1 + phase_factor)
    if kind is SpiderKind.Z:
        data = np.zeros((2,) * rank, dtype=complex)
        data.reshape(-1)[0] = 1
        data.reshape(-1)[-1] = phase_factor
        return data
    # X spider: entry at bits b is 1 + e^{i*alpha} * (-1)^popcount(b)
    flat = np.array(
        [1 + phase_factor * (-1) ** i.bit_count() for i in range(2 ** rank)],
        dtype=complex,
    )
    return flat.reshape((2,) * rank)


def _degree_score(u: int, adj: dict[int, set[int]]) -> tuple:
    return (len(adj[u]),)


def _fill_score(u: int, adj: dict[int, set[int]]) -> tuple:
    """Neighbor pairs not yet adjacent, then the degree."""
    nbrs = adj[u]
    k = len(nbrs)
    linked = sum(len(adj[a] & nbrs) for a in nbrs)  # each pair counted twice
    return (k * (k - 1) // 2 - linked // 2, k)


def _greedy_order(d: ZxDiagram, internal: list[int], score) -> list[int]:
    """Eliminate the remaining spider of least (score, id) first, scoring
    every one at each step; eliminating v makes a clique of its neighbors."""
    adj = {v: d.neighbors(v) for v in d.spiders}
    remaining = set(internal)
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (score(u, adj), u))
        remaining.remove(v)
        order.append(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
            adj[u] |= nbrs - {u}
    return order


# Largest factor rank evaluate materializes: 2^20 amplitudes, 16 MiB.
MAX_PEAK_RANK = 20


def elimination_order(d: ZxDiagram) -> list[int]:
    """Deterministic elimination ordering over the internal spiders.

    Tries min-degree greedy, min-fill greedy and ascending-id order, and
    returns the one whose plan peaks lowest (the first, on a tie).
    """
    return _best_plan(d).order


def _best_plan(d: ZxDiagram) -> "ContractionPlan":
    """The plan of the :func:`elimination_order`, kept from the comparison
    that picked it, so the winner is planned once."""
    boundary = set(d.inputs) | set(d.outputs)
    ascending = [v for v in sorted(d.spiders) if v not in boundary]
    candidates = [_greedy_order(d, ascending, _degree_score),
                  _greedy_order(d, ascending, _fill_score), ascending]
    return min((plan_contraction(d, o) for o in candidates),
               key=lambda plan: plan.peak_rank)


@dataclass
class ContractionPlan:
    """A contraction worked out on index labels alone.  ``merges`` lists
    ``(keep, absorb)`` factor ids, a factor named by the spider it starts
    as: the merges along each eliminated spider's edges, then the fold of
    the rest into the lowest id.  ``peak_rank`` is the largest factor rank,
    the initial spider factors included."""

    order: list[int]
    merges: list[tuple[int, int]]
    peak_rank: int


def plan_contraction(d: ZxDiagram, order: list[int] | None = None) -> ContractionPlan:
    """Plan the contraction of ``d`` with the given (default: the
    :func:`elimination_order`) order, without building any tensor."""
    if order is None:
        return _best_plan(d)
    incident = {v: d.edges_at(v) for v in d.spiders}
    # a merge contracts the shared edge ids: the symmetric difference stays
    legs = {v: set(eids) for v, eids in incident.items()}
    for side, ids in (("in", d.inputs), ("out", d.outputs)):
        for i, b in enumerate(ids):
            legs[b].add((side, i))
    peak = max(map(len, legs.values()), default=0)
    merges: list[tuple[int, int]] = []
    merged_into: dict[int, int] = {}

    def find(v: int) -> int:
        while v in merged_into:
            v = merged_into[v]
        return v

    def merge(keep: int, absorb: int) -> None:
        nonlocal peak
        legs[keep] ^= legs.pop(absorb)
        merged_into[absorb] = keep
        merges.append((keep, absorb))
        peak = max(peak, len(legs[keep]))

    for v in order:
        for eid in incident[v]:
            e = d.edges[eid]
            ka, kb = find(e.a), find(e.b)
            if ka != kb:
                merge(ka, kb)
    remaining = sorted(legs)
    for k in remaining[1:]:
        merge(remaining[0], k)
    return ContractionPlan(list(order), merges, peak)


def evaluate(d: ZxDiagram, order: list[int] | None = None) -> np.ndarray:
    """Contract the diagram to a complex array with one binary axis per
    leg, outputs then inputs; a closed diagram gives a rank-0 array.

    Runs the plan of ``order`` (default: the :func:`elimination_order`)
    with ``np.tensordot``, each factor's axes tracked by edge and boundary
    labels.  Raises ``WidthTooLargeError``, before building any tensor,
    when the plan's peak rank exceeds ``MAX_PEAK_RANK``.
    """
    plan = _best_plan(d) if order is None else plan_contraction(d, order)
    if plan.peak_rank > MAX_PEAK_RANK:
        raise WidthTooLargeError(
            f"contraction peaks at rank {plan.peak_rank}; "
            f"the cap is {MAX_PEAK_RANK}")
    import numpy as np

    labels: dict[int, list] = {}
    pool: dict[int, np.ndarray] = {}
    for v in d.node_ids():
        # a parallel edge contributes one leg per strand at each endpoint
        labels[v] = [("e", eid) for eid in d.edges_at(v)]
        labels[v] += [("in", i) for i, b in enumerate(d.inputs) if b == v]
        labels[v] += [("out", i) for i, b in enumerate(d.outputs) if b == v]
        s = d.spiders[v]
        pool[v] = spider_tensor(s.kind, s.phase.phase_factor(), len(labels[v]))
    # fold each Hadamard edge's matrix into the lower-id endpoint
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) * math.sqrt(0.5)
    for eid, e in sorted(d.edges.items()):
        if e.kind is EdgeKind.HADAMARD:
            v = min(e.a, e.b)
            axis = labels[v].index(("e", eid))
            pool[v] = np.moveaxis(
                np.tensordot(pool[v], hadamard, axes=([axis], [0])), -1, axis)
    for keep, absorb in plan.merges:
        l1, l2 = labels[keep], labels.pop(absorb)
        ax1 = [i for i, lab in enumerate(l1) if lab in l2]
        ax2 = [l2.index(l1[i]) for i in ax1]
        pool[keep] = np.tensordot(pool[keep], pool.pop(absorb), axes=(ax1, ax2))
        labels[keep] = ([lab for lab in l1 if lab not in l2]
                        + [lab for lab in l2 if lab not in l1])
    if not labels:
        return np.array(1 + 0j)
    ((v, labs),) = labels.items()
    perm = ([labs.index(("out", i)) for i in range(len(d.outputs))]
            + [labs.index(("in", i)) for i in range(len(d.inputs))])
    data = np.transpose(pool[v], perm) if perm else pool[v]
    # note: ascontiguousarray would promote rank-0 results to rank 1
    return np.array(data, dtype=complex, copy=True)


def max_intermediate_rank(d: ZxDiagram, order: list[int] | None = None) -> int:
    """Largest factor rank materialized while contracting with the given order."""
    return plan_contraction(d, order).peak_rank


def collapse_floor(d: ZxDiagram) -> float:
    """Absolute threshold below which a closed diagram's scalar counts as zero.

    Scaled by the product of per-spider max norms so the verdict is invariant
    under the diagram's unnormalized-spider convention.
    """
    product = 1.0
    for v in d.node_ids():
        s = d.spiders[v]
        product *= max(_spider_max_norm(
            s.kind, s.phase.phase_factor(), d.degree(v) + d.boundary_legs(v)), 1.0)
    return _TOL * product


def _spider_max_norm(kind: SpiderKind, z: complex, rank: int) -> float:
    """Largest |entry| of ``spider_tensor(kind, z, rank)`` without building
    it: a rank-0 spider is the scalar 1 + z; a Z spider's entries are 1, z
    and zeros; an X spider's are 1 + z and 1 - z."""
    if rank == 0:
        return abs(1 + z)
    if kind is SpiderKind.Z:
        return max(1.0, abs(z))
    return max(abs(1 + z), abs(1 - z))


def equivalent_up_to_scalar(a, b):
    """True iff a = c * b for some nonzero c, within _TOL, for two arrays
    of one shape; returns (bool, c)."""
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{a.shape} vs {b.shape}")
    na, nb = (float(np.abs(x).max(initial=0.0)) for x in (a, b))
    scale = max(na, nb)
    # absolute floor: entries below _TOL count as zero, so that an exact 0
    # and an accumulated-roundoff 1e-32 compare equal
    if scale <= _TOL:
        return True, complex(1)
    if na <= _TOL * scale or nb <= _TOL * scale:
        return False, complex(0)
    denom = np.vdot(b, b)
    c = complex(np.vdot(b, a) / denom)
    if c == 0:
        return False, complex(0)
    err = float(np.max(np.abs(a - c * b)))
    return err <= _TOL * scale, c
