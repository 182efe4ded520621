"""Ground-truth semantics: contract a diagram to a dense complex tensor.

Spiders are kept unnormalized (the Z spider of degree k is the k-index
tensor with 1 at 0...0 and e^{i*alpha} at 1...1; the X spider is the same
object in the unnormalized plus/minus basis).  A Hadamard edge carries the
matrix [[1,1],[1,-1]]/sqrt(2) so that two consecutive Hadamard edges are
the identity (to machine precision).  All cross-model comparisons go
through ``equivalent_up_to_scalar``.  A contraction is planned on index
labels alone (:func:`plan_contraction`), then executed by :func:`evaluate`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .errors import ShapeMismatchError

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass
class Tensor:
    """Dense complex array over (outputs, inputs), one binary axis per leg."""

    data: np.ndarray

    @property
    def rank(self) -> int:
        return self.data.ndim

    def as_matrix(self, n_out: int) -> np.ndarray:
        n_in = self.rank - n_out
        return self.data.reshape(2 ** n_out, 2 ** n_in)

    def scalar(self) -> complex:
        if self.rank != 0:
            raise ShapeMismatchError(f"rank {self.rank} tensor is not a scalar")
        return complex(self.data)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


def spider_tensor(kind: SpiderKind, phase_factor: complex, rank: int) -> np.ndarray:
    """The bare spider tensor before Hadamard-edge dressing."""
    if kind is SpiderKind.Z:
        data = np.zeros((2,) * rank, dtype=complex) if rank else np.zeros((), complex)
        data.reshape(-1)[0] = 1
        data.reshape(-1)[-1] = phase_factor
        if rank == 0:
            # degree-0 spider: sum of the two basis weights
            data = np.array(1 + phase_factor)
        return data
    # X spider: entry at bits b is 1 + e^{i*alpha} * (-1)^popcount(b)
    flat = np.array(
        [1 + phase_factor * (-1) ** bin(i).count("1") for i in range(2 ** rank)],
        dtype=complex,
    )
    return flat.reshape((2,) * rank) if rank else np.array(flat[0])


def _degree_score(u: int, adj: dict[int, set[int]]) -> tuple:
    return (len(adj[u]),)


def _fill_score(u: int, adj: dict[int, set[int]]) -> tuple:
    """Neighbor pairs not yet adjacent, then the degree."""
    nbrs = adj[u]
    k = len(nbrs)
    linked = sum(len(adj[a] & nbrs) for a in nbrs)  # each pair counted twice
    return (k * (k - 1) // 2 - linked // 2, k)


def _greedy_order(d: ZxDiagram, internal: list[int], score) -> list[int]:
    """Eliminate spiders least (score, id) first.  Eliminating v makes a
    clique of its neighbors, which can rescore only them and their
    neighbors; stale heap entries are skipped, so this equals a rescan."""
    adj = {v: d.neighbors(v) for v in d.spiders}
    current = {v: score(v, adj) for v in internal}
    heap = [(s, v) for v, s in current.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        s, v = heapq.heappop(heap)
        if current.get(v) != s:
            continue
        del current[v]
        order.append(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
            adj[u] |= nbrs - {u}
        for u in nbrs.union(*(adj[w] for w in nbrs)) & current.keys():
            s = score(u, adj)
            if s != current[u]:
                current[u] = s
                heapq.heappush(heap, (s, u))
    return order


def elimination_order(d: ZxDiagram) -> list[int]:
    """Deterministic elimination ordering over the internal spiders.

    Tries min-degree greedy, min-fill greedy and ascending-id order, and
    returns the one whose plan peaks lowest (the first, on a tie).
    """
    boundary = set(d.inputs) | set(d.outputs)
    ascending = [v for v in sorted(d.spiders) if v not in boundary]
    candidates = [_greedy_order(d, ascending, _degree_score),
                  _greedy_order(d, ascending, _fill_score), ascending]
    return min(candidates, key=lambda o: plan_contraction(d, o).peak_rank)


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
        order = elimination_order(d)
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


@dataclass(slots=True)
class _Factor:
    data: np.ndarray
    labels: list


def _merge(f1: _Factor, f2: _Factor) -> _Factor:
    """Contract the shared labels: the transposes and the one matrix product
    ``np.tensordot`` would make, without its general argument handling."""
    ax1 = [i for i, lab in enumerate(f1.labels) if lab in f2.labels]
    ax2 = [f2.labels.index(f1.labels[i]) for i in ax1]
    keep1 = [i for i in range(len(f1.labels)) if i not in ax1]
    keep2 = [j for j in range(len(f2.labels)) if j not in ax2]
    data = np.dot(f1.data.transpose(keep1 + ax1).reshape(2 ** len(keep1), -1),
                  f2.data.transpose(ax2 + keep2).reshape(2 ** len(ax2), -1))
    labels = [f1.labels[i] for i in keep1] + [f2.labels[j] for j in keep2]
    return _Factor(data.reshape((2,) * len(labels)), labels)


def _build_factors(d: ZxDiagram) -> dict[int, _Factor]:
    factors: dict[int, _Factor] = {}
    for v in d.node_ids():
        s = d.spiders[v]
        # a parallel edge contributes one leg per strand at each endpoint
        labels = [("e", eid) for eid in d.edges_at(v)]
        labels += [("in", i) for i, b in enumerate(d.inputs) if b == v]
        labels += [("out", i) for i, b in enumerate(d.outputs) if b == v]
        data = spider_tensor(s.kind, s.phase.phase_factor(), len(labels))
        factors[v] = _Factor(data, labels)
    # fold each Hadamard edge's matrix into the lower-id endpoint: the
    # product leaves H's free leg last, and ``back`` returns it to its axis
    for eid, e in sorted(d.edges.items()):
        if e.kind is EdgeKind.HADAMARD:
            f = factors[min(e.a, e.b)]
            back = list(range(len(f.labels) - 1))
            back.insert(f.labels.index(("e", eid)), len(f.labels) - 1)
            folded = _merge(f, _Factor(HADAMARD, [("e", eid), None]))
            f.data = folded.data.transpose(back)
    return factors


def evaluate(d: ZxDiagram, order: list[int] | None = None) -> Tensor:
    """Contract the diagram; resulting axes are ordered outputs then inputs."""
    if order is None:
        order = elimination_order(d)
    pool = _build_factors(d)
    for keep, absorb in plan_contraction(d, order).merges:
        pool[keep] = _merge(pool[keep], pool.pop(absorb))
    if not pool:
        return Tensor(np.array(1 + 0j))
    (result,) = pool.values()
    perm = [result.labels.index(("out", i)) for i in range(len(d.outputs))] + [
        result.labels.index(("in", i)) for i in range(len(d.inputs))
    ]
    data = np.transpose(result.data, perm) if perm else result.data
    # note: ascontiguousarray would promote rank-0 results to rank 1
    return Tensor(np.array(data, dtype=complex, copy=True))


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
    return 1e-9 * product


def _spider_max_norm(kind: SpiderKind, z: complex, rank: int) -> float:
    """Largest |entry| of ``spider_tensor(kind, z, rank)`` without building
    it: a rank-0 spider is the scalar 1 + z; a Z spider's entries are 1, z
    and zeros; an X spider's are 1 + z and 1 - z."""
    if rank == 0:
        return abs(1 + z)
    if kind is SpiderKind.Z:
        return max(1.0, abs(z))
    return max(abs(1 + z), abs(1 - z))


def equivalent_up_to_scalar(t1: Tensor, t2: Tensor, tol: float = 1e-9):
    """True iff t1 = c * t2 for some nonzero c, within tol; returns (bool, c)."""
    a, b = np.asarray(t1.data), np.asarray(t2.data)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{a.shape} vs {b.shape}")
    na, nb = t1.max_norm(), t2.max_norm()
    scale = max(na, nb)
    # absolute floor: entries below tol count as zero, so that an exact 0
    # and an accumulated-roundoff 1e-32 compare equal
    if scale <= tol:
        return True, complex(1)
    if na <= tol * scale or nb <= tol * scale:
        return False, complex(0)
    denom = np.vdot(b, b)
    c = complex(np.vdot(b, a) / denom)
    if c == 0:
        return False, complex(0)
    err = float(np.max(np.abs(a - c * b)))
    return err <= tol * scale, c
