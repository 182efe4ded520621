"""Sampled execution of measurement patterns: every shot of a pattern with
an XY-plane gflow at once, measuring in gflow order with adaptive
byproduct corrections.

Every shot runs on numpy arrays, so the sampler is kept apart from
:mod:`zxdj.mbqc`, whose exact route builds none: a process loads numpy
here only when it samples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import WidthTooLargeError
from .mbqc import (
    DEFAULT_SEED,
    MeasurementPattern,
    PatternOutcome,
    _adjacency,
    _odd,
    find_gflow,
)
from .oracle import Verdict
from .rewrite import _memoized

# Widest open frontier run_sampled simulates: 2^12 amplitudes per branch.
MAX_FRONTIER = 12
# A block of shots holds _BLOCK_AMPLITUDES >> width shots, so its state never
# exceeds 2^18 amplitudes.  Each block draws its own random numbers, so the
# block size is part of what a seed's output depends on.
_BLOCK_AMPLITUDES = 1 << 18
# Sampling plans by pattern shape (see run_sampled).
_plan_memo: dict[tuple, tuple[list["_Step"], int]] = {}


@dataclass(frozen=True)
class _Step:
    """One measurement of qubit ``qubit``: add ``added`` qubits as |+>,
    multiply by the CZ ``signs`` (or none), then measure frontier bit
    ``bit``.  Everything here depends on the pattern's shape alone, never
    on its angles.

    ``flips`` is this step's slice of the plan's flip table: row o is what
    outcome o XORs onto a branch's pending weight indices, one per step.
    Row 0 is zero.  Row 1 holds the byproducts of the qubit v measured
    here: 2 at each later step whose qubit is in g(v) (an X byproduct) and
    1 at each in Odd(g(v)) \\ {v} (a Z byproduct), and 4 at this step
    itself when v is a readout, which records the readout bit."""

    qubit: int
    added: int
    signs: np.ndarray | None
    bit: int
    flips: np.ndarray   # (2, steps) uint8, read-only


def _cz_signs(width: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """(-1)^(number of CZ pairs both 1) over the 2^width frontier states;
    bit 0 is the most significant.  Read-only, since plans share it."""
    index = np.arange(1 << width)
    parity = np.zeros(1 << width, dtype=np.int64)
    for a, b in pairs:
        parity ^= (index >> (width - 1 - a)) & (index >> (width - 1 - b)) & 1
    signs = 1.0 - 2.0 * parity
    signs.flags.writeable = False
    return signs


def _sampling_plan(p: MeasurementPattern, g, layer) -> tuple[list[_Step], int]:
    """The measurement schedule of the gflow and the widest frontier.

    Non-outputs go in descending layer, then the readouts.  A qubit joins
    the frontier just before its first neighbour is measured; every edge
    is applied when its second end joins.  The flip table (see ``_Step``)
    is built here, once per shape, as one read-only (steps, 2, steps)
    array.  Raises ``WidthTooLargeError`` before building any sign vector
    wider than ``MAX_FRONTIER``.
    """
    adj = _adjacency(p)
    readouts = set(p.readouts)
    order = sorted(g, key=lambda u: (-layer[u], u)) + list(p.readouts)
    step_of = {q: k for k, q in enumerate(order)}
    flips = np.zeros((len(order), 2, len(order)), dtype=np.uint8)
    for i, v in enumerate(order):
        k = g.get(v, frozenset())
        for q in k:
            flips[i, 1, step_of[q]] ^= 2
        for q in _odd(adj, k) - {v}:
            flips[i, 1, step_of[q]] ^= 1
        if v in readouts:
            flips[i, 1, i] = 4
    flips.flags.writeable = False
    joined: set[int] = set()
    front: list[int] = []
    steps = []
    width = 0
    for v, flip in zip(order, flips):
        pairs = []
        added = 0
        for q in (v, *sorted(adj[v])):
            if q not in joined:
                joined.add(q)
                pairs += [(front.index(r), len(front))
                          for r in sorted(adj[q]) if r in front]
                front.append(q)
                added += 1
        width = max(width, len(front))
        if len(front) > MAX_FRONTIER:
            raise WidthTooLargeError(
                f"sampling needs a {len(front)}-qubit frontier; "
                f"the cap is {MAX_FRONTIER}")
        steps.append(_Step(
            v, added, _cz_signs(len(front), pairs) if pairs else None,
            front.index(v), flip))
        front.remove(v)
    return steps, width


def _bras(p: MeasurementPattern, steps: list[_Step]) -> np.ndarray:
    """Per step, the <+_phi| weight on |1> indexed by the byproduct
    signal: c*, -c*, c, -c for c = exp(i * angle)."""
    c = np.array([p.angles[s.qubit].phase_factor() for s in steps],
                 dtype=complex)
    return np.stack((c.conj(), -c.conj(), c, -c), axis=1)


def _squared_norms(b: np.ndarray) -> np.ndarray:
    """Per-row squared norm of a contiguous (rows, ...) complex array."""
    flat = b.reshape(len(b), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _sample_block(steps: list[_Step], bras: np.ndarray, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Run ``shots`` shots of the schedule at once; True where a shot read
    some readout bit as 1 (a Balanced answer).

    The work on the outcome tree and the work on the shots are separate.
    A branch is a row of the (branches, 2^w) state over the w frontier
    qubits and a row of pending weight indices, one per step: 2 for an X
    byproduct plus 1 for a Z, so the adapted angle (-1)^sX * theta + sZ * pi
    picks its weight from the step's ``bras``.  Each step splits every
    branch into both outcomes, row r into rows 2r and 2r + 1, which gives
    each child's state and each branch's Born probability p0 of outcome 0;
    a child's pending row is its parent's XOR the step's ``flips`` row for
    its outcome.  A shot carries only its node, the row it is at, and moves
    to ``2 * node + (u >= p0[node])`` for its draw u, one draw per shot per
    step, so the draws are those of a per-shot sampler.  Only when the
    children outnumber the shots are they compacted to the ones some shot
    reached, in ascending order, so there are never more than
    min(shots, 2^steps) rows.  A shot is Balanced when its row holds a 4,
    which a readout's outcome 1 writes.  A child no shot can reach may have
    zero norm; its row then holds NaN, and numpy's warnings for that are
    silenced, since no shot reads it.
    """
    state = np.ones((1, 1), dtype=complex)
    pending = np.zeros((1, len(steps)), dtype=np.uint8)
    node = np.zeros(shots, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (s, bra) in enumerate(zip(steps, bras)):
            rows = len(state)
            if s.added:
                state = np.repeat(state, 1 << s.added, axis=1)
            if s.signs is not None:
                state *= s.signs
            halves = state.reshape(rows, 1 << s.bit, 2, -1)
            lifted = bra[pending[:, k]][:, None, None] * halves[:, :, 1]
            # row 2r + o of ``split`` is branch r after outcome o
            split = np.empty((rows, 2) + lifted.shape[1:], dtype=complex)
            np.add(halves[:, :, 0], lifted, out=split[:, 0])
            np.subtract(halves[:, :, 0], lifted, out=split[:, 1])
            split = split.reshape(2 * rows, -1)
            norms = _squared_norms(split)
            n0 = norms[0::2]
            p0 = n0 / (n0 + norms[1::2])
            node = 2 * node + (rng.random(shots) >= p0[node])
            state = split / np.sqrt(norms)[:, None]
            pending = (pending[:, None] ^ s.flips).reshape(2 * rows, -1)
            if 2 * rows > shots:
                reached = np.bincount(node, minlength=2 * rows) > 0
                kids = np.flatnonzero(reached)
                node = (np.cumsum(reached) - 1)[node]
                state, pending = state[kids], pending[kids]
    return (pending >= 4).any(axis=1)[node]


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int, or ``ValueError`` when it is no integer
    (a bool is not one; a numpy integer is) or is below ``least``."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")
    return value


def run_sampled(p: MeasurementPattern, seed: int = DEFAULT_SEED,
                shots: int = 1000) -> PatternOutcome:
    """Sample the adaptively corrected pattern ``shots`` times.

    Measures in the order of the XY gflow from :func:`find_gflow`, all shots
    at once (in blocks of ``_BLOCK_AMPLITUDES >> width`` shots for a widest
    frontier of ``width`` qubits), each outcome drawn from its shot's Born
    probability.  Each block grows the outcome tree branch by branch and
    walks its shots down it by node index (see :func:`_sample_block`), so
    each outcome history is simulated once per block.
    An outcome 1 at v pushes an X byproduct onto g(v) and a Z byproduct onto
    Odd(g(v)) \\ {v} (Browne, Kashefi, Mhalla & Perdrix, NJP 9, 250, 2007),
    which later measurements absorb into their angles; readouts are measured
    the same way.  A shot reads Constant exactly when every readout bit is
    zero.  ``verdict`` is the majority, with ``agreeing_shots`` the shots
    behind it; both counts are Python ints.

    The gflow and the schedule built from it, flip table included, depend
    only on the pattern's shape: its qubit ids, edges, readouts in order and
    z-basis set.  They are memoized by that shape (see
    ``rewrite._memoized``), and each call only computes the measurement
    weights from its own angles.
    Raises ``NoFlowError`` without a gflow and ``WidthTooLargeError`` when
    the frontier would exceed ``MAX_FRONTIER`` qubits.  Raises
    ``ValueError`` when ``shots`` or ``seed`` is no integer (a bool or None
    is not one; a numpy integer is), when ``shots`` is below 1, since no
    shot gives no majority, and when ``seed`` is negative.  Every run is
    seeded, so a repeat call gives the same output.
    """
    shots = _integer("shots", shots, 1)
    seed = _integer("seed", seed, 0)
    p.validate()
    key = (frozenset(p.angles), frozenset(p.edges), tuple(p.readouts),
           frozenset(p.z_basis))
    steps, width = _memoized(_plan_memo, key,
                             lambda: _sampling_plan(p, *find_gflow(p)))
    bras = _bras(p, steps)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_AMPLITUDES >> width)
    constant_shots = 0
    for start in range(0, shots, block):
        n = min(block, shots - start)
        balanced = _sample_block(steps, bras, n, rng)
        constant_shots += n - int(np.count_nonzero(balanced))
    majority = Verdict.CONSTANT if constant_shots * 2 >= shots else Verdict.BALANCED
    agreeing = constant_shots if majority is Verdict.CONSTANT else shots - constant_shots
    return PatternOutcome(majority, complex(0), shots, agreeing)
