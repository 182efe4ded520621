"""Mutation probe for zxdj: which one-line faults does Tier-1 catch?

    python3 tools/mutation_probe.py

It probes the checkout it sits in.  For each mutant of ``MUTANTS``, it
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and replaces the mutant's old text (which must occur exactly
once) by its new text.  There it runs the mutated module's own test file,
``tests/test_<module>.py``, with ``-x``, which kills most mutants in a
fraction of Tier-1's time; a mutant that file does not kill faces all of
Tier-1, with ``-x``, before it counts as a survivor.  It prints one JSON
object per mutant on its own line: the mutant's name, file and fault,
whether a test failed (``killed``), which run killed it (``"module"`` or
``"tier1"``) and the seconds the runs took.  First it runs Tier-1 on the
unmutated copy, which must pass, or every mutant would read as killed.

Exit status: 0 when every mutant is killed or listed as equivalent, 1 when
some other mutant survives, 2 on a stale table or a failing unmutated copy.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    """A one-line fault: ``old`` becomes ``new`` in ``path``.  A mutant
    with an ``equivalent`` reason behaves as the program does, so its
    survival is expected."""

    name: str
    path: str
    old: str
    new: str
    fault: str
    equivalent: str | None = None


MBQC = "src/zxdj/mbqc.py"
CLI = "src/zxdj/cli.py"
CIRCUIT = "src/zxdj/circuit.py"
REWRITE = "src/zxdj/rewrite.py"
PHASE = "src/zxdj/phase.py"
DIAGRAM = "src/zxdj/diagram.py"
MUTANTS = [
    Mutant("pivot-term-dropped", MBQC,
           "if m & low:\n                        turns[x] += 2\n",
           "if m & low:\n                        turns[x] += 0\n",
           "_sum_exact's pivot drops the x_t x_t = x_t term"),
    Mutant("pivot-row-keeps-its-own-bit", MBQC,
           "row ^= m ^ low\n",
           "row ^= m\n",
           "_sum_exact's pivot gives a qubit in m an edge to itself"),
    Mutant("quarter-turns-without-minus-half-pi", MBQC,
           "Phase(k, 2).turns(2) for k in range(4)}",
           "Phase(k, 2).turns(2) for k in range(3)}",
           "the quarter-turn table leaves out 3pi/2, so a pattern holding it "
           "is contracted densely"),
    Mutant("oracle-fill-all-zero", "src/zxdj/oracle.py",
           "phase=coeffs[parity])",
           "phase=ZERO)",
           "oracle_circuit_3q fills every phase gate with 0"),
    Mutant("oracle-fill-shares-the-template-list", "src/zxdj/oracle.py",
           "gates = _ORACLE_CIRCUIT.gates.copy()",
           "gates = _ORACLE_CIRCUIT.gates",
           "oracle_circuit_3q fills the template's own gate list"),
    Mutant("greedy-ties-by-highest-id", "src/zxdj/tensor.py",
           "key=lambda u: (score(u, adj), u))",
           "key=lambda u: (score(u, adj), -u))",
           "_greedy_order breaks ties by the highest id"),
    Mutant("drawn-word-bit-0-set", MBQC,
           "word = rng.getrandbits(n)\n",
           "word = rng.getrandbits(n) | 1\n",
           "_drawn_count forces bit 0 of every word to 1"),
    Mutant("seed-0-refused", MBQC,
           'seed = _integer("seed", seed, 0)',
           'seed = _integer("seed", seed, 1)',
           "run_sampled refuses a seed of 0"),
    Mutant("tie-reads-balanced", MBQC,
           "constant_shots * 2 >= shots",
           "constant_shots * 2 > shots",
           "a tied count reads Balanced, not Constant"),
    Mutant("diagram-edges-unsorted", MBQC,
           "return sorted(map(sorted, self.edges))",
           "return list(map(sorted, self.edges))",
           "pattern_to_diagram, JSON and DOT take the edges in set "
           "iteration order"),
    Mutant("lattice-key-edge-order", MBQC,
           "template, steps = _reduction(p._shape, tuple([",
           "template, steps = _reduction("
           "p._shape._replace(edges=tuple(p.edges)), tuple([",
           "reduce_lattice keys its memo on the edges in iteration order"),
    Mutant("amplitude-without-z-basis-scale", MBQC,
           "e, h + 2 * len(p.z_basis) - len(p.edges)))",
           "e, h - len(p.edges)))",
           "run_postselected drops the 2^|Z| of the z-basis caps"),
    Mutant("dense-law-exponent-off-by-one", MBQC,
           "len(p.edges) - exponent).as_integer_ratio()",
           "len(p.edges) - exponent - 1).as_integer_ratio()",
           "_constant_law halves a contracted pattern's P(Constant)"),
    Mutant("shots-disagreement-exits-0", CLI,
           "({out.agreeing_shots}/{out.shots} agree)\"])\n"
           "            return 1\n",
           "({out.agreeing_shots}/{out.shots} agree)\"])\n"
           "            return 0\n",
           "simulate --shots exits 0 when the shots disagree"),
    Mutant("verify-all-exits-0-on-disagreement", CLI,
           'return 0 if doc["all_agree"] else 1',
           "return 0",
           "verify-all exits 0 when the routes disagree"),
    Mutant("clifford-law-h-off-by-one", MBQC,
           "return 1, exponent - s[1]\n",
           "return 1, exponent - s[1] + 1\n",
           "_constant_law's Clifford exponent is n + r - h + 1"),
    Mutant("exact-sum-rows-of-another-shape", MBQC,
           "qubits, rows = _prelude(p._shape)\n",
           "qubits, rows = _prelude(p._shape._replace(edges=frozenset()))\n",
           "_clifford_turns hands _sum_exact the rows of the pattern's shape "
           "without its edges"),
    Mutant("local-complement-h-plus-2", MBQC,
           "            h += 1\n",
           "            h += 2\n",
           "_sum_exact's local complementation counts 2 for sqrt(2)"),
    Mutant("solve-layer-highest-pivot", MBQC,
           "j = (row[0] & -row[0]).bit_length() - 1",
           "j = row[0].bit_length() - 1",
           "_solve_layer pivots on each row's highest bit",
           "any pivot solves the same system, so the layers are unchanged "
           "and only the chosen K differs"),
    Mutant("dense-verdict-at-the-floor", MBQC,
           "abs(amplitude) > floor else",
           "abs(amplitude) >= floor else",
           "run_postselected reads Constant at |amplitude| equal to the "
           "floor",
           "the two differ only when |amplitude| equals the floor to the "
           "last bit"),
    Mutant("view-guard-dropped", REWRITE,
           "if d.__class__ is _View and all(\n"
           "            v in protected for v, _, _ in d._record.carriers):",
           "if d.__class__ is _View:",
           "simplify_mbqc takes a view's record even where a rule may read "
           "a phase the view sets"),
    Mutant("view-guard-reads-the-first-carrier", REWRITE,
           "v in protected for v, _, _ in d._record.carriers):",
           "v in protected for v, _, _ in d._record.carriers[:1]):",
           "simplify_mbqc checks only a view's first carrier for protection"),
    Mutant("rewrite-drops-fused-sources", REWRITE,
           "tuple([s for p in inputs for s in sources.get(p, ())]))",
           "tuple(sources.get(inputs[0], ())))",
           "a survivor keeps only its lowest input's sources, dropping "
           "those of the carriers fused into it"),
    Mutant("rewrite-offset-zero", REWRITE,
           "(v, reduced.spiders[v].phase,",
           "(v, ZERO,",
           "a survivor's offset is 0, not its reduced phase"),
    Mutant("view-build-drops-the-phases", DIAGRAM,
           "        for v, offset, sources in record.carriers:\n"
           "            self.spiders[v].phase = _carrier_sum(offset, sources, "
           "values)\n",
           "",
           "a view builds its record's state without its carriers' phases"),
    Mutant("view-build-leaves-the-view", DIAGRAM,
           '        object.__setattr__(self, "__class__", ZxDiagram)\n',
           "",
           "a built view stays a view"),
    Mutant("template-key-without-readouts", MBQC,
           "return _fill(_view_template(d._record, readouts), d._values)",
           "return _fill(_view_template(d._record, None), d._values)",
           "a view's pattern templates are kept per record, not per readout "
           "choice"),
    Mutant("view-copy-shares-state", DIAGRAM,
           "        return _View(self._record, self._values)",
           "        return self",
           "copy() of a view returns the view itself"),
    Mutant("zero-plus-phase-is-zero", PHASE,
           "        if not self[0]:\n            return other\n",
           "        if not self[0]:\n            return self\n",
           "Phase.__add__ returns the zero left operand, not the other one"),
    Mutant("memo-unbounded", REWRITE,
           "@functools.lru_cache(MEMO_SHAPES)",
           "@functools.lru_cache(None)",
           "the rewrite memo keeps every key"),
    Mutant("gflow-hands-out-the-memo", MBQC,
           "return dict(g), dict(layer)",
           "return g, layer",
           "find_gflow returns the memo's own dicts"),
    Mutant("lattice-key-without-spare-angles", MBQC,
           "        p.angles[q] for q in p.qubits() if q not in "
           "_LATTICE_CARRIER_IDS]))",
           "        ZERO for q in p.qubits() if q not in "
           "_LATTICE_CARRIER_IDS]))",
           "reduce_lattice's key leaves out the non-carrier angles"),
    Mutant("reduction-spares-reversed", MBQC,
           "spares = iter(spare_angles)",
           "spares = reversed(spare_angles)",
           "_reduction gives the spare angles to the spares in reverse "
           "order"),
    Mutant("pattern-bool-id-let-through", MBQC,
           "for q in itertools.chain(angles, readouts, z_basis, *edges):\n"
           "            _qubit_id(q)\n",
           "for q in itertools.chain(angles, readouts, z_basis, *edges):\n"
           "            isinstance(q, int) or _qubit_id(q)\n",
           "the constructor takes a bool for an int qubit id"),
    Mutant("usage-error-exits-1", CLI,
           "        return 2\n    except ZxError as exc:",
           "        return 1\n    except ZxError as exc:",
           "main exits 1 on a usage error"),
    Mutant("domain-error-exits-2", CLI,
           "        return 1\n\n\nif __name__",
           "        return 2\n\n\nif __name__",
           "main exits 2 on a domain error"),
    Mutant("negative-seed-let-through", CLI,
           "if args.seed < 0:",
           "if args.seed < -1:",
           "simulate lets --seed -1 through"),
    Mutant("parity-coefficient-sign", "src/zxdj/oracle.py",
           "phases[(2 * (table & mask).bit_count() - ones) % size]",
           "phases[(ones - 2 * (table & mask).bit_count()) % size]",
           "phase_polynomial flips every parity coefficient's sign"),
    Mutant("parity-set-takes-the-next-bit", "src/zxdj/oracle.py",
           "| {n - (mask & -mask).bit_length()})",
           "| {n - 1 - (mask & -mask).bit_length()})",
           "each parity set adds the input after its mask's lowest bit"),
    Mutant("ripple-add-carry-dropped", CIRCUIT,
           "carry = p & b | carry & (p ^ b)",
           "carry = p & b",
           "dj_run_circuit's ripple-carry add drops the incoming carry"),
    Mutant("constant-at-half-magnitude", CIRCUIT,
           "if (1 << w) in map(abs, a.values()):",
           "if (1 << w - 1) in map(abs, a.values()):",
           "dj_run_circuit reads Constant at |a_j| = 2^(w-1), not 2^w"),
    Mutant("pattern-self-edge-unnamed", MBQC,
           "if len(e) == 1:",
           "if len(e) == 0:",
           "the constructor names a self-edge an edge that joins 1 qubit"),
    Mutant("pattern-hyperedge-let-through", MBQC,
           "if len(e) != 2:",
           "if len(e) > 3:",
           "the constructor accepts an edge of three qubits"),
    Mutant("pattern-edge-to-no-qubit-let-through", MBQC,
           "if not e <= angles.keys():",
           "if False:",
           "the constructor accepts an edge to a qubit it does not list"),
    Mutant("pattern-unknown-readout-let-through", MBQC,
           "unknown = [q for q in readouts if q not in listed]",
           "unknown = []",
           "the constructor accepts a readout that names no qubit"),
    Mutant("pattern-repeated-readout-let-through", MBQC,
           "if len(set(readouts)) != len(readouts):",
           "if len(set(readouts)) > len(readouts):",
           "the constructor accepts a readout named twice"),
    Mutant("pattern-z-basis-id-unchecked", MBQC,
           "if q not in angles:",
           "if False:",
           "the constructor reads the angle of a z-basis id that names no "
           "qubit"),
    Mutant("pattern-z-basis-angle-let-through", MBQC,
           "if not angles[q].is_zero():",
           "if False:",
           "the constructor accepts a z-basis qubit with a nonzero angle"),
    Mutant("pattern-angles-shared-with-the-caller", MBQC,
           "angles = MappingProxyType(dict(self.angles))",
           "angles = MappingProxyType(self.angles)",
           "the pattern's angles are a view of the caller's dict"),
    Mutant("template-carrier-in-the-z-basis", MBQC,
           "if q not in self.pattern.angles or q in self.pattern.z_basis]",
           "if q not in self.pattern.angles]",
           "a template accepts a z-basis carrier, which a fill would give "
           "an angle"),
    Mutant("shape-without-readouts", MBQC,
           "_shape=_Shape(listed, edges, readouts, z_basis))",
           "_shape=_Shape(listed, edges, (), z_basis))",
           "a pattern's shape leaves out its readouts"),
    Mutant("shape-without-z-basis", MBQC,
           "_shape=_Shape(listed, edges, readouts, z_basis))",
           "_shape=_Shape(listed, edges, readouts, frozenset()))",
           "a pattern's shape leaves out its z basis"),
    Mutant("shape-ids-in-dict-order", MBQC,
           "_shape=_Shape(listed, edges, readouts, z_basis))",
           "_shape=_Shape(tuple(angles), edges, readouts, z_basis))",
           "a pattern's shape lists the ids in the angles' dict order"),
    Mutant("fill-copies-the-edges", MBQC,
           "vars(p).update(vars(t.pattern), angles=MappingProxyType(angles))",
           "vars(p).update(vars(t.pattern), angles=MappingProxyType(angles),"
           " edges=frozenset(set(t.pattern.edges)))",
           "_fill copies the template's edge set"),
    Mutant("phase-membership-let-through", PHASE,
           "    __contains__ = None\n",
           "",
           "2 in HALF_PI reads the phase as a tuple"),
    Mutant("phase-times-int-let-through", PHASE,
           "__mul__ = __rmul__ = __radd__  #",
           "__rmul__ = __radd__  #",
           "HALF_PI * 2 repeats the pair"),
    Mutant("int-times-phase-let-through", PHASE,
           "__mul__ = __rmul__ = __radd__  #",
           "__mul__ = __radd__  #",
           "2 * HALF_PI repeats the pair"),
    Mutant("phase-plus-pair-let-through", PHASE,
           "        if other.__class__ is not Phase:\n",
           "        if False:\n",
           "HALF_PI + (1, 2) reads the pair as a phase"),
    Mutant("tuple-plus-phase-let-through", PHASE,
           "__mul__ = __rmul__ = __radd__  #",
           "__mul__ = __rmul__ = __radd__; del __radd__  #",
           "(0, 1) + HALF_PI concatenates the pairs"),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tier1(copy: Path, tests: tuple[str, ...] = ()) -> bool:
    """Whether Tier-1 passes on ``copy``, or only its test files ``tests``
    when given, checking first that the copy's package is the one
    imported."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import zxdj; print(zxdj.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(copy):
        raise SystemExit(f"zxdj imported from {where.stdout.strip()}, "
                         f"not from {copy}")
    try:
        run = subprocess.run(TIER1 + list(tests), cwd=copy, env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False  # a suite that hangs does not pass
    return run.returncode == 0


def _probe(mutant: Mutant | None) -> tuple[str | None, float]:
    """Which run killed ``mutant`` (None applies none): ``"module"`` for
    its module's own test file, ``"tier1"`` for all of Tier-1, or None when
    both pass; and the seconds the runs took."""
    with tempfile.TemporaryDirectory(prefix="zxdj-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        start = time.perf_counter()
        killed = None
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            target.write_text(text.replace(mutant.old, mutant.new))
            own = f"tests/test_{Path(mutant.path).stem}.py"
            if (copy / own).exists() and not _tier1(copy, (own,)):
                killed = "module"
        if killed is None and not _tier1(copy):
            killed = "tier1"
        return killed, round(time.perf_counter() - start, 1)


def table_is_stale() -> bool:
    """Whether some mutant's old text is not in its file exactly once; it
    names those mutants on stderr."""
    stale = [m.name for m in MUTANTS
             if (ROOT / m.path).read_text().count(m.old) != 1]
    if stale:
        print(f"old text not found exactly once: {stale}", file=sys.stderr)
    return bool(stale)


def main() -> int:
    if table_is_stale():
        return 2
    killed, seconds = _probe(None)
    if killed:
        print(f"Tier-1 fails on the unmutated copy ({seconds} s)",
              file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        killed, seconds = _probe(m)
        print(json.dumps({"mutant": m.name, "file": m.path, "fault": m.fault,
                          "killed": killed is not None, "by": killed,
                          "equivalent": m.equivalent, "seconds": seconds}),
              flush=True)
        if killed is None and m.equivalent is None:
            survivors.append(m.name)
    if survivors:
        print(f"surviving mutants: {survivors}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
