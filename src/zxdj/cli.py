"""Command-line front end.

Machine-readable JSON on stdout is the default on every path, including
errors (``{"error": ...}``); ``--human`` switches to aligned tables.
Exit codes: 0 success, 1 promise/domain violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .circuit import (
    Circuit, _check_width, dj_run_circuit, to_zx_tracked)
from .errors import WidthTooLargeError, ZxError
from .mbqc import (
    DEFAULT_SEED,
    MeasurementPattern,
    dj_pattern_1q,
    dj_pattern_2q,
    dj_pattern_3q,
    lattice_pattern_3q,
    patterns_isomorphic,
    pattern_from_graph_like,
    reduce_lattice,
    run_postselected,
    run_sampled,
)
from .oracle import (
    BooleanFunction,
    TABLE2_AS_PRINTED,
    Verdict,
    _ORACLE_READOUT_GATES,
    classify,
    enumerate_promise,
    oracle_circuit_3q,
    table2_function,
)
from .rewrite import simplify_mbqc

_PATTERN_MAKERS = {1: dj_pattern_1q, 2: dj_pattern_2q, 3: dj_pattern_3q}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as JSON with exit code 2."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _parse_function(args) -> BooleanFunction:
    n = args.n
    if getattr(args, "variant", None) is not None:
        if n not in (None, 2):
            raise UsageError("--variant selects a two-bit column; use with --n 2")
        if args.variant not in TABLE2_AS_PRINTED:
            raise UsageError(f"unknown variant {args.variant!r}; "
                             f"choose from {', '.join(TABLE2_AS_PRINTED)}")
        return table2_function(args.variant)
    if n is None or args.table is None:
        raise UsageError("--n and --table (or --variant) are required")
    try:
        return BooleanFunction.parse(n, args.table)
    except (ValueError, WidthTooLargeError) as exc:
        raise UsageError(str(exc))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _emit(doc, args, human_lines=None) -> None:
    if getattr(args, "human", False) and human_lines is not None:
        text = "\n".join(human_lines) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    f = _parse_function(args)
    verdict = classify(f)
    _emit({"verdict": verdict.value}, args,
          [f"n={f.n} table={f.table} verdict={verdict.value}"])
    return 0


def _cmd_synth_circuit(args) -> int:
    f = _parse_function(args)
    if f.n != 3:
        raise UsageError("synth-circuit supports --n 3 only")
    c = oracle_circuit_3q(f)
    lines = [f"width {c.width}"] + [
        f"  {g.op} {' '.join(map(str, g.qubits))}"
        + (f" phase={g.phase}" if g.phase is not None else "")
        for g in c.gates
    ]
    _emit(c.to_json_dict(), args, lines)
    return 0


# what a malformed JSON file can raise while it is parsed and loaded; a
# RecursionError comes from nesting too deep for the decoder
_MALFORMED = (KeyError, ValueError, TypeError, RecursionError)


def _load(path: str, kind: str, parse):
    """``parse`` applied to the text of the file at ``path``; a file that
    cannot be read or parsed is a usage error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {kind} file: {exc}")
    except _MALFORMED as exc:
        raise UsageError(f"malformed {kind} JSON: {exc}")


def _load_circuit(path: str) -> Circuit:
    """Load a circuit document no wider than ``circuit.MAX_WIDTH``."""
    c = _load(path, "circuit", Circuit.from_json)
    _check_width(c)
    return c


def _pattern_from_text(text: str) -> MeasurementPattern:
    """A pattern document, or a ``compile-mbqc`` or ``lattice`` output whose
    ``"pattern"`` key holds one."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "pattern" in doc:
        doc = doc["pattern"]
    return MeasurementPattern.from_json_dict(doc)


def _pattern_of(args) -> MeasurementPattern:
    """The ``--pattern`` file, else the hand-built pattern of the function."""
    if args.pattern:
        return _load(args.pattern, "pattern", _pattern_from_text)
    f = _parse_function(args)
    if f.n not in _PATTERN_MAKERS:
        raise UsageError("--n must be 1, 2, or 3")
    return _PATTERN_MAKERS[f.n](f)


def _compile(c: Circuit, oracle: bool = False):
    """Compile a circuit to a pattern.  An ``oracle_circuit_3q`` circuit
    reads out the carriers of its parity coefficients, which gives the
    pattern an XY gflow; any other circuit keeps the default readout of
    ``pattern_from_graph_like`` (the highest qubit id)."""
    d, carriers = to_zx_tracked(c)
    reduced, steps = simplify_mbqc(d, frozenset(carriers))
    readouts = [carriers[i] for i in _ORACLE_READOUT_GATES] if oracle else None
    return pattern_from_graph_like(reduced, readouts), steps


def _cmd_compile_mbqc(args) -> int:
    if args.circuit:
        c = _load_circuit(args.circuit)
    else:
        f = _parse_function(args)
        if f.n != 3:
            raise UsageError("compile-mbqc without --circuit supports --n 3 only")
        c = oracle_circuit_3q(f)
    pattern, steps = _compile(c, oracle=not args.circuit)
    doc = {"pattern": pattern.to_json_dict()}
    if args.trace:
        doc["trace"] = [s.to_json_dict() for s in steps]
    lines = [f"{len(pattern.angles)} qubits, {len(pattern.edges)} edges"] + [
        f"  q{q}: {pattern.angles[q]}" for q in pattern.qubits()
    ]
    _emit(doc, args, lines)
    return 0


def _cmd_simulate(args) -> int:
    if args.shots < 0:
        raise UsageError("--shots must not be negative")
    if args.seed < 0:
        raise UsageError("--seed must not be negative")
    if args.circuit:
        c = _load_circuit(args.circuit)
        verdict = dj_run_circuit(c)
        # the verdict fixes the magnitude: 1 for Constant, 0 for Balanced
        amp = _fmt(1.0 if verdict is Verdict.CONSTANT else 0.0)
        doc = {"verdict": verdict.value, "amplitude_abs": amp}
        _emit(doc, args, [f"verdict={verdict.value} |amplitude|={amp}"])
        return 0
    p = _pattern_of(args)
    if args.shots:
        out = run_sampled(p, seed=args.seed, shots=args.shots)
        if out.agreeing_shots < out.shots:
            doc = {"error": "readout is not deterministic: the shots disagree",
                   "shots": out.shots, "agreeing_shots": out.agreeing_shots}
            _emit(doc, args, [f"error: {doc['error']} "
                              f"({out.agreeing_shots}/{out.shots} agree)"])
            return 1
        doc = {"verdict": out.verdict.value, "shots": out.shots,
               "agreeing_shots": out.agreeing_shots}
        _emit(doc, args, [f"verdict={out.verdict.value} "
                          f"({out.agreeing_shots}/{out.shots} shots agree)"])
    else:
        out = run_postselected(p)
        doc = {"verdict": out.verdict.value,
               "amplitude_abs": _fmt(abs(out.amplitude))}
        _emit(doc, args, [f"verdict={out.verdict.value} "
                          f"|amplitude|={_fmt(abs(out.amplitude))}"])
    return 0


def _verify_record_3q(f: BooleanFunction) -> dict:
    expected = classify(f)
    oracle = oracle_circuit_3q(f)
    circuit_v = dj_run_circuit(oracle)
    pipeline, _ = _compile(oracle, oracle=True)
    pipeline_v = run_postselected(pipeline).verdict
    pattern_v = run_postselected(dj_pattern_3q(f)).verdict
    lattice_v = run_postselected(lattice_pattern_3q(f)).verdict
    verdicts = {"circuit": circuit_v, "pipeline": pipeline_v,
                "pattern": pattern_v, "lattice": lattice_v}
    return {
        "table": f.table,
        "expected": expected.value,
        **{k: v.value for k, v in verdicts.items()},
        "agree": all(v is expected for v in verdicts.values()),
    }


def _verify_record_small(f: BooleanFunction, variant=None) -> dict:
    expected = classify(f)
    p = _PATTERN_MAKERS[f.n](f)
    pattern_v = run_postselected(p).verdict
    sampled = run_sampled(p, shots=100)
    rec = {"table": f.table}
    if variant is not None:
        rec["variant"] = variant
    rec.update({
        "expected": expected.value,
        "pattern": pattern_v.value,
        "sampled": sampled.verdict.value,
        "sampled_agreeing": sampled.agreeing_shots,
        "agree": pattern_v is expected and sampled.verdict is expected
        and sampled.agreeing_shots == sampled.shots,
    })
    return rec


def _cmd_verify_all(args) -> int:
    n = args.n
    if n is None:
        raise UsageError("--n is required")
    if n == 3:
        records = [_verify_record_3q(f) for f in enumerate_promise(3)]
    elif n == 2:
        by_table = {table2_function(v).table: v for v in TABLE2_AS_PRINTED}
        records = [_verify_record_small(f, by_table.get(f.table))
                   for f in enumerate_promise(2)]
    elif n == 1:
        records = [_verify_record_small(f) for f in enumerate_promise(1)]
    else:
        raise UsageError("--n must be 1, 2, or 3")
    doc = {"n": n, "count": len(records),
           "all_agree": all(r["agree"] for r in records),
           "records": records}
    header = f"{'table':>6}  {'expected':<9} agree"
    lines = [header] + [
        f"{r['table']:>6}  {r['expected']:<9} {str(r['agree']).lower()}"
        for r in records
    ] + [f"all agree: {str(doc['all_agree']).lower()}"]
    _emit(doc, args, lines)
    return 0 if doc["all_agree"] else 1


def _cmd_lattice(args) -> int:
    f = _parse_function(args)
    if f.n != 3:
        raise UsageError("lattice supports --n 3 only")
    p = lattice_pattern_3q(f)
    doc = {"pattern": p.to_json_dict()}
    if args.reduce:
        reduced, steps = reduce_lattice(p)
        doc["reduced"] = reduced.to_json_dict()
        doc["isomorphic_to_compiled"] = patterns_isomorphic(
            reduced, dj_pattern_3q(f))
        if args.trace:
            doc["trace"] = [s.to_json_dict() for s in steps]
    lines = [f"{len(p.angles)} qubits, {len(p.edges)} edges"]
    if args.reduce:
        lines.append(f"reduced to {len(doc['reduced']['qubits'])} qubits; "
                     f"isomorphic: {doc['isomorphic_to_compiled']}")
    _emit(doc, args, lines)
    return 0


def _cmd_export_dot(args) -> int:
    if not args.out:
        raise UsageError("export-dot requires --out FILE")
    if args.circuit:
        target = to_zx_tracked(_load_circuit(args.circuit))[0]
        nodes = len(target.spiders)
    else:
        target = _pattern_of(args)
        nodes = len(target.angles)
    _write(args.out, target.to_dot() + "\n")
    edges = len(target.edges)
    doc = {"written": args.out, "nodes": nodes, "edges": edges}
    # --out names the DOT file here, so the summary goes to stdout
    summary_args = argparse.Namespace(**{**vars(args), "out": None})
    _emit(doc, summary_args, [f"wrote {args.out} ({nodes} nodes, {edges} edges)"])
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="zxdj", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p, files=False, sampling=False, variant=False):
        p.add_argument("--human", action="store_true")
        p.add_argument("--out")
        p.add_argument("--n", type=int)
        p.add_argument("--table")
        if variant:  # a two-bit function, so not where n must be 3
            p.add_argument("--variant")
        if files:
            p.add_argument("--circuit")
            p.add_argument("--pattern")
        if sampling:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--shots", type=int, default=0)

    common(sub.add_parser("classify"), variant=True)
    common(sub.add_parser("synth-circuit"))
    p = sub.add_parser("compile-mbqc")
    common(p)
    p.add_argument("--circuit")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("simulate")
    common(p, files=True, sampling=True, variant=True)
    p = sub.add_parser("verify-all")
    p.add_argument("--n", type=int)
    p.add_argument("--human", action="store_true")
    p.add_argument("--out")
    p = sub.add_parser("lattice")
    common(p)
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("export-dot")
    common(p, files=True, variant=True)
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "synth-circuit": _cmd_synth_circuit,
    "compile-mbqc": _cmd_compile_mbqc,
    "simulate": _cmd_simulate,
    "verify-all": _cmd_verify_all,
    "lattice": _cmd_lattice,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required "
                             f"({', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except ZxError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
