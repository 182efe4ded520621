"""Command-line interface: JSON contract, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MEMOS

from zxdj import cli, mbqc, tensor
from zxdj.cli import main
from zxdj.circuit import (
    MAX_WIDTH, Circuit, _apply_gates, hadamard, pauli_z, plus_amplitude)
from zxdj.mbqc import (
    MeasurementPattern,
    dj_pattern_2q,
    lattice_pattern_3q,
    run_postselected,
)
from zxdj.oracle import (
    BooleanFunction, Verdict, classify, enumerate_promise, oracle_circuit_3q)
from zxdj.phase import HALF_PI


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_classify_json_contract(capsys):
    code, out = run(capsys, "classify", "--n", "2", "--table", "0110")
    assert code == 0
    assert json.loads(out) == {"verdict": "balanced"}
    code, out = run(capsys, "classify", "--n", "2", "--table", "0")
    assert code == 0
    assert json.loads(out) == {"verdict": "constant"}


def test_classify_variant_and_human(capsys):
    code, out = run(capsys, "classify", "--variant", "iii", "--human")
    assert code == 0
    assert "balanced" in out and "{" not in out


def test_usage_errors_exit_2(capsys):
    for argv in ([],
                 ["classify"],
                 ["classify", "--n", "2", "--table", "xyz"],
                 ["classify", "--variant", "ix"],
                 ["synth-circuit", "--n", "2", "--table", "0110"],
                 ["verify-all"],
                 ["verify-all", "--n", "4"],
                 ["export-dot", "--n", "1", "--table", "01"],
                 ["no-such-command"]):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in json.loads(out), argv


def test_variant_is_refused_where_no_two_bit_function_fits(capsys):
    # synth-circuit, compile-mbqc and lattice need n = 3, and --variant
    # names a two-bit function, so they do not take the flag at all
    for argv in (["synth-circuit"], ["compile-mbqc"], ["lattice"],
                 ["compile-mbqc", "--n", "3", "--table", "01101001"]):
        code, out = run(capsys, *argv, "--variant", "iii")
        assert code == 2, argv
        assert "unrecognized arguments: --variant iii" in json.loads(
            out)["error"], argv


def test_domain_errors_exit_1(capsys):
    code, out = run(capsys, "classify", "--n", "2", "--table", "0111")
    assert code == 1
    assert "error" in json.loads(out)


def test_synth_circuit_round_trips(capsys, tmp_path):
    code, out = run(capsys, "synth-circuit", "--n", "3", "--table",
                    "01101001")
    assert code == 0
    c = Circuit.from_json_dict(json.loads(out))
    assert c.width == 3 and len(c.gates) == 13


def test_compile_mbqc_shape(capsys):
    code, out = run(capsys, "compile-mbqc", "--n", "3", "--table", "01101001")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pattern"]["qubits"]) == 11
    assert len(doc["pattern"]["edges"]) == 12
    assert "order" not in doc["pattern"]


def test_simulate_pattern_and_shots(capsys):
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110")
    assert code == 0
    assert json.loads(out)["verdict"] == "balanced"
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110",
                    "--shots", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"verdict": "balanced", "shots": 20, "agreeing_shots": 20}
    # --shots 0 is the default: post-selection, which never samples
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110",
                    "--shots", "0")
    assert code == 0
    assert json.loads(out) == {"verdict": "balanced", "amplitude_abs": "0"}


def test_simulate_circuit_file(capsys, tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(Circuit(2, [pauli_z(0)]).to_json())
    code, out = run(capsys, "simulate", "--circuit", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "balanced"
    bad = tmp_path / "bad.json"
    bad.write_text(Circuit(1, [hadamard(0)]).to_json())
    code, out = run(capsys, "simulate", "--circuit", str(bad))
    assert code == 1


def test_simulate_circuit_builds_at_most_one_state_vector(capsys, tmp_path,
                                                          monkeypatch):
    # the verdict fixes the printed magnitude, so only dj_run_circuit's own
    # fallback (for the H gates) builds a state vector
    calls = []
    monkeypatch.setattr(
        "zxdj.circuit._apply_gates",
        lambda c, state: (calls.append(c), _apply_gates(c, state))[1])
    path = tmp_path / "hzh.json"
    path.write_text(
        Circuit(1, [hadamard(0), pauli_z(0), hadamard(0)]).to_json())
    code, out = run(capsys, "simulate", "--circuit", str(path))
    assert code == 0
    assert json.loads(out) == {"verdict": "constant", "amplitude_abs": "1"}
    assert len(calls) == 1


def test_simulate_circuit_with_a_negative_width_exits_2(capsys, tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"width": -1, "gates": []}))
    code, out = run(capsys, "simulate", "--circuit", str(path))
    assert code == 2
    assert "error" in json.loads(out)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)
# near-valid circuits, with values that pass a lax check mixed in
_gates = st.fixed_dictionaries(
    {"op": st.sampled_from(["phase", "z", "y", "h", "cnot", "x"]) | _json_values,
     "qubits": st.lists(st.sampled_from([0, 1, 2, -1, 7, 0.0, 1.5, True, "1"])
                        | _json_values, max_size=3)},
    optional={"phase": st.sampled_from(["1/4", "1", "1/0", "pi"])
              | _json_values})
_circuit_docs = st.fixed_dictionaries(
    {"width": st.sampled_from([-1, 0, 1, 2, 3, 11, 10 ** 6, 2.0, 1.5, "2",
                               True])
     | _json_values,
     "gates": st.lists(_gates, max_size=4) | _json_values})


def _assert_document_contract(root, command, flag, text):
    """Run ``command`` on ``text`` as its ``flag`` file: exit 0, 1 or 2 and
    exactly one JSON document on stdout.  export-dot writes its DOT file
    into ``root``."""
    path = root / "input.json"
    path.write_text(text)
    argv = [*command.split(), flag, str(path)]
    if command == "export-dot":
        argv += ["--out", str(root / "out.dot")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    json.loads(out.getvalue())


@given(st.one_of(_circuit_docs.map(json.dumps), _json_values.map(json.dumps),
                 st.text(max_size=20)),
       st.sampled_from(["simulate", "compile-mbqc", "export-dot"]))
@settings(max_examples=150, deadline=None)
def test_simulate_circuit_fuzz_keeps_the_contract(tmp_path_factory, text,
                                                 command):
    # every command that takes --circuit, despite the name
    _assert_document_contract(tmp_path_factory.mktemp("fuzz"), command,
                              "--circuit", text)


_ids = st.sampled_from([0, 1, 2, 3, -1, 1.0, True, "a", "1", None])
_angles = st.sampled_from(["0", "1/2", "1", "3/2", "1/4", "7/4", "1/3"])
_rarely = st.sampled_from([False] * 4 + [True])


@st.composite
def _near_valid_patterns(draw):
    """Small patterns whose ids mix types; any field may be replaced by
    arbitrary JSON, and edges and readouts name the drawn ids.  A qubit
    record or an edge may repeat."""
    ids = draw(st.lists(_ids, min_size=1, max_size=5, unique_by=repr))
    qubits = []
    for q in ids:
        rec = {"id": q, "angle": draw(_angles)}
        if draw(_rarely):
            rec["basis"] = draw(st.sampled_from(["z", "x"]) | _json_values)
        qubits.append(rec)
    if draw(_rarely):
        draw(st.sampled_from(qubits))["angle"] = draw(_json_values)
    if draw(_rarely):  # a repeated qubit record
        qubits.append({"id": draw(st.sampled_from(ids)),
                       "angle": draw(_angles)})
    pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2)
    edges = draw(st.lists(pair, max_size=3))
    if edges and draw(_rarely):  # a repeated edge, perhaps reversed
        edges.append(draw(st.sampled_from(edges))[::draw(
            st.sampled_from([1, -1]))])
    doc = {"qubits": qubits,
           "edges": edges,
           "readouts": draw(st.lists(st.sampled_from(ids), max_size=2))}
    if draw(_rarely):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_json_values)
    return doc


@st.composite
def _large_clifford_patterns(draw):
    """Up to 40 qubits at multiples of pi/2, z-basis qubits included."""
    n = draw(st.integers(10, 40))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.random()
    z_basis = {q for q in range(n) if rng.random() < 0.1}
    qubits = [{"id": q, "angle": "0", "basis": "z"} if q in z_basis else
              {"id": q, "angle": rng.choice(["0", "1/2", "1", "3/2"])}
              for q in range(n)]
    edges = [list(e) for e in itertools.combinations(range(n), 2)
             if rng.random() < density]
    readouts = rng.sample(range(n), rng.randint(0, 3))
    return {"qubits": qubits, "edges": edges, "readouts": readouts}


_pattern_texts = st.one_of(
    _near_valid_patterns().map(json.dumps),
    _near_valid_patterns().map(lambda p: json.dumps({"pattern": p})),
    _large_clifford_patterns().map(json.dumps),
    _json_values.map(json.dumps) | st.text(max_size=20))


@given(_pattern_texts,
       st.sampled_from(["simulate", "simulate --shots 10", "export-dot"]))
@settings(max_examples=150, deadline=None)
def test_simulate_pattern_fuzz_keeps_the_contract(tmp_path_factory, text,
                                                 command):
    # every command that takes --pattern, despite the name
    _assert_document_contract(tmp_path_factory.mktemp("fuzz"), command,
                              "--pattern", text)


@pytest.mark.parametrize("edges,error", [
    ([[0, 0]], "self-edge {0}"),
    ([[0, 5]], "edge {0, 5} references unknown qubit"),
    ([[0, 1, 2]], "edge {0, 1, 2} joins 3 qubits, not 2"),
], ids=["self-edge", "unknown-qubit", "three-qubit-edge"])
def test_export_dot_refuses_an_invalid_pattern(capsys, tmp_path, edges, error):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(
        {"qubits": [{"id": q, "angle": "0"} for q in range(3)],
         "edges": edges, "readouts": [0]}))
    dot = tmp_path / "pattern.dot"
    code, out = run(capsys, "export-dot", "--pattern", str(path),
                    "--out", str(dot))
    assert code == 1
    assert not dot.exists()
    # the error simulate --pattern gives on the same file
    assert (code, out) == run(capsys, "simulate", "--pattern", str(path))
    assert json.loads(out) == {"error": error}


@pytest.mark.parametrize("kind", ["circuit", "pattern"])
def test_an_unreadable_or_non_json_file_is_a_usage_error(capsys, tmp_path,
                                                         kind):
    missing = tmp_path / "missing.json"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    for path, prefix in ((missing, f"cannot read {kind} file: "),
                         (garbled, f"malformed {kind} JSON: ")):
        code, out = run(capsys, "simulate", f"--{kind}", str(path))
        assert code == 2
        assert json.loads(out)["error"].startswith(prefix)


@pytest.mark.parametrize("kind, doc, key", [
    ("circuit", {"width": 1, "gates": {}}, "gates"),
    ("circuit", {"width": 1, "gates": {"op": "z", "qubits": [0]}}, "gates"),
    ("pattern", {"qubits": {}, "edges": {}, "readouts": {}}, "qubits"),
    ("pattern", {"qubits": [{"id": 0, "angle": "0"}], "edges": {},
                 "readouts": [0]}, "edges"),
    ("pattern", {"qubits": [{"id": 0, "angle": "0"}], "edges": [],
                 "readouts": {"0": 0}}, "readouts"),
], ids=["empty-gates", "gates", "empty-pattern", "edges", "readouts"])
def test_an_object_where_a_list_belongs_is_a_usage_error(capsys, tmp_path,
                                                         kind, doc, key):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "simulate", f"--{kind}", str(path))
    assert code == 2
    assert json.loads(out) == {
        "error": f"malformed {kind} JSON: {key} must be a list"}


@pytest.mark.parametrize("command", ["simulate", "compile-mbqc", "export-dot"])
def test_every_circuit_command_caps_the_width(capsys, tmp_path, command):
    path = tmp_path / "circuit.json"
    argv = [command, "--circuit", str(path)]
    if command == "export-dot":
        argv += ["--out", str(tmp_path / "circuit.dot")]
    for width, code in ((MAX_WIDTH, 0), (MAX_WIDTH + 1, 1)):
        path.write_text(json.dumps({"width": width, "gates": []}))
        got, out = run(capsys, *argv)
        assert got == code, width
    assert json.loads(out) == {
        "error": f"width {MAX_WIDTH + 1} exceeds {MAX_WIDTH}"}


def test_simulate_pattern_with_mixed_id_types_exits_2(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"qubits": [{"id": "a", "angle": "0"}, {"id": 1, "angle": "0"}],
         "edges": [], "readouts": []}))
    code, out = run(capsys, "simulate", "--pattern", str(path))
    assert code == 2
    assert "not an int" in json.loads(out)["error"]


@pytest.mark.parametrize("doc", [
    {"qubits": [{"id": 0, "angle": "1", "basis": "y"}],
     "edges": [], "readouts": [0]},
    {"qubits": [{"id": 0, "angle": "0"}, {"id": 0, "angle": "1"}],
     "edges": [], "readouts": [0]},
    {"qubits": [{"id": 0, "angle": "0"}, {"id": 1, "angle": "0"}],
     "edges": [[0, 1], [1, 0]], "readouts": [1]},
], ids=["unknown-basis", "repeated-id", "repeated-edge"])
def test_pattern_loader_refuses_what_it_would_collapse(capsys, tmp_path, doc):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--shots", "10"]):
        code, out = run(capsys, "simulate", "--pattern", str(path), *extra)
        assert code == 2
        assert list(json.loads(out)) == ["error"]


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for flag in ("--pattern", "--circuit"):
        code, out = run(capsys, "simulate", flag, str(path))
        assert code == 2
        assert "error" in json.loads(out)


@pytest.mark.parametrize("command", [["compile-mbqc"], ["lattice", "--reduce"]])
def test_simulate_loads_a_command_output_file(capsys, tmp_path, command):
    path = tmp_path / "out.json"
    for table in ("01101001", "11111111"):
        code, _ = run(capsys, *command, "--n", "3", "--table", table,
                      "--out", str(path))
        assert code == 0
        code, out = run(capsys, "simulate", "--pattern", str(path))
        assert code == 0
        expected = classify(BooleanFunction(3, int(table, 2))).value
        assert json.loads(out)["verdict"] == expected
    if command == ["compile-mbqc"]:
        code, out = run(capsys, "simulate", "--pattern", str(path),
                        "--shots", "100")
        assert code == 0
        assert json.loads(out) == {"verdict": "constant", "shots": 100,
                                   "agreeing_shots": 100}


def test_balanced_clifford_pattern_prints_an_exact_zero(capsys):
    code, out = run(capsys, "simulate", "--n", "3", "--table", "01101001")
    assert code == 0
    assert json.loads(out) == {"verdict": "balanced", "amplitude_abs": "0"}


def test_simulate_pattern_refuses_a_too_wide_contraction(capsys, tmp_path,
                                                         monkeypatch):
    def unreachable(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(tensor, "spider_tensor", unreachable)
    n = 20
    doc = {"qubits": [{"id": q, "angle": "1/4"} for q in range(n)],
           "edges": [list(e) for e in itertools.combinations(range(n), 2)],
           "readouts": [n - 1]}
    path = tmp_path / "complete.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "simulate", "--pattern", str(path))
    assert code == 1
    assert "error" in json.loads(out)


_OUT_COMMANDS = [
    ["classify", "--n", "1", "--table", "01"],
    ["synth-circuit", "--n", "3", "--table", "01101001"],
    ["compile-mbqc", "--n", "3", "--table", "01101001"],
    ["simulate", "--n", "2", "--table", "0110"],
    ["verify-all", "--n", "1"],
    ["lattice", "--n", "3", "--table", "01101001"],
    ["export-dot", "--n", "1", "--table", "01"],
]


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=lambda argv: argv[0])
def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    code, out = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert list(json.loads(out)) == ["error"]
    assert not target.exists()


# -- argv fuzz -----------------------------------------------------------------

@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Input files for the argv fuzz, and the one path its --out may write."""
    root = tmp_path_factory.mktemp("argv")
    f = BooleanFunction(3, 0b01101001)
    (root / "circuit.json").write_text(oracle_circuit_3q(f).to_json())
    (root / "pattern.json").write_text(dj_pattern_2q(
        BooleanFunction(2, 0b0110)).to_json())
    (root / "bad.json").write_text("{")
    return root


_VALUES = {
    "--n": ["1", "2", "3", "0", "-1", "4", "40", "x"],
    "--table": ["01", "0110", "0111", "01101001", "0", "1", "xyz", ""],
    "--variant": ["i", "iii", "viii", "ix", ""],
    "--shots": ["0", "1", "5", "-5", "x"],
    "--seed": ["0", "7", "-1", "x"],
    "--circuit": ["@circuit.json", "@pattern.json", "@bad.json",
                  "@missing.json", "@."],
    "--pattern": ["@pattern.json", "@circuit.json", "@bad.json",
                  "@missing.json", "@."],
    "--out": ["@out.txt", "@missing/out.txt", "@.", ""],
}
_SWITCHES = ["--human", "--trace", "--reduce"]
# a valid argv per command, which the fuzz then perturbs
_BASES = [
    ["classify", "--n", "2", "--table", "0110"],
    ["classify", "--variant", "iii"],
    ["synth-circuit", "--n", "3", "--table", "01101001"],
    ["compile-mbqc", "--n", "3", "--table", "01101001"],
    ["compile-mbqc", "--circuit", "@circuit.json"],
    ["simulate", "--n", "2", "--table", "0110"],
    ["simulate", "--pattern", "@pattern.json"],
    ["simulate", "--circuit", "@circuit.json"],
    ["verify-all", "--n", "2"],
    ["lattice", "--n", "3", "--table", "01101001"],
    ["export-dot", "--n", "1", "--table", "01", "--out", "@out.txt"],
    ["no-such-command"],
]


@st.composite
def _argvs(draw):
    """A valid argv, maybe less one token, then up to four more flags, each
    with a near-valid value (argparse keeps a repeated flag's last value),
    a bare flag or a stray token, then maybe an --out.  A file value,
    marked by a leading @, names one of the fuzz's files, a missing file or
    directory, or the fuzz directory itself."""
    argv = list(draw(st.sampled_from(_BASES)))
    if draw(_rarely):
        del argv[draw(st.integers(0, len(argv) - 1))]
    for _ in range(draw(st.integers(0, 4))):
        token = draw(st.sampled_from(sorted(_VALUES) + _SWITCHES + ["stray"]))
        argv.append(token)
        if token in _VALUES and not draw(_rarely):
            argv.append(draw(st.sampled_from(_VALUES[token])))
    if draw(st.booleans()):  # most commands fail before they reach --out
        argv += ["--out", draw(st.sampled_from(_VALUES["--out"]))]
    return argv


@given(_argvs())
# a bare --out takes the next token as its file name
@example(["compile-mbqc", "--n", "3", "--table", "01101001",
          "--circuit", "@circuit.json", "--out", "stray"])
@settings(max_examples=200, deadline=None)
def test_argv_fuzz_keeps_the_contract(argv_files, argv):
    argv = [str(argv_files / a[1:]) if a.startswith("@") else a for a in argv]
    # argparse keeps the last --out's value; main runs in the fuzz
    # directory, so a relative one names a file there
    outs = [value for flag, value in zip(argv, argv[1:]) if flag == "--out"]
    target = argv_files / outs[-1] if outs else None
    if target is not None and target.is_file():
        target.unlink()
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_files)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    # a command that writes --out leaves stdout empty; export-dot writes
    # DOT there and its summary to stdout
    text = out.getvalue() or target.read_text()
    if "--human" in argv and code != 2:  # usage errors stay JSON
        assert text
    else:
        json.loads(text)  # exactly one JSON document


def test_verify_all_n1(capsys):
    code, out = run(capsys, "verify-all", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["all_agree"] is True


def test_verify_all_deterministic(capsys):
    _, out1 = run(capsys, "verify-all", "--n", "1")
    _, out2 = run(capsys, "verify-all", "--n", "1")
    assert out1 == out2


def test_lattice_reduce(capsys):
    code, out = run(capsys, "lattice", "--n", "3", "--table", "01101001",
                    "--reduce")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pattern"]["qubits"]) == 36
    assert len(doc["reduced"]["qubits"]) == 11
    assert doc["isomorphic_to_compiled"] is True
    assert "order" not in doc["pattern"] and "order" not in doc["reduced"]


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "pattern.dot"
    code, out = run(capsys, "export-dot", "--n", "2", "--table", "0110",
                    "--out", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == 6 and doc["edges"] == 4
    assert path.read_text().startswith("graph pattern {")


def test_simulate_negative_shots_is_usage_error(capsys):
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110",
                    "--shots", "-5")
    assert code == 2
    assert "error" in json.loads(out)


def test_simulate_negative_seed_is_usage_error(capsys):
    # numpy's default_rng raised ValueError on it, a traceback before
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110",
                    "--shots", "3", "--seed", "-1")
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_out_of_range_n_is_usage_error(capsys):
    for n in ("40", "-1"):
        code, out = run(capsys, "classify", "--n", n, "--table", "1")
        assert code == 2, n
        assert list(json.loads(out)) == ["error"], n


def test_simulate_shots_three_qubit_pattern(capsys):
    code, out = run(capsys, "simulate", "--n", "3", "--table", "01101001",
                    "--shots", "100")
    assert code == 0
    assert json.loads(out) == {"verdict": "balanced", "shots": 100,
                               "agreeing_shots": 100}


def test_simulate_shots_refuses_non_deterministic_readout(capsys, tmp_path):
    # |+> read at pi/2 gives 0 or 1 with probability 1/2 each
    path = tmp_path / "coin.json"
    path.write_text(MeasurementPattern({0: HALF_PI}, set(), [0]).to_json())
    code, out = run(capsys, "simulate", "--pattern", str(path),
                    "--shots", "200")
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "shots", "agreeing_shots"}
    assert "not deterministic" in doc["error"]
    assert doc["shots"] == 200 and 100 <= doc["agreeing_shots"] < 200


def test_simulate_shots_without_gflow_is_domain_error(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(lattice_pattern_3q(BooleanFunction(3, 0)).to_json())
    code, out = run(capsys, "simulate", "--pattern", str(path),
                    "--shots", "10")
    assert code == 1
    assert "gflow" in json.loads(out)["error"]


def test_zero_denominator_angle_is_usage_error(capsys, tmp_path):
    pattern = dj_pattern_2q(BooleanFunction.parse(2, "0110")).to_json_dict()
    pattern["qubits"][1]["angle"] = "1/0"
    circuit = Circuit(1, [hadamard(0)]).to_json_dict()
    circuit["gates"].append({"op": "phase", "qubits": [0], "phase": "1/0"})
    for flag, doc in (("--pattern", pattern), ("--circuit", circuit)):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "simulate", flag, str(path))
        assert code == 2, flag
        assert "error" in json.loads(out), flag


def test_unknown_readout_is_rejected(capsys, tmp_path):
    pattern = dj_pattern_2q(BooleanFunction.parse(2, "0110")).to_json_dict()
    pattern["readouts"].append(99)
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(pattern))
    code, out = run(capsys, "simulate", "--pattern", str(path))
    assert code == 1
    assert "99" in json.loads(out)["error"]


def test_compiled_and_reduced_patterns_sample_deterministically(capsys, tmp_path):
    # both read out the parity-coefficient carriers, so each has an XY gflow
    path = tmp_path / "pattern.json"
    for f in enumerate_promise(3):
        table = format(f.table, "08b")
        for argv, key in ((["compile-mbqc"], "pattern"),
                          (["lattice", "--reduce"], "reduced")):
            code, out = run(capsys, *argv, "--n", "3", "--table", table)
            assert code == 0
            path.write_text(json.dumps(json.loads(out)[key]))
            code, out = run(capsys, "simulate", "--pattern", str(path),
                            "--shots", "100")
            assert code == 0, (table, argv, out)
            assert json.loads(out) == {"verdict": classify(f).value,
                                       "shots": 100, "agreeing_shots": 100}


def test_compiled_circuit_file_keeps_highest_id_readout(capsys, tmp_path):
    code, out = run(capsys, "synth-circuit", "--n", "3", "--table", "01101001")
    assert code == 0
    path = tmp_path / "oracle.json"
    path.write_text(out)
    code, out = run(capsys, "compile-mbqc", "--circuit", str(path))
    assert code == 0
    pattern = json.loads(out)["pattern"]
    assert pattern["readouts"] == [max(q["id"] for q in pattern["qubits"])]


def test_compile_circuit_whose_wire_ends_share_an_edge(capsys, tmp_path):
    # simplification reaches a phase-0 Hadamard wire whose two ends already
    # share a Hadamard edge; cancelling it used to make a self-loop (exit 1)
    doc = {"width": 2, "gates": [
        {"op": "cnot", "qubits": [0, 1]},
        {"op": "phase", "qubits": [0], "phase": "5/4"},
        {"op": "h", "qubits": [0]},
        {"op": "cnot", "qubits": [1, 0]},
        {"op": "h", "qubits": [1]},
        {"op": "cnot", "qubits": [0, 1]},
        {"op": "h", "qubits": [1]},
        {"op": "phase", "qubits": [0], "phase": "0"},
        {"op": "phase", "qubits": [0], "phase": "7/4"}]}
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "compile-mbqc", "--circuit", str(path))
    assert code == 0, out
    pattern = MeasurementPattern.from_json_dict(json.loads(out)["pattern"])
    assert pattern.angles and pattern.edges
    c = Circuit.from_json_dict(doc)
    assert (abs(run_postselected(pattern).amplitude) > 1e-9) == (
        abs(plus_amplitude(c)) > 1e-9)


# SHA-256 of the "trace" arrays of compile-mbqc --trace over the 72
# three-bit tables, fixed under the first, rescanning simplifier: the
# rewrite driver must apply the same rules at the same spiders
COMPILE_TRACE_DIGEST = (
    "c89db3cdc7ca4d132196cc8f92cd21435bdc4bb16a96ebca380cd3e166f4dfc1")


def test_compile_mbqc_trace_is_unchanged(capsys):
    traces = []
    for f in enumerate_promise(3):
        code, out = run(capsys, "compile-mbqc", "--n", "3", "--table",
                        format(f.table, "08b"), "--trace")
        assert code == 0
        traces.append(json.loads(out)["trace"])
    digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
    assert digest == COMPILE_TRACE_DIGEST


# SHA-256 of the verify-all stdout, fixed when the contraction planner and
# the diagram's incidence index were introduced: a refactor must not change
# a byte of the cross-model report
VERIFY_ALL_DIGESTS = {
    "3": "e145d3a5b733089886a9d3d8b730893e4497dfe52ae21107e7a7af1ddfad1c4b",
    "2": "b1c64980ec3b6b5594a78898aa3a954a1d4ba17aad4b7765cf38dee8ae9f4c8d",
}


@pytest.mark.parametrize("n", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_output_is_byte_identical(capsys, n):
    code, out = run(capsys, "verify-all", "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS[n]


@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_all_exits_1_when_routes_disagree(capsys, monkeypatch, n):
    real = cli.run_postselected

    def flipped(p):
        out = real(p)
        out.verdict = (Verdict.BALANCED if out.verdict is Verdict.CONSTANT
                       else Verdict.CONSTANT)
        return out

    monkeypatch.setattr(cli, "run_postselected", flipped)
    code, out = run(capsys, "verify-all", "--n", n)
    assert code == 1
    assert json.loads(out)["all_agree"] is False


# SHA-256 of the simulate --circuit stdout of the 72 three-bit oracle
# circuits in enumeration order: each prints the magnitude its verdict
# fixes, 1 or 0, so a balanced table prints no round-off residue
SIMULATE_CIRCUIT_DIGEST = (
    "223f3cc0015d23ac47f8420a6f389bbe1820359979a76b51d8719ad3e2326437")


def test_simulate_circuit_output_is_byte_identical(capsys, tmp_path):
    path = tmp_path / "oracle.json"
    text = ""
    for f in enumerate_promise(3):
        path.write_text(oracle_circuit_3q(f).to_json())
        code, out = run(capsys, "simulate", "--circuit", str(path))
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_CIRCUIT_DIGEST


# SHA-256 of the concatenated synth-circuit stdout of the 72 three-bit
# tables in enumeration order, fixed when each gate of the oracle circuit
# was still built through its checked constructor: filling a checked
# template instead must not change a byte
SYNTH_CIRCUIT_DIGEST = (
    "175ffc5bb0cc8ec1afbc3db7ba9b6550e73c425c393cd11258e6096e49c9c74c")


def test_synth_circuit_output_is_byte_identical(capsys):
    text = ""
    for f in enumerate_promise(3):
        code, out = run(capsys, "synth-circuit", "--n", "3", "--table",
                        format(f.table, "08b"))
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == SYNTH_CIRCUIT_DIGEST


# SHA-256 of the concatenated lattice --reduce --trace stdout over the 72
# three-bit tables in ascending order: the first table runs the reduction,
# the other 71 replay it with their carrier angles, and neither may change a
# byte.  Last retaken when pattern_to_diagram began to number edges in
# ascending pair order, which renumbers the edge ids the trace names
LATTICE_REDUCE_DIGEST = (
    "10489dcde39f81c3c99c9d39df76d8d1cfc0385ad047e8d9bcae08d50cb152ee")


def test_lattice_reduce_output_is_byte_identical(capsys, cold_memos):
    text = ""
    for table in sorted(f.table for f in enumerate_promise(3)):
        code, out = run(capsys, "lattice", "--n", "3", "--table",
                        format(table, "08b"), "--reduce", "--trace")
        assert code == 0
        text += out
    assert mbqc._reduction.cache_info()[:2] == (71, 1)
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_REDUCE_DIGEST


# Each memo's (hits, misses) over commands run from cold in one process,
# by conftest.MEMOS name; a memo not named stays untouched.  Every pattern
# these commands build fills a template, so each key after the first hits:
# a key that stops hitting shows here, not only as a slower benchmark.
_TRAFFIC = {
    "verify-all-n3": ([["verify-all", "--n", "3"]], {
        "zx": (71, 1), "rewrite": (71, 1), "template": (71, 1),
        "exact": (213, 3)}),
    "verify-all-n2": ([["verify-all", "--n", "2"]], {
        "exact": (16, 1), "flow": (7, 1)}),
    "lattice-reduce": ([["lattice", "--n", "3", "--table",
                         format(f.table, "08b"), "--reduce"]
                        for f in enumerate_promise(3)], {"lattice": (71, 1)}),
}


@pytest.mark.parametrize("name", _TRAFFIC)
def test_memo_traffic_from_cold(capsys, cold_memos, name):
    commands, expected = _TRAFFIC[name]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0
    assert {memo: tuple(cache.cache_info()[:2])
            for memo, cache in MEMOS.items()} == {
        memo: expected.get(memo, (0, 0)) for memo in MEMOS}
