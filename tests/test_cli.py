"""Command-line interface: JSON contract, exit codes, determinism."""

import hashlib
import json

import pytest

from zxdj.cli import main
from zxdj.circuit import Circuit, hadamard, pauli_z
from zxdj.mbqc import MeasurementPattern, dj_pattern_2q, lattice_pattern_3q
from zxdj.oracle import BooleanFunction
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


def test_simulate_pattern_and_shots(capsys):
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110")
    assert code == 0
    assert json.loads(out)["verdict"] == "balanced"
    code, out = run(capsys, "simulate", "--n", "2", "--table", "0110",
                    "--shots", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"verdict": "balanced", "shots": 20, "agreeing_shots": 20}


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
    path.write_text(MeasurementPattern({0: HALF_PI}, set(), [0], [0]).to_json())
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
