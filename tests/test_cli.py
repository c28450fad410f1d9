import json
import math

import numpy as np

from confsphere.cli import main
from confsphere.spectral import dumps, random_positive_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_multiplier_table(capsys):
    code, out = run_cli(capsys, "multiplier-table", "--n", "1", "--m", "2", "--max-degree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,numerator,denominator,float_value"
    assert lines[1].startswith("0,9,16,")
    assert lines[2].startswith("1,-15,16,")


def test_constants_first_order(capsys):
    code, out = run_cli(capsys, "constants", "--n", "1", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["version"]
    assert abs(data["value"] + math.pi**2) < 1e-12
    assert data["rational_factor"] == "-1/4"
    assert data["rel_difference"] < 1e-10


def test_constants_requires_covered_order(capsys):
    code, _ = run_cli(capsys, "constants", "--n", "1", "--m", "3")
    assert code == 2


def test_energy_constant_default(capsys):
    code, out = run_cli(capsys, "energy", "--n", "1", "--m", "1", "--L", "16")
    assert code == 0
    data = json.loads(out)
    assert {"n", "m", "L", "seed", "version", "E", "negNorm", "I", "elResidual", "minValue"} <= set(data)
    assert abs(data["I"] + math.pi**2) < 1e-9
    assert data["elResidual"] < 1e-10


def test_energy_from_json_input(tmp_path, capsys):
    u = random_positive_function(1, 16, 4, np.random.default_rng(0))
    path = tmp_path / "u.json"
    path.write_text(dumps(u))
    code, out = run_cli(capsys, "energy", "--n", "1", "--m", "1", "--L", "16", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["minValue"] > 0


def test_energy_input_with_short_zonal_axis_exits_two(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"dim": 3, "kind": "zonal", "coeffs": [1.0, 0.0, 0.0], "axis": [1.0, 0.0]}))
    code, _ = run_cli(capsys, "energy", "--n", "3", "--m", "2", "--L", "16", "--input", str(path))
    assert code == 2


def test_energy_validation_failure(capsys):
    code, _ = run_cli(capsys, "energy", "--n", "2", "--m", "1", "--L", "16")
    assert code == 2
    code, _ = run_cli(capsys, "energy", "--n", "1", "--m", "1", "--L", "4")
    assert code == 2


def test_invariance_check_csv(capsys):
    code, out = run_cli(
        capsys, "invariance-check", "--n", "1", "--m", "1", "--L", "64", "--trials", "5", "--seed", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,lambda,energy_before,energy_after,rel_drift"
    assert len(lines) == 6
    drifts = [float(row.split(",")[4]) for row in lines[1:]]
    assert max(drifts) < 1e-6


def test_hessian_row_for_unstable_order(capsys):
    code, out = run_cli(capsys, "hessian", "--n", "1", "--m", "3", "--L", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert "2,-315,16,negative" in lines


def test_minimize_writes_reports(tmp_path, capsys):
    base = str(tmp_path / "run")
    code, out = run_cli(
        capsys,
        "minimize", "--n", "1", "--m", "1", "--L", "16",
        "--seed", "0", "--max-iter", "150", "--output", base,
    )
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["final_I"] + math.pi**2) / math.pi**2 < 1e-6
    csv_text = open(base + ".csv").read().splitlines()
    assert csv_text[0] == "iter,I,gradNorm,minU,baryNorm"
    assert len(csv_text) >= 3
    assert json.load(open(base + ".json"))["final_I"] == summary["final_I"]


def test_green_check_ratio_constant(capsys):
    code, out = run_cli(capsys, "green-check", "--n", "1", "--m", "1", "--L", "64")
    assert code == 0
    data = json.loads(out)
    assert data["reproduce_max_abs_error"] < 1e-8
    assert data["ratio_spread"] < 1e-6
    assert abs(data["kappa_closed_form"] + 0.25) < 1e-15


def test_flat_identity_check(capsys):
    code, out = run_cli(capsys, "flat-identity-check", "--m", "1", "--L", "64", "--trials", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,rel_error,sphere_energy,flat_energy"
    rels = [float(r.split(",")[1]) for r in lines[1:]]
    assert max(rels) < 1e-6


def test_poly_identity_exit_zero(capsys):
    code, out = run_cli(
        capsys, "poly-identity", "--n", "2", "--m", "2", "--deg", "5", "--trials", "5", "--seed", "0"
    )
    assert code == 0
    assert "identity_holds" in out.splitlines()[0]


def test_counterexample_sin(capsys):
    code, out = run_cli(capsys, "counterexample-sin")
    assert code == 0
    data = json.loads(out)
    assert abs(data["energy_sin"] + 15 * math.pi / 16) < 1e-10
    assert data["left_side_is_negative"] is True
    assert data["norm_factor_is_finite"] is True
    assert abs(data["neg_power_integral"] - data["neg_power_integral_beta"]) < 1e-10


def test_determinism_byte_identical(capsys):
    args = ["invariance-check", "--n", "1", "--m", "1", "--L", "32", "--trials", "4", "--seed", "9"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    args = ["minimize", "--n", "1", "--m", "1", "--L", "16", "--seed", "2", "--max-iter", "40"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_output_dir_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONFSPHERE_OUTPUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "multiplier-table", "--n", "1", "--m", "1", "--output", "table.csv")
    assert code == 0
    assert (tmp_path / "table.csv").exists()


def test_minimize_unstable_budget_exit_code(capsys):
    code, out = run_cli(
        capsys, "minimize", "--n", "1", "--m", "3", "--L", "16", "--seed", "0", "--max-iter", "10"
    )
    data = json.loads(out)
    assert data["termination_reason"] in ("max_iterations", "positivity_breakdown")
    assert code == 3


def test_green_check_zonal(capsys):
    code, out = run_cli(capsys, "green-check", "--n", "3", "--m", "2", "--L", "48")
    assert code == 0
    data = json.loads(out)
    assert data["reproduce_max_abs_error"] < 1e-8
    assert data["ratio_spread"] < 1e-6
