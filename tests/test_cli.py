import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from confsphere import stability
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
    with open(base + ".csv") as f:
        csv_text = f.read().splitlines()
    assert csv_text[0] == "iter,I,gradNorm,minU,baryNorm"
    assert len(csv_text) >= 3
    with open(base + ".json") as f:
        assert json.load(f)["final_I"] == summary["final_I"]


def test_green_check_ratio_constant(capsys):
    code, out = run_cli(capsys, "green-check", "--n", "1", "--m", "1", "--L", "64")
    assert code == 0
    data = json.loads(out)
    assert data["reproduce_max_abs_error"] < 1e-8
    assert data["ratio_spread"] < 1e-6
    assert abs(data["kappa_closed_form"] + 1.0) < 1e-15


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


def test_minimize_positivity_breakdown_exits_3(capsys):
    # an unstable start whose last search finds every trial below the
    # positivity floor: a non-convergence, not a stall at working precision
    code, out = run_cli(
        capsys, "minimize", "--n", "1", "--m", "3", "--L", "16", "--seed", "9", "--max-iter", "100"
    )
    data = json.loads(out)
    assert data["termination_reason"] == "positivity_breakdown"
    assert code == 3


def test_hessian_closed_form_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(stability, "h2_eigenvalue_closed", lambda n, m: Fraction(1))
    code = main(["hessian", "--n", "1", "--m", "3", "--L", "16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: degree-2 eigenvalue -315/16 != closed form 1\n"


def test_green_check_zonal(capsys):
    code, out = run_cli(capsys, "green-check", "--n", "3", "--m", "2", "--L", "48")
    assert code == 0
    data = json.loads(out)
    assert data["reproduce_max_abs_error"] < 1e-8
    assert data["ratio_spread"] < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--max-iter", "0"),
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--eps", "0"),
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--seed", "-1"),
        ("green-check", "--n", "1", "--m", "1", "--samples", "0"),
        ("invariance-check", "--n", "1", "--m", "1", "--trials", "-3"),
        ("invariance-check", "--n", "1", "--m", "1", "--lambda", "-1"),
        ("multiplier-table", "--n", "1", "--m", "1", "--max-degree", "-2"),
        ("constants", "--n", "1", "--m", "1", "--L", "-5"),
        ("flat-identity-check", "--m", "1", "--trials", "-1"),
        ("poly-identity", "--n", "2", "--m", "1", "--deg", "-1"),
        ("poly-identity", "--n", "2", "--m", "1", "--trials", "0"),
        ("counterexample-sin", "--L", "0"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_arguments_exit_two_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        json.dumps({"dim": 1, "kind": "circle", "coeffs": [1.0, 0.0]}),
        json.dumps([1.0, 0.0, 0.0]),
    ],
    ids=("missing-file", "malformed-json", "even-circle-length", "not-an-object"),
)
def test_energy_unusable_input_exits_two(tmp_path, capsys, content):
    path = tmp_path / "u.json"
    if content is not None:
        path.write_text(content)
    code = main(["energy", "--n", "1", "--m", "1", "--L", "16", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)
        return None

sys.meta_path.insert(0, _NoScipy())
from confsphere.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print("RESULT", code, ",".join(loaded))
"""


def _run_python(code, *argv):
    """Last stdout line of ``code`` run in a fresh interpreter importing confsphere from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv", [(), ("counterexample-sin",), ("energy", "--n", "3", "--m", "2", "--L", "16")], ids=repr
)
def test_runtime_never_loads_scipy(argv):
    assert _run_python(_NO_SCIPY, *argv) == "RESULT 0 "


_LOADED = """
import sys
{body}
print(" ".join(sorted(k for k in sys.modules if k.startswith("confsphere."))))
"""


def test_package_import_loads_only_errors():
    assert _run_python(_LOADED.format(body="import confsphere")) == "confsphere.errors"


def test_lazy_namespace_resolves_each_name_in_its_home_module():
    import confsphere

    errors = {name for name in confsphere.__all__ if name in vars(confsphere)}
    assert errors == set(vars(confsphere.errors)) & set(confsphere.__all__)
    listed = dir(confsphere)
    for name in confsphere.__all__:
        obj = getattr(confsphere, name)
        home = sys.modules[confsphere._HOME[name]] if name not in errors else confsphere.errors
        assert obj is getattr(home, name), name
        # type aliases such as MobiusMap carry typing's module name
        assert getattr(obj, "__module__", "typing") in (home.__name__, "typing"), name
        assert name in listed
    # nothing resolved lazily is stored in the package
    assert not (set(confsphere.__all__) - errors) & set(vars(confsphere))
    with pytest.raises(AttributeError):
        confsphere.no_such_name


def test_lazy_namespace_shows_a_function_rebound_on_its_home_module(monkeypatch):
    import confsphere
    from confsphere import spectral as home

    original = home.synthesize

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(home, "synthesize", wrapper)
    assert confsphere.synthesize is wrapper
    from confsphere import synthesize

    assert synthesize is wrapper
    monkeypatch.undo()
    # a lookup taken while the wrapper was bound does not pin it
    assert confsphere.synthesize is original


_README_ARGV = [
    ("multiplier-table", "--n", "3", "--m", "2", "--max-degree", "16"),
    ("constants", "--n", "1", "--m", "1"),
    ("energy", "--n", "1", "--m", "2", "--L", "32", "--seed", "5"),
    ("invariance-check", "--n", "1", "--m", "1", "--L", "16", "--trials", "2"),
    ("hessian", "--n", "1", "--m", "3", "--L", "16"),
    ("minimize", "--n", "1", "--m", "1", "--L", "16", "--max-iter", "3"),
    ("green-check", "--n", "1", "--m", "1", "--L", "16"),
    ("flat-identity-check", "--m", "1", "--L", "16", "--trials", "2"),
    ("poly-identity", "--n", "3", "--m", "4", "--deg", "6", "--trials", "2"),
    ("counterexample-sin",),
]


@pytest.mark.parametrize("argv", _README_ARGV, ids=lambda argv: argv[0])
def test_each_subcommand_loads_only_what_it_needs(argv):
    body = "from confsphere.cli import main\nmain(sys.argv[1:])"
    loaded = set(_run_python(_LOADED.format(body=body), *argv).split())
    if argv[0] == "poly-identity":
        assert loaded == {"confsphere.cli", "confsphere.errors", "confsphere.polyident"}
    if argv[0] in ("multiplier-table", "green-check"):
        assert not loaded & {"confsphere.functional", "confsphere.mobius"}
    assert ("confsphere.extremize" in loaded) == (argv[0] == "minimize")
