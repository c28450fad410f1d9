import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from confsphere import functional, mobius, stability
from confsphere.cli import main
from confsphere.spectral import SpectralFunction, constant_function, random_positive_function, to_json_dict


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


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--n", "3", "--m", "2"),
        ("energy", "--n", "1", "--m", "1", "--L", "16", "--seed", "2"),
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--max-iter", "2"),
        ("green-check", "--n", "1", "--m", "1", "--L", "16", "--samples", "2"),
        ("counterexample-sin", "--L", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_each_json_report_starts_with_its_provenance_header(capsys, argv):
    main(list(argv))
    data = json.loads(capsys.readouterr().out)
    assert list(data)[:5] == ["n", "m", "L", "seed", "version"]
    assert len(data) > 5


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
    path.write_text(json.dumps(to_json_dict(u)))
    code, out = run_cli(capsys, "energy", "--n", "1", "--m", "1", "--L", "16", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["minValue"] > 0


@pytest.mark.parametrize(
    "n,m,value,expected",
    [(3, 2, 1e150, 0), (1, 1, 1e200, 2), (1, 2, 1e-12, 0), (1, 1, 1e-200, 2), (3, 2, 1e-310, 2)],
)
def test_energy_of_a_huge_constant_exits_cleanly(tmp_path, n, m, value, expected):
    # a report where E and the norm are finite at that scale, else a typed
    # error: exit 2, no traceback.  The gate is relative, so 1e-12 passes it;
    # at 1e-200 the norm overflows, and at 1e-310 the minimum is subnormal
    path = tmp_path / "u.json"
    path.write_text(json.dumps(to_json_dict(constant_function(n, value, 16))))
    argv = ["energy", "--n", str(n), "--m", str(m), "--L", "16", "--input", str(path)]
    proc = _python("import sys; from confsphere.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        assert math.isfinite(json.loads(proc.stdout)["I"])


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


@pytest.mark.parametrize(
    "argv,trials",
    [
        (("--n", "1", "--m", "1", "--L", "16", "--trials", "1", "--lambda", "1e-16"), 1),
        (("--n", "1", "--m", "1", "--L", "16", "--trials", "1", "--lambda", "1e14"), 1),
        (("--n", "3", "--m", "2", "--L", "16", "--lambda", "1e-14"), 20),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_invariance_check_exits_three_on_a_truncated_pullback(capsys, argv, trials):
    # the weight varies far beyond degree L: every row is printed as it
    # is, and one stderr line names the first row that drifts by 1 or more
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["invariance-check", *argv])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.strip().splitlines()
    assert lines[0] == "trial,lambda,energy_before,energy_after,rel_drift"
    rows = [row.split(",") for row in lines[1:]]
    assert len(rows) == trials
    assert float(rows[0][4]) >= 1.0
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: trial 0 at lambda {rows[0][1]} has rel_drift {rows[0][4]} >= 1")


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
    # centered in its Mobius gauge, the answer is the round metric
    assert list(summary).index("round_distance") == list(summary).index("final_I") + 1
    assert summary["round_distance"] < 1e-7
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
    assert data["energy_sin"] == -15 * math.pi / 16
    assert data["left_side_is_negative"] is True
    assert data["norm_factor_is_finite"] is True
    assert data["neg_power_integral"] == data["neg_power_integral_beta"]


def test_determinism_byte_identical(capsys):
    args = ["invariance-check", "--n", "1", "--m", "1", "--L", "32", "--trials", "4", "--seed", "9"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    args = ["minimize", "--n", "1", "--m", "1", "--L", "16", "--seed", "2", "--max-iter", "40"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_readme_library_example_runs_unchanged(capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines[:2]:
        assert abs(float(line) + math.pi**2) <= 1e-12 * math.pi**2
    # I is invariant under the pullback; the drift is the truncation's
    assert abs(float(lines[2])) < 1e-12
    assert Fraction(lines[3]) == Fraction(-315, 16)


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


def test_minimize_positivity_breakdown_exits_3(capsys, monkeypatch):
    # an unstable start whose last search finds every trial below the
    # positivity floor: a non-convergence, not a stall at working precision.
    # Each of its iterates passes the gate at maximum one, so this is no
    # search from an iterate already below the floor
    pulled, pullback = [], mobius.pullback

    def spy(*args):
        pulled.append(args)
        return pullback(*args)

    monkeypatch.setattr(mobius, "pullback", spy)
    code, out = run_cli(
        capsys, "minimize", "--n", "1", "--m", "3", "--L", "16", "--seed", "7", "--max-iter", "100"
    )
    data = json.loads(out)
    assert data["termination_reason"] == "positivity_breakdown"
    assert code == 3
    # the center of this concentrated answer does not converge, so recenter
    # does not pull the final iterate back by it
    assert data["round_distance"] is None
    assert pulled == []


def test_hessian_closed_form_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(stability, "h2_eigenvalue_closed", lambda n, m: Fraction(1))
    code = main(["hessian", "--n", "1", "--m", "3", "--L", "16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: degree-2 eigenvalue -315/16 != closed form 1\n"


@pytest.mark.parametrize(
    "argv,entry_point",
    [
        (("energy", "--n", "3", "--m", "2", "--L", "100000"), "functional_report"),
        (("constants", "--n", "1", "--m", "1", "--L", "100000"), "functional_value"),
    ],
)
@pytest.mark.parametrize("message", ["Unable to allocate 1.16 TiB for an array", ""])
def test_a_run_too_large_for_memory_exits_2_in_one_line(capsys, monkeypatch, argv, entry_point, message):
    # the entry point raises the MemoryError numpy raises at this L; nothing large is allocated
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(functional, entry_point, refuse)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: not enough memory for this run (")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert (message or "no detail") in captured.err


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
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--eps", "inf"),
        ("minimize", "--n", "1", "--m", "1", "--L", "16", "--seed", "-1"),
        ("green-check", "--n", "1", "--m", "1", "--samples", "0"),
        ("invariance-check", "--n", "1", "--m", "1", "--trials", "-3"),
        ("invariance-check", "--n", "1", "--m", "1", "--lambda", "-1"),
        ("invariance-check", "--n", "1", "--m", "1", "--lambda", "inf"),
        ("invariance-check", "--n", "3", "--m", "2", "--lambda", "nan"),
        ("multiplier-table", "--n", "1", "--m", "1", "--max-degree", "-2"),
        ("constants", "--n", "1", "--m", "1", "--L", "-5"),
        ("flat-identity-check", "--m", "1", "--trials", "-1"),
        ("poly-identity", "--n", "2", "--m", "1", "--deg", "-1"),
        ("poly-identity", "--n", "2", "--m", "1", "--trials", "0"),
        ("counterexample-sin", "--L", "0"),
        # an --output that cannot be written: a directory, a path under a file
        ("multiplier-table", "--n", "1", "--m", "1", "--max-degree", "2", "--output", "."),
        ("multiplier-table", "--n", "1", "--m", "1", "--max-degree", "2", "--output", os.path.join(os.devnull, "x")),
        # a pullback whose weight leaves the float range (circle, then zonal)
        ("invariance-check", "--n", "1", "--m", "1", "--L", "16", "--trials", "1", "--lambda", "1e300"),
        ("invariance-check", "--n", "3", "--m", "2", "--L", "16", "--trials", "1", "--lambda", "1e-300"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_arguments_exit_two_with_one_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
        # the report names its L, so a degree-8 function is not reported under L = 16
        json.dumps({"dim": 1, "kind": "circle", "coeffs": [3.0] + [0.0] * 16}),
        json.dumps({"dim": 1, "kind": "circle", "coeffs": []}),
    ],
    ids=("missing-file", "malformed-json", "even-circle-length", "not-an-object", "degree-other-than-L", "no-coefficients"),
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


_CIRCLE = [1.0] + [0.0] * 16
_ZONAL = [1.0] + [0.0] * 8
_AXIS = [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "n,spec",
    [
        (1, {"dim": 1, "coeffs": [_CIRCLE]}),
        (1, {"dim": 1, "coeffs": [[c] for c in _CIRCLE]}),
        (3, {"dim": 3, "coeffs": [_ZONAL], "axis": _AXIS}),
        (3, {"dim": 3, "coeffs": [[c] for c in _ZONAL], "axis": _AXIS}),
        (1, {"dim": 1.9, "coeffs": _CIRCLE}),
        (1, {"dim": True, "coeffs": _CIRCLE}),
        (3, {"dim": 3.7, "coeffs": _ZONAL, "axis": _AXIS}),
        (1, {"dim": 1, "kind": "zonal", "coeffs": _CIRCLE}),
        (1, {"dim": 1, "kind": "sphere", "coeffs": _CIRCLE}),
        (3, {"dim": 3, "kind": "circle", "coeffs": _ZONAL, "axis": _AXIS}),
    ],
    ids=(
        "circle-one-list",
        "circle-list-per-coefficient",
        "zonal-one-list",
        "zonal-list-per-coefficient",
        "dim-1.9",
        "dim-true",
        "dim-3.7",
        "circle-of-kind-zonal",
        "circle-of-kind-sphere",
        "zonal-of-kind-circle",
    ),
)
def test_energy_input_of_another_shape_or_dimension_exits_two(tmp_path, capsys, n, spec):
    # nested coefficients raised a numpy error with a traceback (exit 1), a
    # dim that is no integer was truncated to a valid one, and the kind was
    # never read (both exit 0): each is no spectral function, exit 2 in one line
    path = tmp_path / "u.json"
    path.write_text(json.dumps(spec))
    code = main(["energy", "--n", str(n), "--m", "1" if n == 1 else "2", "--L", "8", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "is not a spectral function" in captured.err


@pytest.mark.parametrize(
    "axis,expected",
    [("[0, 0, 0, NaN]", 2), ("[0, 0, 0, 1e309]", 2), ("[1e200, 0, 0, 0]", 0), ("[3e-170, 4e-170, 0, 0]", 0)],
    ids=("nan", "inf", "huge", "tiny"),
)
def test_energy_input_with_a_zonal_axis_out_of_the_normal_range(tmp_path, axis, expected):
    # a NaN or infinite axis entry was taken as a NaN axis (exit 0, silently
    # or with numpy's RuntimeWarning), [1e200, 0, 0, 0] overflowed to the zero
    # axis with a RuntimeWarning, and [3e-170, 4e-170, 0, 0] was refused as
    # the zero vector.  A non-finite axis exits 2 in one line; a finite one
    # reports the I of the unit axis; no run prints a warning or a traceback
    path = tmp_path / "u.json"
    path.write_text(f'{{"dim": 3, "coeffs": {_ZONAL}, "axis": {axis}}}')
    argv = ["energy", "--n", "3", "--m", "2", "--L", "8", "--input", str(path)]
    proc = _python("import sys; from confsphere.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if expected == 2:
        assert len(proc.stderr.splitlines()) == 1 and "must be finite" in proc.stderr
    else:
        unit = functional.functional_report(SpectralFunction(3, np.array(_ZONAL), np.array(_AXIS)), 2).functional
        assert proc.stderr == "" and json.loads(proc.stdout)["I"] == unit


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


def _python(code, *argv):
    """``code`` run in a fresh interpreter importing confsphere from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _run_python(code, *argv):
    """Last stdout line of :func:`_python`, which must exit 0."""
    proc = _python(code, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv", [(), ("counterexample-sin",), ("energy", "--n", "3", "--m", "2", "--L", "16")], ids=repr
)
def test_runtime_never_loads_scipy(argv):
    assert _run_python(_NO_SCIPY, *argv) == "RESULT 0 "


_NO_NUMPY = """
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy is blocked: " + name)
        return None

if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, _NoNumpy())
if sys.argv[2:] == ["spectrum"]:
    import confsphere
    s = confsphere.hessian_spectrum(3, 5, 8)
    print(*s.eigenvalues, s.has_negative, s.first_negative_degree)
    code = 0
else:
    from confsphere.cli import main
    code = main(sys.argv[2:])
print("RESULT", code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("multiplier-table", "--n", "3", "--m", "2", "--max-degree", "16"),
        ("hessian", "--n", "1", "--m", "3", "--L", "16"),
        ("hessian", "--n", "5", "--m", "6", "--L", "8"),
        ("poly-identity", "--n", "3", "--m", "4", "--deg", "6", "--trials", "20", "--seed", "0"),
        ("counterexample-sin",),
        ("spectrum",),
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[2:3]),
)
def test_exact_paths_run_without_numpy(capsys, argv):
    if argv == ("spectrum",):
        s = stability.hessian_spectrum(3, 5, 8)
        print(*s.eigenvalues, s.has_negative, s.first_negative_degree)
    else:
        assert main(list(argv)) == 0
    expected = capsys.readouterr().out + "RESULT 0 False\n"
    blocked, free = (_python(_NO_NUMPY, mode, *argv) for mode in ("blocked", "free"))
    assert blocked.returncode == free.returncode == 0, blocked.stderr + free.stderr
    assert blocked.stdout == free.stdout == expected


def test_numpy_subcommands_still_run_and_the_blocker_stops_them():
    argv = ("energy", "--n", "1", "--m", "1", "--L", "16")
    assert _run_python(_NO_NUMPY, "free", *argv) == "RESULT 0 True"
    blocked = _python(_NO_NUMPY, "blocked", *argv)
    assert blocked.returncode != 0 and "numpy is blocked" in blocked.stderr


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
    if argv[0] in ("multiplier-table", "counterexample-sin"):
        assert loaded == {"confsphere.cli", "confsphere.errors", "confsphere.exact"}
    if argv[0] == "hessian":
        assert loaded == {"confsphere.cli", "confsphere.errors", "confsphere.exact", "confsphere.stability"}
    if argv[0] in ("multiplier-table", "green-check"):
        assert not loaded & {"confsphere.functional", "confsphere.mobius"}
    assert ("confsphere.extremize" in loaded) == (argv[0] == "minimize")
