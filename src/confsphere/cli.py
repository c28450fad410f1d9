"""Command-line front end: reproducible machine-readable reports.

Every JSON report carries the provenance header {n, m, L, seed, version};
CSV is RFC-4180-style with floats at 17 significant digits and exact
rationals split into numerator/denominator columns.  Identical
configuration and seed produce byte-identical output.

Exit codes: 0 success, 2 validation failure (one line on stderr, never a
traceback), 3 numerical non-convergence, and 1 when an exact identity check
reports a nonzero residual.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__
from .errors import ConfSphereError, InvalidConfig

if TYPE_CHECKING:
    from .spectral import SpectralFunction


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _provenance(n=None, m=None, degree=None, seed=None) -> dict:
    return {"n": n, "m": m, "L": degree, "seed": seed, "version": __version__}


def _resolve_output(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get("CONFSPHERE_OUTPUT_DIR")
        if base:
            return os.path.join(base, path)
    return path


def _emit_text(text: str, path: Optional[str]) -> None:
    path = _resolve_output(path)
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidConfig(message)


def _validate_sphere(n: int, m: int, degree: Optional[int] = None, functional: bool = True):
    _require(n >= 1, "n must be >= 1")
    _require(m >= 1, "m must be >= 1")
    if functional:
        _require(2 * m > n, f"functional subcommands require 2m > n, got n={n}, m={m}")
        _require(n == 1 or n % 2 == 1, "spectral representation covers n = 1 and odd n >= 3")
    if degree is not None:
        _require(degree >= 8, "L must be >= 8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_multiplier_table(args) -> int:
    from .gjms import multiplier

    _validate_sphere(args.n, args.m, functional=False)
    _require(args.max_degree >= 0, "--max-degree must be >= 0")
    rows = []
    for alpha in range(args.max_degree + 1):
        p = multiplier(args.n, args.m, alpha)
        rows.append((alpha, p.numerator, p.denominator, _fmt(float(p))))
    _emit_text(_csv_text(("alpha", "numerator", "denominator", "float_value"), rows), args.output)
    return 0


def _sharp_constant_closed_form(n: int, m: int):
    """Exact rational factor and measure power of the sharp constant."""
    if m == (n + 1) // 2 and n % 2 == 1:
        frac = -Fraction(math.factorial(2 * n), 2 ** (2 * n + 1) * math.factorial(n))
        power = Fraction(n + 1, n)
        label = f"-({2*n})!/(2^{2*n+1} {n}!) mu^{power}"
    elif m == (n + 3) // 2 and n % 2 == 1:
        frac = Fraction(3 * math.factorial(2 * n + 1), 2 ** (2 * n + 3) * math.factorial(n))
        power = Fraction(n + 3, n)
        label = f"3 ({2*n+1})!/(2^{2*n+3} {n}!) mu^{power}"
    else:
        raise InvalidConfig(
            "closed-form sharp constants exist for odd n with m = (n+1)/2 or (n+3)/2"
        )
    return frac, power, label


def _cmd_constants(args) -> int:
    from .functional import functional_value
    from .geometry import sphere_measure
    from .spectral import constant_function

    _validate_sphere(args.n, args.m)
    frac, power, label = _sharp_constant_closed_form(args.n, args.m)
    mu = sphere_measure(args.n)
    closed = float(frac) * mu ** float(power)
    degree = args.degree
    _require(degree >= 1, "L must be >= 1")
    numeric = functional_value(constant_function(args.n, 1.0, degree), args.m)
    payload = _provenance(args.n, args.m, degree, None)
    payload.update(
        {
            "closed_form": label,
            "rational_factor": f"{frac.numerator}/{frac.denominator}",
            "measure_power": f"{power.numerator}/{power.denominator}",
            "sphere_measure": mu,
            "value": closed,
            "functional_at_one": numeric,
            "rel_difference": abs(numeric - closed) / abs(closed),
        }
    )
    _emit_text(_json_text(payload), args.output)
    return 0


def _load_function(args, degree: int) -> SpectralFunction:
    from .spectral import constant_function, from_json_dict, random_positive_function

    if args.input:
        try:
            with open(args.input) as fh:
                return from_json_dict(json.load(fh))
        except OSError as exc:
            raise InvalidConfig(f"cannot read --input: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError covers malformed JSON and rejected coefficients
            raise InvalidConfig(f"--input {args.input} is not a spectral function: {exc}") from exc
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        return random_positive_function(args.n, degree, max_degree=degree // 2, rng=rng)
    return constant_function(args.n, 1.0, degree)


def _cmd_energy(args) -> int:
    from .functional import functional_report

    _validate_sphere(args.n, args.m, args.degree)
    u = _load_function(args, args.degree)
    _require(u.n == args.n, "input function dimension does not match --n")
    report = functional_report(u, args.m)
    payload = _provenance(args.n, args.m, args.degree, args.seed)
    payload.update(
        {
            "E": report.energy,
            "negNorm": report.neg_norm,
            "I": report.functional,
            "elResidual": report.el_residual,
            "minValue": report.min_value,
        }
    )
    _emit_text(_json_text(payload), args.output)
    return 0


def _cmd_invariance_check(args) -> int:
    from .functional import energy_quadratic
    from .geometry import AxisDilation, north_pole
    from .mobius import pullback
    from .spectral import random_positive_function

    _validate_sphere(args.n, args.m, args.degree)
    _require(args.trials >= 1, "--trials must be >= 1")
    _require(args.lam is None or args.lam > 0, "--lambda must be positive")
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        # band-limit with margin: a lambda-dilation multiplies local
        # frequencies by up to lambda, so the image must fit under L
        u = random_positive_function(
            args.n, args.degree, max_degree=min(10, args.degree // 6 + 2), rng=rng
        )
        lam = args.lam if args.lam else float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        phi = AxisDilation(axis=north_pole(args.n), scale=lam)
        before = energy_quadratic(u, args.m)
        after = energy_quadratic(pullback(u, phi, args.m), args.m)
        drift = abs(after - before) / max(abs(before), 1e-300)
        rows.append((trial, _fmt(lam), _fmt(before), _fmt(after), _fmt(drift)))
    _emit_text(
        _csv_text(("trial", "lambda", "energy_before", "energy_after", "rel_drift"), rows),
        args.output,
    )
    return 0


def _cmd_hessian(args) -> int:
    from .stability import hessian_spectrum

    _validate_sphere(args.n, args.m, args.degree)
    spectrum = hessian_spectrum(args.n, args.m, args.degree)
    rows = []
    for alpha, mu in enumerate(spectrum.eigenvalues):
        sign = "zero" if mu == 0 else ("negative" if mu < 0 else "positive")
        rows.append((alpha, mu.numerator, mu.denominator, sign))
    _emit_text(_csv_text(("alpha", "mu_numerator", "mu_denominator", "sign"), rows), args.output)
    return 0


def _cmd_minimize(args) -> int:
    from .extremize import OptimizerConfig, minimize
    from .spectral import random_positive_function

    _validate_sphere(args.n, args.m, args.degree)
    _require(args.max_iter >= 1, "--max-iter must be >= 1")
    _require(args.eps > 0, "--eps must be positive")
    rng = np.random.default_rng(args.seed)
    u0 = random_positive_function(args.n, args.degree, max_degree=args.degree // 4, rng=rng)
    config = OptimizerConfig(degree=args.degree, max_iter=args.max_iter, grad_tol=args.eps)
    trace = minimize(u0, args.m, config)
    header = ("iter", "I", "gradNorm", "minU", "baryNorm")
    rows = [
        (
            i,
            _fmt(trace.values[i]),
            _fmt(trace.grad_norms[i]),
            _fmt(trace.min_values[i]),
            _fmt(trace.barycenter_norms[i]),
        )
        for i in range(len(trace.values))
    ]
    payload = _provenance(args.n, args.m, args.degree, args.seed)
    payload.update(
        {
            "final_I": trace.values[-1],
            "best_I": trace.best_value,
            "iterations": trace.iterations,
            "termination_reason": trace.termination_reason,
        }
    )
    if args.output:
        _emit_text(_csv_text(header, rows), args.output + ".csv")
        _emit_text(_json_text(payload), args.output + ".json")
    sys.stdout.write(_json_text(payload))
    # a line-search stall means no float-representable decrease remains,
    # i.e. stationarity at working precision; budget- or floor-limited
    # endings are reported as numerical non-convergence
    if trace.termination_reason in ("gradient_tolerance", "line_search_stall"):
        return 0
    return 3


def _cmd_green_check(args) -> int:
    from .gjms import (
        green_closed_values,
        green_constant,
        green_series_values,
        green_spectral,
        reproduce_at_pole,
    )
    from .spectral import constant_function, random_band_limited, synthesize

    _validate_sphere(args.n, args.m, args.degree)
    _require(args.n % 2 == 1, "the Green's function requires odd n")
    _require(args.samples >= 1, "--samples must be >= 1")

    rng = np.random.default_rng(args.seed or 0)
    green = green_spectral(args.n, args.m, args.degree)
    # reproducing property against random band-limited test functions;
    # the pole sits at angle zero (n = 1) or axis cosine one (zonal)
    pole = np.array([0.0]) if args.n == 1 else np.array([1.0])
    max_err = 0.0
    for _ in range(10):
        u = random_band_limited(args.n, args.degree, args.degree // 2, rng)
        u = u + constant_function(args.n, 1.0, args.degree)
        predicted = reproduce_at_pole(green, u, args.m)
        actual = float(synthesize(u, pole)[0])
        max_err = max(max_err, abs(predicted - actual))
    ts = np.linspace(-0.95, 0.75, args.samples)
    closed = green_closed_values(args.n, args.m, ts)
    series = green_series_values(args.n, args.m, ts)
    ratios = closed / series
    payload = _provenance(args.n, args.m, args.degree, args.seed)
    payload.update(
        {
            "kappa_closed_form": green_constant(args.n, args.m),
            "reproduce_max_abs_error": max_err,
            "sample_axis_cosines": [float(t) for t in ts],
            "closed_over_spectral": [float(r) for r in ratios],
            "ratio_mean": float(np.mean(ratios)),
            "ratio_spread": float(np.max(ratios) - np.min(ratios)),
        }
    )
    _emit_text(_json_text(payload), args.output)
    return 0


def _cmd_flat_identity_check(args) -> int:
    from .flatcheck import flat_energy_identity

    _require(args.m in (1, 2), "flat identities are implemented for m in {1, 2}")
    _require(args.degree >= 8, "L must be >= 8")
    _require(args.trials >= 1, "--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        u = admissible_random_function(args.degree, args.m, rng)
        report = flat_energy_identity(u, args.m)
        rows.append(
            (trial, _fmt(report.rel_error), _fmt(report.sphere_energy), _fmt(report.flat_energy))
        )
    _emit_text(
        _csv_text(("trial", "rel_error", "sphere_energy", "flat_energy"), rows), args.output
    )
    return 0


def admissible_random_function(degree: int, m: int, rng: np.random.Generator) -> SpectralFunction:
    """Random band-limited circle function vanishing at the pole.

    Subtracting a constant enforces u(N) = 0; for m = 2 a sine harmonic
    removes the first derivative as well, keeping the function band-limited.
    """
    from .spectral import constant_function, harmonic_basis_function, random_band_limited, synthesize

    u = random_band_limited(1, degree, degree // 2, rng, decay=0.1)
    value = float(synthesize(u, np.array([0.0]))[0])
    u = u - constant_function(1, value, degree)
    if m == 2:
        slope = float(synthesize(u, np.array([0.0]), deriv=1)[0])
        u = u - harmonic_basis_function(1, 1, degree, component="sin").scaled(
            slope * math.sqrt(math.pi)
        )
    return u


def _cmd_poly_identity(args) -> int:
    from .polyident import check_delta_k_product, check_identity_2_1, random_polynomial

    _require(args.n >= 1, "the number of variables must be >= 1")
    _require(args.m >= 0, "m must be >= 0")
    _require(args.deg >= 0, "--deg must be >= 0")
    _require(args.trials >= 1, "--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    failures = 0
    for trial in range(args.trials):
        u = random_polynomial(args.n, args.deg, rng)
        ok_identity, residual = check_identity_2_1(u, args.m)
        ok_product = check_delta_k_product(u, max(1, args.m))
        if not (ok_identity and ok_product):
            failures += 1
        rows.append((trial, ok_identity, ok_product, len(residual.terms)))
    _emit_text(
        _csv_text(("trial", "identity_holds", "product_rule_holds", "residual_terms"), rows),
        args.output,
    )
    return 1 if failures else 0


def _cmd_counterexample_sin(args) -> int:
    from .functional import energy_quadratic
    from .spectral import harmonic_basis_function, roots_jacobi

    degree = args.degree
    _require(degree >= 1, "L must be >= 1")
    sin_theta = harmonic_basis_function(1, 1, degree, component="sin").scaled(math.sqrt(math.pi))
    e4 = energy_quadratic(sin_theta, 2)
    # integral of |sin|^{-2/3} reduces to the Gauss-Jacobi weight sum for
    # (1-t^2)^{-5/6}; the Beta function gives the independent closed form
    _, w = roots_jacobi(200, -5.0 / 6.0)
    neg_integral = 2.0 * float(np.sum(w))
    beta_closed = 2.0 * math.gamma(0.5) * math.gamma(1.0 / 6.0) / math.gamma(2.0 / 3.0)
    norm_factor = neg_integral**3
    payload = _provenance(1, 2, degree, None)
    payload.update(
        {
            "energy_sin": e4,
            "energy_sin_exact": "-15 pi / 16",
            "energy_sin_expected": -15.0 * math.pi / 16.0,
            "neg_power_integral": neg_integral,
            "neg_power_integral_beta": beta_closed,
            "norm_factor": norm_factor,
            "left_side": norm_factor * e4,
            "left_side_is_negative": bool(norm_factor * e4 < 0),
            "norm_factor_is_finite": bool(math.isfinite(norm_factor)),
        }
    )
    _emit_text(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confsphere",
        description="Spectral toolkit for conformal covariant operators on round spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n=True, m=True, degree=True, seed=False):
        if n:
            p.add_argument("--n", type=int, required=True, help="sphere dimension")
        if m:
            p.add_argument("--m", type=int, required=True, help="half the operator order")
        if degree:
            p.add_argument("--L", dest="degree", type=int, default=32, help="truncation degree")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", type=str, default=None, help="output file path")

    p = sub.add_parser("multiplier-table", help="exact spectral multipliers as CSV")
    add_common(p, degree=False)
    p.add_argument("--max-degree", type=int, default=32)
    p.set_defaults(func=_cmd_multiplier_table)

    p = sub.add_parser("constants", help="sharp constants in closed form and float")
    add_common(p, degree=False)
    p.add_argument("--L", dest="degree", type=int, default=16)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("energy", help="energy report for one function")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="random positive input")
    p.add_argument("--input", type=str, default=None, help="JSON spectral function")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("invariance-check", help="energy drift under conformal pullback")
    add_common(p, seed=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_invariance_check)

    p = sub.add_parser("hessian", help="second-variation spectrum as exact CSV")
    add_common(p)
    p.set_defaults(func=_cmd_hessian)

    p = sub.add_parser("minimize", help="projected-gradient descent on the functional")
    add_common(p, seed=True)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--eps", type=float, default=1e-8, help="gradient tolerance")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("green-check", help="closed-form vs spectral Green's function")
    add_common(p, seed=True)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=_cmd_green_check)

    p = sub.add_parser("flat-identity-check", help="sphere vs flat energies on the circle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", dest="degree", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_flat_identity_check)

    p = sub.add_parser("poly-identity", help="exact polynomial identity verification")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--deg", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_poly_identity)

    p = sub.add_parser("counterexample-sin", help="the sign counterexample at u = sin")
    p.add_argument("--L", dest="degree", type=int, default=32)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_counterexample_sin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require(getattr(args, "seed", None) is None or args.seed >= 0, "--seed must be >= 0")
        return args.func(args)
    except InvalidConfig as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    except ConfSphereError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
