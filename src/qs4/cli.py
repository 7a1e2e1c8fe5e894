"""Batch command-line interface: validated configs in, reproducible artifacts
out.

Every JSON report echoes its full configuration (including rng seeds and the
tool version) so any reported number can be regenerated exactly; the CSV
tables of oscillatory-check and --format csv carry no configuration.  Fields
travel in a small binary container; reports serialize to JSON and scans to
CSV, both writing each float as the shortest text that reads back to it.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical-guard
abort, 3 any other qs4 error, such as a violated weight-kernel bound.
"""

from __future__ import annotations

import argparse
import csv
import json
import struct
import sys

import numpy as np

from . import __version__
from .errors import NumericalGuardError, QS4Error, ValidationError
from .grid import Field, SpectralField, dft_forward, make_gaussian, make_grid
from .functional import TimeWindow
from .propagator import evolve_quartic
from .extremizer import IterationConfig, run_iteration
from .asymptotics import modulation_scan, oscillatory_integral
from .bilinear import decay_scan
from .profiles import (
    SymmetryParams,
    extract_profiles,
    orthogonality_defect,
    synthesize_sequence,
)
from .weights import WeightParams, decay_fit, sample_constraint_tuples, weight_kernel_check

__all__ = [
    "main",
    "parse_and_run",
    "write_field",
    "read_field",
    "emit_results",
]

_MAGIC = b"QS4F"
_VERSION = 1
_HEADER = struct.Struct("<4sHIdB")


# ---------------------------------------------------------------------------
# FieldFile container


def write_field(f, path) -> None:
    """Write a Field or SpectralField as a FieldFile (bit-exact round trip)."""
    if isinstance(f, Field):
        flag, data = 0, f.values
    elif isinstance(f, SpectralField):
        flag, data = 1, f.coeffs
    else:
        raise ValidationError(f"cannot serialize object of type {type(f).__name__}")
    g = f.grid
    payload = np.empty((g.n, g.n, 2), dtype="<f8")
    payload[..., 0] = data.real
    payload[..., 1] = data.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, g.n, g.extent, flag))
        fh.write(payload.tobytes())


def read_field(path):
    """Read a FieldFile; returns a Field (flag 0) or SpectralField (flag 1)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        magic, version, n, extent, flag = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _VERSION:
            raise ValidationError(f"{path}: version {version}, expected {_VERSION}")
        if flag not in (0, 1):
            raise ValidationError(f"{path}: domain flag {flag}, expected 0 or 1")
        raw = fh.read()
    expected = 2 * n * n * 8
    if len(raw) != expected:
        raise ValidationError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    payload = np.frombuffer(raw, dtype="<f8").reshape(n, n, 2)
    data = (payload[..., 0] + 1j * payload[..., 1]).astype(complex)
    g = make_grid(int(n), float(extent))
    return SpectralField(g, data) if flag == 1 else Field(g, data)


# ---------------------------------------------------------------------------
# Result emission


def emit_results(record: dict, format: str, path) -> None:
    """Write a {config, results} record as JSON, or a scan table as CSV."""
    if format == "json":
        if "config" not in record or "results" not in record:
            raise ValidationError("JSON records need 'config' and 'results' keys")
        text = json.dumps(record, indent=2) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    if format == "csv":
        rows = record.get("rows")
        header = record.get("header")
        if not rows or not header:
            raise ValidationError("CSV records need 'header' and 'rows'")
        if any(len(r) != len(header) for r in rows):
            raise ValidationError("ragged CSV rows cannot be serialized")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return
    raise ValidationError(f"unknown output format {format!r}")


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so the exit-code
    taxonomy stays in one place.  Options must be spelled in full: a prefix
    is not read as the option it abbreviates, so `extremize --seed` is an
    error, not `--seed-width`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated number list, got {text!r}") from exc


def _seed_list(text: str) -> list:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from exc
    if any(s < 0 for s in seeds):
        raise ValidationError(f"rng seeds must be nonnegative, got {text!r}")
    return seeds


def _seed(text: str) -> int:
    seeds = _seed_list(text)
    if len(seeds) != 1:
        raise ValidationError(f"expected one integer seed, got {text!r}")
    return seeds[0]


def _pair(text: str) -> tuple:
    vals = _float_list(text)
    if len(vals) != 2:
        raise ValidationError(f"expected two comma-separated numbers, got {text!r}")
    return (vals[0], vals[1])


def _add_grid_args(p, default_n=128, default_extent=16.0):
    p.add_argument("--grid-n", type=int, default=default_n)
    p.add_argument("--extent", type=float, default=default_extent)


def _add_window_args(p, default_tmax=2.0, default_nt=129):
    p.add_argument("--t-max", type=float, default=default_tmax)
    p.add_argument("--nt", type=int, default=default_nt)


def _build_parser() -> _Parser:
    top = _Parser(prog="qs4", description=__doc__)
    top.add_argument("--version", action="version", version=f"qs4 {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("propagate", help="evolve a field and write the result")
    _add_grid_args(p)
    p.add_argument("--input", default=None, help="FieldFile to evolve (default: Gaussian)")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("extremize", help="fixed-point iteration for the sharp quotient")
    _add_grid_args(p, default_extent=128.0)
    _add_window_args(p, default_nt=257)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed-width", type=float, default=1.05)
    p.add_argument("--out", required=True)
    p.add_argument("--field-out", default=None, help="optional FieldFile for the final field")

    p = sub.add_parser("modulation-scan", help="compensated norms along carrier magnitudes")
    _add_grid_args(p, default_n=512, default_extent=32.0)
    _add_window_args(p, default_tmax=6.0, default_nt=641)
    p.add_argument("--width", type=float, default=0.8)
    p.add_argument("--magnitudes", type=_float_list, default=[8.0, 16.0, 32.0])
    p.add_argument("--direction", type=_pair, default=(1.0, 0.0))
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("bilinear-scan", help="bilinear decay in the frequency separation")
    _add_grid_args(p, default_n=512, default_extent=32.0)
    _add_window_args(p, default_tmax=0.5, default_nt=49)
    p.add_argument("--scale", type=float, default=0.5, help="band scale s")
    p.add_argument("--n-values", type=_float_list, default=[4.0, 8.0, 16.0, 32.0])
    p.add_argument("--seeds", type=_seed_list, default=[0, 1, 2])
    p.add_argument("--envelope-width", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = sub.add_parser("weight-check", help="kernel bound on the resonance surface")
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--radius", type=float, default=4.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decay-fit", help="quartic-exponential fit of a spectrum")
    p.add_argument("--input", required=True, help="FieldFile holding the field to fit")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("profile-demo", help="two-profile synthesis and re-extraction")
    _add_grid_args(p, default_extent=32.0)
    _add_window_args(p)
    p.add_argument("--index", type=int, default=6)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oscillatory-check", help="oscillatory-integral decay samples")
    _add_grid_args(p, default_n=2048, default_extent=1600.0)
    p.add_argument("--freq-width", type=float, default=1.0,
                   help="frequency-side Gaussian width of the amplitude")
    p.add_argument("--support-radius", type=float, default=4.0,
                   help="amplitude truncated to |xi| <= this radius")
    p.add_argument("--t-values", type=_float_list, default=[1.0, 4.0, 16.0])
    p.add_argument("--x-values", type=_float_list, default=[0.0])
    p.add_argument("--xi-n", type=_pair, default=(1000.0, 0.0))
    p.add_argument("--out", required=True)

    return top


def _config_echo(args: argparse.Namespace) -> dict:
    return {"tool_version": __version__, **dict(sorted(vars(args).items()))}


# ---------------------------------------------------------------------------
# Subcommand bodies


def _run_propagate(args) -> None:
    if args.input is not None:
        f = read_field(args.input)
        if not isinstance(f, Field):
            raise ValidationError("propagate expects a physical-space FieldFile")
    else:
        g = make_grid(args.grid_n, args.extent)
        f = make_gaussian(g, width=args.width)
    write_field(evolve_quartic(f, args.t), args.out)


def _run_extremize(args) -> None:
    g = make_grid(args.grid_n, args.extent)
    w = TimeWindow(args.t_max, args.nt)
    cfg = IterationConfig(grid=g, window=w, max_iters=args.iters,
                          tol_residual=args.tol, seed_width=args.seed_width)
    report = run_iteration(cfg)
    results = {
        "quotient_history": list(report.quotient_history),
        "residual": report.residual,
        "omega": report.omega,
        "converged": report.converged,
        "n_iters": report.n_iters,
        "beta_final": report.beta_final,
    }
    emit_results({"config": _config_echo(args), "results": results}, "json", args.out)
    if args.field_out:
        write_field(report.final_field, args.field_out)


def _run_modulation_scan(args) -> None:
    g = make_grid(args.grid_n, args.extent)
    phi = make_gaussian(g, width=args.width)
    w = TimeWindow(args.t_max, args.nt)
    scan = modulation_scan(phi, args.magnitudes, args.direction, w)
    if args.format == "csv":
        rows = list(zip(scan.magnitudes, scan.raw_norms, scan.compensated))
        emit_results({"header": ["magnitude", "raw_norm", "compensated"], "rows": rows},
                     "csv", args.out)
    else:
        results = {
            "magnitudes": list(scan.magnitudes),
            "raw_norms": list(scan.raw_norms),
            "compensated": list(scan.compensated),
            "limit_reference": scan.limit_reference,
            "cauchy_gap": scan.cauchy_gap,
        }
        emit_results({"config": _config_echo(args), "results": results}, "json", args.out)


def _run_bilinear_scan(args) -> None:
    g = make_grid(args.grid_n, args.extent)
    w = TimeWindow(args.t_max, args.nt)
    fit = decay_scan(g, args.scale, args.n_values, args.seeds, w,
                     envelope_width=args.envelope_width)
    if args.format == "csv":
        rows = list(zip(fit.n_values, fit.medians))
        emit_results({"header": ["separation", "median_norm"], "rows": rows}, "csv", args.out)
    else:
        results = {
            "n_values": list(fit.n_values),
            "medians": list(fit.medians),
            "per_seed": [list(v) for v in fit.per_seed],
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "reliable": fit.reliable,
            "reference_slopes": list(fit.reference_slopes),
        }
        emit_results({"config": _config_echo(args), "results": results}, "json", args.out)


def _run_weight_check(args) -> None:
    params = WeightParams(mu=args.mu, eps=args.eps)
    tuples = sample_constraint_tuples(args.count, args.radius, args.seed)
    report = weight_kernel_check(tuples, params)
    results = {
        "n_checked": report.n_checked,
        "max_kernel": report.max_kernel,
        "argmax_etas": report.argmax,
        "params": params.to_dict(),
    }
    emit_results({"config": _config_echo(args), "results": results}, "json", args.out)


def _run_decay_fit(args) -> None:
    f = read_field(args.input)
    if isinstance(f, Field):
        f = dft_forward(f)
    report = decay_fit(f, args.r_min)
    results = {
        "mu_hat": report.mu_hat,
        "intercept": report.intercept,
        "goodness": report.goodness,
        "n_shells": report.n_shells,
        "quartic_profile": report.quartic_profile,
    }
    emit_results({"config": _config_echo(args), "results": results}, "json", args.out)


def _run_profile_demo(args) -> None:
    g = make_grid(args.grid_n, args.extent)
    w = TimeWindow(args.t_max, args.nt)
    phi = make_gaussian(g, width=0.8)
    shift = min(2.0 ** args.index * g.spacing, 0.3 * g.extent)
    seqs = [
        [SymmetryParams(h=1.0, x0=(-shift / 2, 0.0)) for _ in range(args.index + 1)],
        [SymmetryParams(h=1.0, x0=(shift / 2, 0.0)) for _ in range(args.index + 1)],
    ]
    u = synthesize_sequence([phi, phi], seqs, args.index, args.noise, args.seed)
    result = extract_profiles(u, [phi], 2, w)
    l2_defect, st_defect = orthogonality_defect(u, result, w)
    results = {
        "n_profiles": len(result.profiles),
        "l2_defect": l2_defect,
        "strichartz_defect": st_defect,
        "remainder_norm": result.remainder.l2_norm(),
        "params": [{"h": p.h, "x0": list(p.x0), "t0": p.t0} for p in result.params],
    }
    emit_results({"config": _config_echo(args), "results": results}, "json", args.out)


def _run_oscillatory_check(args) -> None:
    # The amplitude lives on the frequency lattice directly: a truncated
    # Gaussian on a fine-spacing grid, so the quadrature resolves the phase
    # oscillation up to the largest requested T and |X|.
    g = make_grid(args.grid_n, args.extent)
    coeffs = np.exp(-g.xi_sq / (2.0 * args.freq_width ** 2))
    coeffs[g.xi_sq > args.support_radius ** 2] = 0.0
    amp = SpectralField(g, coeffs.astype(complex))
    rows = []
    for T in args.t_values:
        for x in args.x_values:
            val = oscillatory_integral(T, (x, 0.0), amp, args.xi_n)
            rows.append((T, x, abs(val)))
    emit_results({"header": ["T", "X1", "abs_value"], "rows": rows}, "csv", args.out)


_DISPATCH = {
    "propagate": _run_propagate,
    "extremize": _run_extremize,
    "modulation-scan": _run_modulation_scan,
    "bilinear-scan": _run_bilinear_scan,
    "weight-check": _run_weight_check,
    "decay-fit": _run_decay_fit,
    "profile-demo": _run_profile_demo,
    "oscillatory-check": _run_oscillatory_check,
}


def parse_and_run(argv: list) -> int:
    """Parse argv, dispatch, and map exceptions to the exit-code taxonomy."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _DISPATCH[args.subcommand](args)
    except ValidationError as exc:
        print(f"qs4: error: {exc}", file=sys.stderr)
        return 1
    except NumericalGuardError as exc:
        print(f"qs4: numerical guard: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qs4: error: {exc}", file=sys.stderr)
        return 1
    except QS4Error as exc:
        print(f"qs4: check failed: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        # argparse --version/--help paths
        return int(exc.code or 0)
    return 0


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
