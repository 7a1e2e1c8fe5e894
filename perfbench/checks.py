"""Output checks for each workload, run after the metrics are captured.

Each check compares a run's outputs with the plain computations in `refs.py`
(written without qs4's kernel helpers) or with properties the method must
have; none compares against a stored copy of earlier output.  qs4 is used
only to rebuild inputs the CLI does not write out: the bilinear pair and the
profile-demo field with its atoms.  Each function returns a list of problems,
empty when the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import refs
from workloads import BILINEAR, EXTREMAL, MODULATION, PROFILE, WEIGHTS, modulation_width


def _load(path: Path) -> dict:
    return json.loads(path.read_text())["results"]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def extremal(seed: int, work: Path) -> list:
    problems = []
    res = _load(work / "extremal.json")
    hist = res["quotient_history"]
    if not (res["converged"] and res["residual"] < 1e-3):
        problems.append(f"extremize did not converge: residual {res['residual']:.3e}")
    # the ascent guard accepts a step that loses at most tol_quotient_delta = 1e-8
    if any(b < a - 1e-8 for a, b in zip(hist, hist[1:])):
        problems.append("quotient history decreases")
    values, extent = refs.read_field(work / "extremal.qs4f")
    c = EXTREMAL
    q_ref = refs.l6_norm(values, extent, c["t_max"], c["nt"]) / refs.l2_norm(values, extent)
    if _rel(hist[-1], q_ref) > 1e-10:
        problems.append(f"final quotient {hist[-1]!r} vs plain L6 norm {q_ref!r}")
    fit = _load(work / "decay.json")
    if not (fit["mu_hat"] > 0 and fit["quartic_profile"]):
        problems.append(f"decay fit: mu_hat {fit['mu_hat']!r}, quartic {fit['quartic_profile']}")
    return problems


def modulation(seed: int, work: Path) -> list:
    problems = []
    res = _load(work / "modulation.json")
    if not res["cauchy_gap"] <= 0.02:
        problems.append(f"cauchy gap {res['cauchy_gap']:.3e} > 0.02")
    if _rel(res["compensated"][-1], res["limit_reference"]) > 0.05:
        problems.append("last compensated norm is not within 5% of the limit reference")
    closed = refs.modulation_limit(modulation_width(seed), MODULATION["t_max"])
    # measured gap about 5e-4 on this lattice, from periodization at extent 16
    if _rel(res["limit_reference"], closed) > 2e-3:
        problems.append(f"limit reference {res['limit_reference']!r} vs closed form {closed!r}")
    return problems


def bilinear(seed: int, work: Path) -> list:
    from qs4.bilinear import make_separated_pair
    from qs4.grid import make_grid

    problems = []
    res = _load(work / "bilinear.json")
    med = res["medians"]
    if any(b >= a for a, b in zip(med, med[1:])):
        problems.append(f"medians do not decrease: {med}")
    if not res["slope"] <= -1.0 / 3.0 + 0.05:
        problems.append(f"slope {res['slope']:.4f} above -1/3 + 0.05")
    c = BILINEAR
    k = 1
    N = c["n_values"][k]
    pair = make_separated_pair(make_grid(c["grid_n"], c["extent"]), c["scale"], N, seed,
                               envelope_width=c["envelope_width"])
    # decay_scan shrinks the window like N^-3 at a fixed node count
    t_max = c["t_max"] * (c["n_values"][0] / N) ** 3
    ref = refs.product_l3_norm(pair.f.values, pair.g.values, c["extent"], t_max, c["nt"])
    if _rel(res["per_seed"][k][0], ref) > 1e-10:
        problems.append(f"pair norm at N={N:g}: {res['per_seed'][k][0]!r} vs plain {ref!r}")
    return problems


def _profile(seed: int, work: Path) -> list:
    from qs4.grid import make_gaussian, make_grid
    from qs4.profiles import SymmetryParams, apply_symmetry, synthesize_sequence

    res = _load(work / "profile.json")
    if res["n_profiles"] != 2:
        return [f"profile-demo found {res['n_profiles']} profiles, expected 2"]
    problems = []
    if not res["l2_defect"] <= 1e-10:
        problems.append(f"l2 defect {res['l2_defect']:.3e} > 1e-10")
    # rebuild the demo's input as the subcommand does
    c = PROFILE
    g = make_grid(c["grid_n"], c["extent"])
    phi = make_gaussian(g, width=0.8)
    shift = min(2.0 ** c["index"] * g.spacing, 0.3 * g.extent)
    planted = [SymmetryParams(h=1.0, x0=(-shift / 2, 0.0)), SymmetryParams(h=1.0, x0=(shift / 2, 0.0))]
    u = synthesize_sequence([phi, phi], [[p] * (c["index"] + 1) for p in planted],
                            c["index"], c["noise"], seed).values
    for (fx, fy), p in zip(sorted(tuple(q["x0"]) for q in res["params"]), planted):
        if max(abs(fx - p.x0[0]), abs(fy - p.x0[1])) > g.spacing / 2:
            problems.append(f"profile at {(fx, fy)} misses the planted centre {p.x0}")
    # greedy projection onto the reported atoms gives the pieces and remainder
    remainder, pieces = u, []
    for q in res["params"]:
        atom = apply_symmetry(phi, SymmetryParams(h=q["h"], x0=tuple(q["x0"]), t0=q["t0"])).values
        atom = atom / refs.l2_norm(atom, g.extent)
        coeff = np.vdot(atom, remainder) * g.spacing ** 2
        pieces.append(coeff * atom)
        remainder = remainder - coeff * atom
    if refs.l2_norm(remainder, g.extent) > 1e-12 * refs.l2_norm(u, g.extent):
        pieces.append(remainder)
    sixth = [refs.l6_norm(v, g.extent, c["t_max"], c["nt"]) ** 6 for v in [u] + pieces]
    ref = abs(sixth[0] - sum(sixth[1:])) / sixth[0]
    if abs(res["strichartz_defect"] - ref) > 1e-9 * ref:
        problems.append(f"strichartz defect {res['strichartz_defect']!r} vs plain {ref!r}")
    return problems


def _weights(seed: int, work: Path) -> list:
    problems = []
    res = _load(work / "weights.json")
    if res["n_checked"] != WEIGHTS["count"]:
        problems.append(f"checked {res['n_checked']} tuples, expected {WEIGHTS['count']}")
    if not 0 < res["max_kernel"] <= 1 + 1e-12:
        problems.append(f"max kernel {res['max_kernel']!r} outside (0, 1 + 1e-12]")
    etas = np.asarray(res["argmax_etas"], dtype=float)
    quart = np.sum(etas ** 2, axis=-1) ** 2
    if abs(quart[:3].sum() - quart[3:].sum()) > 1e-9 * quart.sum():
        problems.append("argmax tuple violates the b-constraint")
    mu, eps = res["params"]["mu"], res["params"]["eps"]
    F = mu * quart / (1 + eps * quart)
    kernel = math.exp(F[0] - F[1:].sum())
    if _rel(res["max_kernel"], kernel) > 1e-12:
        problems.append(f"max kernel {res['max_kernel']!r} vs recomputed {kernel!r}")
    return problems


def _oscillatory(seed: int, work: Path) -> list:
    gaps = []
    for row in (work / "osc.csv").read_text().splitlines()[1:]:
        T, _, value = (float(v) for v in row.split(","))
        gaps.append(_rel(value, refs.stationary_phase_leading(T)))
    problems = []
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps to the stationary-phase term do not shrink with T: {gaps}")
    # measured 3.5e-5 at T=16 on the default lattice
    if not gaps[-1] <= 1e-3:
        problems.append(f"|I(T)| at the largest T is {gaps[-1]:.3e} off 2 pi / (T sqrt 48)")
    return problems


def toolkit(seed: int, work: Path) -> list:
    return _profile(seed, work) + _weights(seed, work) + _oscillatory(seed, work)


CHECKS = {"extremal": extremal, "modulation": modulation, "bilinear": bilinear, "toolkit": toolkit}
