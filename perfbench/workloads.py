"""The four benchmark workloads: the qs4 subcommands each one runs, built
from the seed.

A round is one pass over a workload's operations; an operation is one
subcommand invocation through `qs4.cli.parse_and_run`.  Every round of a run
uses the same inputs.  The seed moves each input within a narrow range that
leaves the amount of work unchanged, so runs on different seeds stay
comparable.  `checks.py` holds the output checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Operation:
    """One subcommand call and the files it writes."""

    argv: tuple
    outputs: tuple


def _unit(seed: int, salt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one input parameter."""
    return random.Random(seed * 7919 + salt).random()


# extremal: fixed-point ascent for the sharp quotient, then the decay fit on
# the resulting field.  On n=64, extent 64, nt=65 halves the time nodes of
# nt=129, so that a round takes seconds instead of tens of seconds.
EXTREMAL = {"grid_n": 64, "extent": 64.0, "t_max": 2.0, "nt": 65}


def extremal_width(seed: int) -> float:
    return round(1.04 + 0.02 * _unit(seed, 1), 6)


def extremal_ops(seed: int, work: Path) -> list:
    c = EXTREMAL
    out, field, fit = work / "extremal.json", work / "extremal.qs4f", work / "decay.json"
    return [
        Operation((
            "extremize", "--grid-n", str(c["grid_n"]), "--extent", str(c["extent"]),
            "--t-max", str(c["t_max"]), "--nt", str(c["nt"]),
            "--seed-width", repr(extremal_width(seed)),
            "--out", str(out), "--field-out", str(field)), (out, field)),
        Operation(("decay-fit", "--input", str(field), "--out", str(fit)), (fit,)),
    ]


def extremal_counts(work: Path) -> dict:
    """Solver counts the program reports: iterations and rejected steps."""
    res = json.loads((work / "extremal.json").read_text())["results"]
    return {"extremizer.iterations": res["n_iters"],
            "extremizer.rejected_steps": res["n_iters"] - len(res["quotient_history"])}


# modulation: compensated L6 norms along carrier magnitudes and the
# second-order reference through A0.  n=256 on extent 16 keeps the O(n^4)
# resampler in play; t_max=3 with nt=161 resolves the rescaled time well
# enough that the reference meets its closed form to about 5e-4.  The
# direction is one of the four axis directions: all give the same work.
MODULATION = {"grid_n": 256, "extent": 16.0, "t_max": 3.0, "nt": 161, "magnitudes": "8,16,32"}
_AXES = ("1,0", "0,1", "-1,0", "0,-1")


def modulation_width(seed: int) -> float:
    return round(0.78 + 0.04 * _unit(seed, 2), 6)


def modulation_ops(seed: int, work: Path) -> list:
    c = MODULATION
    out = work / "modulation.json"
    return [Operation((
        "modulation-scan", "--grid-n", str(c["grid_n"]), "--extent", str(c["extent"]),
        "--width", repr(modulation_width(seed)), "--magnitudes", c["magnitudes"],
        f"--direction={_AXES[seed % 4]}", "--t-max", str(c["t_max"]), "--nt", str(c["nt"]),
        "--format", "json", "--out", str(out)), (out,))]


# bilinear: decay of the product norm in the band separation, with the seed
# as the one pair seed per round.  n=256 is the smallest lattice whose guarded
# band holds the N=16 annulus; nt=49 is the fewest nodes the tail gate accepts.
BILINEAR = {"grid_n": 256, "extent": 32.0, "scale": 0.5, "n_values": (2.0, 4.0, 8.0, 16.0),
            "t_max": 0.5, "nt": 49, "envelope_width": 2.0}


def bilinear_ops(seed: int, work: Path) -> list:
    c = BILINEAR
    out = work / "bilinear.json"
    return [Operation((
        "bilinear-scan", "--grid-n", str(c["grid_n"]), "--extent", str(c["extent"]),
        "--scale", str(c["scale"]), "--n-values", ",".join(f"{v:g}" for v in c["n_values"]),
        "--seeds", str(seed), "--t-max", str(c["t_max"]), "--nt", str(c["nt"]),
        "--envelope-width", str(c["envelope_width"]), "--out", str(out)), (out,))]


# toolkit: the Python-scale layers.  profile-demo runs at extent 32 (its
# default extent 16 trips the tail guard) with nt=33 and seeded noise;
# weight-check draws seeded tuples; oscillatory-check keeps its default
# 2048^2 lattice with T near 1, 4 and 16, which that lattice resolves.
PROFILE = {"grid_n": 128, "extent": 32.0, "t_max": 2.0, "nt": 33, "index": 6, "noise": 0.01}
WEIGHTS = {"count": 30000, "eps": 0.1}


def oscillatory_times(seed: int) -> list:
    stretch = 1.0 + 0.1 * _unit(seed, 3)
    return [round(T * stretch, 6) for T in (1.0, 4.0, 16.0)]


def toolkit_ops(seed: int, work: Path) -> list:
    p, wc = PROFILE, WEIGHTS
    prof, weights, osc = work / "profile.json", work / "weights.json", work / "osc.csv"
    return [
        Operation((
            "profile-demo", "--grid-n", str(p["grid_n"]), "--extent", str(p["extent"]),
            "--t-max", str(p["t_max"]), "--nt", str(p["nt"]), "--index", str(p["index"]),
            "--noise", str(p["noise"]), "--seed", str(seed), "--out", str(prof)), (prof,)),
        Operation((
            "weight-check", "--count", str(wc["count"]), "--eps", str(wc["eps"]),
            "--seed", str(seed), "--out", str(weights)), (weights,)),
        Operation((
            "oscillatory-check", "--t-values", ",".join(repr(t) for t in oscillatory_times(seed)),
            "--out", str(osc)), (osc,)),
    ]


OPERATIONS = {
    "extremal": extremal_ops,
    "modulation": modulation_ops,
    "bilinear": bilinear_ops,
    "toolkit": toolkit_ops,
}
