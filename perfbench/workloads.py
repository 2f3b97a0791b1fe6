"""Workload configs of the mwqi benchmark, as a pure function of (workload, seed).

The program under test only ever sees the config text returned by
:func:`generate`.  At ``DEMO_SEED`` the grids keep the shipped demo bounds
exactly; any other seed scales each grid bound by a factor within 0.2 % of
one, so runs with different seeds cover neighbouring grids of the same size.

The grids are thinned from the demo sizes (625 and 62,500 points) so that one
call takes well under a second: a run then holds dozens of calls and several
fresh launches, which the medians need on a host whose speed drifts.  The
surfaces grid keeps every third value of each demo axis (same bounds, 9
values instead of 25); the advantage grid keeps its 25 ``eta`` values per
drive point on a 16 x 16 drive plane.
"""

from __future__ import annotations

import math
import random

DEMO_SEED = 0
JITTER = 0.002  # largest relative change of a grid bound
DEMO_MC_SEED = 20240811

# name -> (mwqi subcommand, why the workload exists)
WORKLOADS = {
    "surfaces": (
        "sweep",
        "9x9 drive plane (demo bounds, every third value) with correlation outputs, 81 points; "
        "correlations does ~95% of the work and detection none",
    ),
    "advantage": (
        "sweep",
        "16x16x25 grid over gamma_w, gamma_o, eta (6,400 points); is_stable, detection closed "
        "forms and sweep glue do the work, correlations none; 25 points share each drive point",
    ),
    "report_mc": (
        "report",
        "operating-point report with 1e6-sample Monte-Carlo validation; "
        "mc_receiver_statistics does ~99% of the work and sets peak memory",
    ),
}

# (axis name, spacing, lo, hi, count)
_SURFACES_AXES = (
    ("gamma_w", "log", 1e2, 1e4, 9),
    ("gamma_o", "log", 1e1, 1e3, 9),
)
_ADVANTAGE_AXES = (
    ("gamma_w", "log", 1e2, 1e4, 16),
    ("gamma_o", "log", 1e1, 1e3, 16),
    ("eta", "log", 1e-3, 1e-1, 25),
)

_DRIVE = """[drive]
gamma_w = 5181.95
gamma_o = 668.43
"""
_CHANNEL = """
[channel]
eta = 0.07
t_b = 293 k
"""


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512: stable across runs and platforms
    return random.Random(f"mwqi-bench/{workload}/{seed}")


def _grid(axes, rng: random.Random | None) -> str:
    lines = ["", "[grid]"]
    for name, spacing, lo, hi, count in axes:
        if rng is not None:
            lo *= math.exp(rng.uniform(-JITTER, JITTER))
            hi *= math.exp(rng.uniform(-JITTER, JITTER))
        lines.append(f"axis = {name} {spacing} {lo!r} {hi!r} {count}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> str:
    """Config text of ``workload`` for ``seed``; equal inputs give equal text."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = None if seed == DEMO_SEED else _rng(workload, seed)
    if workload == "surfaces":
        return (_DRIVE + _grid(_SURFACES_AXES, rng)
                + "\n[outputs]\nselect = e_metric, log_neg_per_photon, coh_info_per_photon, "
                  "discord_per_photon, n_w, n_o\n")
    if workload == "advantage":
        return (_DRIVE + _CHANNEL + _grid(_ADVANTAGE_AXES, rng)
                + "\n[outputs]\nselect = n_w, fom, p_qi@1e6, p_coh@1e6\n")
    mc_seed = DEMO_MC_SEED if rng is None else rng.randrange(2 ** 31)
    return (_DRIVE + _CHANNEL + "kappa_i = 1.0\n"
            + "\n[outputs]\nselect = n_w, n_o, e_metric, log_neg_per_photon, fom\n"
            + f"\n[mc]\nvalidation = on\nsamples = 1000000\nseed = {mc_seed}\n")
