"""Seeded workload generators for the condrift benchmark.

Each workload is one ``condrift`` subcommand plus a generator that turns a
seed into a JSON run config. Only that config reaches the program. Seeds
change the shape of the initial profile; the support, the peak height and
the solver settings are fixed, so every seed asks for about the same work
(the step count moves by a few percent) and timings stay comparable
across seeds.

Why these three: together they cover every module of the package, and
each one leans on a different layer, so a change that helps one layer and
hurts another shows up on some workload. Sizes keep one call near half a
second on a quiet core, so a run makes enough calls for its tail.

* ``block-verify`` is the paper's closed-form block. Its time splits
  between datum projection and one-sided stepping, it writes no CSV and
  it yields all the oracle accuracy numbers. The block has no free shape,
  so the seed does not change it.
* ``dense-snapshots`` writes 41 snapshots of a two-sided
  piecewise-constant profile in the original frame. Stepping both
  half-lines is a small share; snapshot interpolation, measure assembly,
  pseudo-inverses, diagnostics and about 4.7 MB of CSV dominate.
* ``smooth-characteristics`` evaluates the smooth regime of a profile
  that does not increase in |x|, so no shock forms before blow-up. It is
  the only workload that runs the ``characteristics`` layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Relative amplitude of the seeded perturbation of each profile value.
JITTER = 0.1


@dataclass(frozen=True)
class Workload:
    """A condrift subcommand and ``config(seed, tiny)``, which returns its run
    config; ``tiny`` shrinks the sizes for the self-test."""

    name: str
    command: str
    config: Callable[[int, bool], dict]


def _jitter(rng: random.Random, base: list) -> list:
    return [b * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for b in base]


def _block_verify(seed: int, tiny: bool) -> dict:
    n = 64 if tiny else 2048
    return {"gamma": 1.0, "datum": {"kind": "example36"},
            "grid_cells": n, "z_count": n}


def _dense_snapshots(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    breakpoints = [-0.4 + 0.1 * i for i in range(10)]
    base = [0.5, 0.7, 0.9, 1.0, 1.0, 1.0, 0.9, 0.7, 0.5]
    t_end = 4.0
    snapshots = 3 if tiny else 41
    return {"gamma": 2.0,
            "datum": {"kind": "piecewise_constant", "breakpoints": breakpoints,
                      "values": _jitter(rng, base)},
            "grid_cells": 64 if tiny else 512, "z_count": 64 if tiny else 1024,
            "frame": "original",
            "t_end": t_end, "snapshot_cadence": t_end / (snapshots - 1)}


def _smooth_characteristics(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    # peak 1 at the origin, non-increasing in |x| on both sides
    left = sorted(_jitter(rng, [0.4, 0.55, 0.7, 0.85]))
    right = sorted(_jitter(rng, [0.85, 0.7, 0.55, 0.4]), reverse=True)
    values = left + [1.0] + right
    breakpoints = [-0.5, -0.375, -0.25, -0.125, 0.0, 0.15, 0.3, 0.45, 0.6]
    gamma = 1.0
    # 0.9 of the closed-form blow-up time 1/(gamma * sup^gamma)
    t_end = 0.9 / (gamma * max(values) ** gamma)
    times = 3 if tiny else 5
    return {"gamma": gamma,
            "datum": {"kind": "piecewise_linear", "breakpoints": breakpoints,
                      "values": values},
            "grid_cells": 64 if tiny else 1024,
            "t_end": t_end, "snapshot_cadence": t_end / (times - 1)}


WORKLOADS = {w.name: w for w in (
    Workload("block-verify", "verify", _block_verify),
    Workload("dense-snapshots", "simulate", _dense_snapshots),
    Workload("smooth-characteristics", "characteristics", _smooth_characteristics),
)}
