"""Seeded workload generators.

Each workload is a list of operations.  An operation is the argv one
`slowsound` command-line run receives (without `--out`, which the worker
adds) and the exit code that counts as success for it.  The same seed
always yields the same list; the program under test only ever sees the
generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Edges of the three-level window in the well parameter nu (slowsound.qutrit).
NU_MIN = 4.0 / 5.0
NU_MAX = 9.0 / 7.0

# The scenarios of the reference reproduction.  `eigenstates` is left to its
# own workload because it costs four times the rest of the chain together.
# The light scenarios come first, so that their repetitions (worker.py) are
# spread over the long runs that follow.
REFERENCE_SCENARIOS = (
    "spectrum",
    "susceptibility",
    "dispersion",
    "groupvel",
    "pulse",
    "decay",
    "couplings",
    "validate",
)

# Light scenarios of a parameter scan: no quadrature, no descent.
DRIVE_SCENARIOS = ("spectrum", "susceptibility", "dispersion", "groupvel", "pulse")
# Each scenario's runs fill a grid of mass-ratio strata by control strata,
# one run per cell, so every seed pairs heavy controls with the same spread
# of masses (and so with the same share of refused runs).
DRIVE_GRID = (4, 10)
DRIVE_RUNS_PER_SCENARIO = DRIVE_GRID[0] * DRIVE_GRID[1]
# The repository documents no range for the mass ratio or the control
# strength (only REFERENCE's values), so both ranges are this benchmark's
# choice.  The mass ratio spans [1, 2] around REFERENCE's 1.56.  Only masses
# in [1.31, 1.59) keep both coupling ratios of susceptibility's hard-coded
# comparison family (1.1 and 1.85) inside the window, so about 72% of the
# susceptibility runs meet that defect.  The control spans three decades, from
# a tenth of gamma_0, well below the transparency threshold near
# sqrt(gamma_0 gamma_1) (response.transparency_width), up to 100, where the
# 12 000-point detuning cap already rejects runs.
DRIVE_MASS_RATIO = (1.0, 2.0)
DRIVE_CONTROL_GAMMA0 = (0.1, 100.0)

# Criterion 9a of the acceptance suite states its ladder tolerance over this
# nu range at the reference mass ratio; the gate on `eigenstates` reuses that
# criterion, so the drawn point stays inside the domain it is stated for.
BOUND_NU = (1.18, 1.27)
REFERENCE_MASS_RATIO = 1.56


@dataclass(frozen=True)
class Op:
    """One command-line run: its argv and the exit code that means success."""

    argv: tuple
    expected: int = 0

    @property
    def scenario(self):
        return self.argv[0]


def coupling_window(mass_ratio):
    """The coupling-ratio interval [lo, hi) that puts nu in the qutrit window."""
    return NU_MIN * (NU_MIN + 1.0) / mass_ratio, NU_MAX * (NU_MAX + 1.0) / mass_ratio


def _sets(**values):
    argv = []
    for key, value in values.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


def reference_chain(seed):
    """The eight non-eigenstates scenarios at REFERENCE, all formats.

    The seed does not change this workload: validate's expected result
    (exit 4 with 21 pass / 3 fail / 3 report) is known only at REFERENCE.
    """
    del seed
    return [Op((name,), 4 if name == "validate" else 0) for name in REFERENCE_SCENARIOS]


def _strata(rng, n):
    """n points of [0, 1), one in each of n equal strata, in random order."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _grid(rng, rows, cols):
    """rows * cols points of [0, 1)^2: one in each cell of a rows x cols grid.

    The points also form a Latin hypercube: each axis, cut into rows * cols
    equal strata, has one point in each (row i holds the x strata
    i*cols .. i*cols + cols - 1 in random order, and column j the y strata
    j*rows .. j*rows + rows - 1).  Returned in random order.
    """
    n = rows * cols
    x_order = [rng.sample(range(cols), cols) for _ in range(rows)]
    y_order = [rng.sample(range(rows), rows) for _ in range(cols)]
    cells = [((i * cols + x_order[i][j] + rng.random()) / n,
              (j * rows + y_order[j][i] + rng.random()) / n)
             for i in range(rows) for j in range(cols)]
    rng.shuffle(cells)
    return cells


def drive_sweep(seed):
    """A seeded scan of light runs over the documented parameter domain.

    Every scenario gets the same number of runs.  Mass ratio and control,
    which decide a run's cost and whether the program refuses it, are drawn
    one per cell of a fixed grid (DRIVE_GRID) and, along each axis, one per
    fine stratum; the coupling ratio is stratified over the window on its
    own.  So the mix
    of cheap, expensive and refused runs varies little from seed to seed
    while every point of the domain stays reachable.  Nothing is filtered:
    runs the program refuses stay in the list and count as failed.
    """
    rng = random.Random(seed)
    per_scenario = []
    lc, hc = (math.log(v) for v in DRIVE_CONTROL_GAMMA0)
    for scenario in DRIVE_SCENARIOS:
        cells = _grid(rng, *DRIVE_GRID)
        window_u = _strata(rng, DRIVE_RUNS_PER_SCENARIO)
        modes = ["track", "fixed"] * (DRIVE_RUNS_PER_SCENARIO // 2)
        rng.shuffle(modes)
        ops = []
        for (mu, cu), wu, mode in zip(cells, window_u, modes):
            mass = DRIVE_MASS_RATIO[0] + mu * (DRIVE_MASS_RATIO[1] - DRIVE_MASS_RATIO[0])
            lo, hi = coupling_window(mass)
            coupling = lo + wu * (hi - lo)
            control = math.exp(lc + cu * (hc - lc))
            argv = (scenario, *_sets(mass_ratio=mass, coupling_ratio=coupling,
                                     control_rabi_gamma0=control), "--delta-mode", mode)
            ops.append(Op(argv))
        per_scenario.append(ops)
    # Interleave the scenarios so that any prefix of the list is a balanced mix.
    return [op for group in zip(*per_scenario) for op in group]


def bound_states(seed):
    """One `eigenstates` run at a seeded nu of criterion 9a's range.

    The mass ratio stays at REFERENCE's, where criterion 9a states its
    tolerance; the descent runs its full step budget at every such point.
    """
    nu = random.Random(seed).uniform(*BOUND_NU)
    coupling = nu * (nu + 1.0) / REFERENCE_MASS_RATIO
    return [Op(("eigenstates", *_sets(coupling_ratio=coupling)))]


# Run untimed before the first pass, so that first-call costs inside numpy
# and the output code (FFT plans, lazy imports) do not land on the first
# timed runs; the long scenarios do not need it.
WARMUP = [Op((name,)) for name in DRIVE_SCENARIOS]


WORKLOADS = {
    "reference_chain": reference_chain,
    "drive_sweep": drive_sweep,
    "bound_states": bound_states,
}


def generate(name, seed):
    """The operation list of workload `name` for `seed`."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}") from None
    return factory(seed)
