"""Oracle for the default detuning grid of response._default_detunings.

This is the loop _default_detunings ran before it was unrolled over its
four features: at each grid point the nearest feature is found by min()
over a list of squared distances, one per feature, and the step is
max(floor, resolution * distance).  It is kept here so the tests can set
the unrolled loop against it bit for bit, signs of zero included.
"""

import math

import numpy as np

from slowsound.response import _GRID_RESOLUTION, _features


def oracle_detunings(rates, drive):
    span = max(20.0 * rates.gamma_0, 3.0 * drive.control_rabi)
    unit = 2.0 ** math.frexp(span)[1]
    span /= unit
    features = [(f.real / unit, f.imag / unit) for f in _features(rates, drive)]
    floor = 1e-6 * span
    side = []
    x = 0.0
    while True:
        nearest = math.sqrt(min([(x - re) * (x - re) + im * im for re, im in features]))
        step = max(floor, _GRID_RESOLUTION * nearest)
        if x + 1.5 * step >= span:
            break
        x += step
        side.append(x)
    side.append(span)
    side = unit * np.asarray(side)
    return np.concatenate([-side[::-1], [0.0], side])
