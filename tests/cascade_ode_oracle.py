"""Direct-integration oracle for the cascade's upper line at REFERENCE.

A bare RK4 on the coupled amplitude equations over the discretized line,

    da/dt   = -i sum_k (measure w_k) g_k exp(-i dk t) b_k
    db_k/dt = -i conj(g_k) exp(+i dk t) a - (gamma_0/2) b_k,

shares nothing with the closed-form Wigner-Weisskopf amplitudes of
decay.cascade except the couplings and grids themselves: the intermediate
state's own decay enters as the gamma_0/2 loss on b_k, and exponential
decay at gamma_1 has to emerge from the integration.  It runs once per
test session, over t in [0, T_FINAL_GAMMA1 / gamma_1] in NSTEPS steps.
"""

import functools
import math

import numpy as np

from slowsound.bogoliubov import dispersion
from slowsound.coupling import g1_closed
from slowsound.decay import cascade, decay_rates
from slowsound.params import REFERENCE

NSTEPS = 12000
T_FINAL_GAMMA1 = 3.0


@functools.cache
def one_phonon_ode():
    """(survival |a|^2 at each of the NSTEPS + 1 steps, b_k at the final
    time, the weights measure * w_k), read-only.

    Step j lies at t = j t_final / NSTEPS with t_final = 3 / gamma_1; the
    k grid is that of cascade(REFERENCE, ...), g_1(k) the printed
    g1_closed on it and the measure m = N0/(2 pi n0 xi) at REFERENCE.
    """
    rates = decay_rates(REFERENCE)
    t_final = T_FINAL_GAMMA1 / rates.gamma_1
    k = cascade(REFERENCE, [t_final]).k_grid
    w = np.empty_like(k)
    w[1:-1] = 0.5 * (k[2:] - k[:-2])
    w[0] = 0.5 * (k[1] - k[0])
    w[-1] = 0.5 * (k[-1] - k[-2])
    g = g1_closed(k, REFERENCE)
    dk = np.array([dispersion(float(q)) for q in k]) - rates.omega_1
    meas_w = REFERENCE.impurity_norm / (2.0 * math.pi * REFERENCE.density_xi) * w
    gamma_0 = rates.gamma_0

    h = t_final / NSTEPS
    a = 1.0 + 0j
    b = np.zeros(len(k), dtype=complex)
    history = [a]

    def deriv(t, a_val, b_val):
        phase = np.exp(-1j * dk * t)
        da = -1j * np.sum(meas_w * g * phase * b_val)
        db = -1j * np.conj(g) / phase * a_val - 0.5 * gamma_0 * b_val
        return da, db

    t = 0.0
    for _ in range(NSTEPS):
        da1, db1 = deriv(t, a, b)
        da2, db2 = deriv(t + 0.5 * h, a + 0.5 * h * da1, b + 0.5 * h * db1)
        da3, db3 = deriv(t + 0.5 * h, a + 0.5 * h * da2, b + 0.5 * h * db2)
        da4, db4 = deriv(t + h, a + h * da3, b + h * db3)
        a = a + h / 6.0 * (da1 + 2 * da2 + 2 * da3 + da4)
        b = b + h / 6.0 * (db1 + 2 * db2 + 2 * db3 + db4)
        t += h
        history.append(a)
    out = (np.abs(np.array(history)) ** 2, b, meas_w)
    for array in out:
        array.flags.writeable = False
    return out
