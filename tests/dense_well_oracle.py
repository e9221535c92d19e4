"""Dense oracle for the frozen-well eigensolve of gpe.well_eigenstates.

This is the full N x N Fourier-grid Hamiltonian that well_eigenstates
diagonalized before it was split into its even and odd blocks, kept here
so the tests can set the folded solve against one eigh of the unfolded
matrix on any grid.  The spectral kinetic operator k^2 / (2 mass_ratio)
is the real symmetric circulant matrix whose first column is
ifft(k^2 / (2 mass_ratio)) (Marston & Balint-Kurti, J. Chem. Phys. 91,
3571 (1989)); the frozen well adds its diagonal.
"""

import math

import numpy as np

from slowsound.gpe import frozen_well


def dense_eigenstates(grid, nu, mass_ratio, n_states):
    """Lowest energies and unit grid states of the dense matrix.

    Each state is signed as well_eigenstates signs its own: positive
    where |psi| peaks on x >= 0.
    """
    kinetic = np.real(np.fft.ifft(grid.k ** 2 / (2.0 * mass_ratio)))
    index = np.arange(grid.npoints)
    hamiltonian = kinetic[(index[:, None] - index[None, :]) % grid.npoints]
    hamiltonian[index, index] += frozen_well(grid, nu, mass_ratio)
    energies, vectors = np.linalg.eigh(hamiltonian)
    states = vectors[:, :n_states].T / math.sqrt(grid.dx)
    right = states[:, grid.x >= 0.0]
    peaks = right[np.arange(len(right)), np.argmax(np.abs(right), axis=1)]
    return energies[:n_states], states * np.sign(peaks)[:, None]
