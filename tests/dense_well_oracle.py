"""Dense oracle for the frozen-well eigensolve of gpe.well_eigenstates.

This is the full N x N Fourier-grid Hamiltonian that well_eigenstates
diagonalized before it was split into its even and odd blocks, kept here
so the tests can set the folded solve against one eigh of the unfolded
matrix on any grid.  The spectral kinetic operator k^2 / (2 mass_ratio)
is the real symmetric circulant matrix whose first column is
ifft(k^2 / (2 mass_ratio)) (Marston & Balint-Kurti, J. Chem. Phys. 91,
3571 (1989)); the frozen well adds its diagonal.  gathered_blocks keeps
the gather construction of the even and odd parity blocks that the view
construction of gpe._parity_block replaced.
"""

import math

import numpy as np

from slowsound.gpe import frozen_well


def dense_eigenstates(grid, nu, mass_ratio, n_states):
    """Lowest energies and unit grid states of the dense matrix.

    They are ordered by the rule well_eigenstates orders its own: by
    energy, except that an even and an odd state whose energies are
    closer than 4 eps times the matrix's 2-norm (its largest
    |eigenvalue|) are taken odd state first.  Each state is signed as
    well_eigenstates signs its own: positive where |psi| peaks on x >= 0.
    """
    kinetic = np.real(np.fft.ifft(grid.k ** 2 / (2.0 * mass_ratio)))
    index = np.arange(grid.npoints)
    hamiltonian = kinetic[(index[:, None] - index[None, :]) % grid.npoints]
    hamiltonian[index, index] += frozen_well(grid, nu, mass_ratio)
    energies, vectors = np.linalg.eigh(hamiltonian)
    odd = np.sum(vectors * vectors[(grid.npoints - index) % grid.npoints], axis=0) < 0.0
    tie = 4.0 * np.finfo(float).eps * float(np.max(np.abs(energies)))
    order = np.argsort(energies - tie * odd, kind="stable")[:n_states]
    energies, states = energies[order], vectors[:, order].T / math.sqrt(grid.dx)
    right = states[:, grid.x >= 0.0]
    peaks = right[np.arange(len(right)), np.argmax(np.abs(right), axis=1)]
    return energies, states * np.sign(peaks)[:, None]


def gathered_blocks(grid, nu, mass_ratio):
    """The circulant's first column, the well on m = 0..N/2, and the even
    and odd parity blocks gathered from them index by index."""
    n, h = grid.npoints, grid.npoints // 2
    column = np.real(np.fft.ifft(grid.k ** 2 / (2.0 * mass_ratio)))
    m = np.arange(h + 1)
    well = frozen_well(grid, nu, mass_ratio)[(h + m) % n]
    unfold = np.where((m == 0) | (m == h), 1.0, math.sqrt(0.5))
    near, far = column[np.abs(m[:, None] - m)], column[(m[:, None] + m) % n]
    diagonal = np.diag(well)
    even = (near + far) * np.outer(math.sqrt(0.5) / unfold, math.sqrt(0.5) / unfold) + diagonal
    odd = (near - far + diagonal)[1:h, 1:h]
    return column, well, even, odd
