"""Phase cycling by an inverse FFT over the rotation axis, the oracle for
the weighted-sum form of ``mq.phase_cycle_decompose``.

Both compute rho_n = (1/K) sum_k exp(i n phi_k) R(phi_k) rho R(phi_k)+;
here one ``ifft`` over the K rotated copies gives all K frequencies,
and the 2N+1 orders are picked out of them.
"""

import numpy as np


def fft_phase_cycle_decompose(rho, basis, k_steps: int) -> np.ndarray:
    """The ``(2N+1, d, d)`` order stack of rho, entry n order n (negative
    n counting from the end), by an inverse FFT of the rotated copies."""
    phis = 2.0 * np.pi * np.arange(k_steps) / k_steps
    d = np.exp(-1j * np.outer(phis, basis.m))
    rotated = d[:, :, np.newaxis] * d.conj()[:, np.newaxis, :]
    rotated *= rho.matrix
    np.fft.ifft(rotated, axis=0, out=rotated)
    return rotated[np.r_[0 : basis.n_spins + 1, -basis.n_spins : 0]]
