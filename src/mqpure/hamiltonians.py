"""Coupling geometries and the effective / secular dipolar Hamiltonians.

Couplings are cyclic frequencies normalized to the nearest-neighbor
value (D12 = 1), so simulated times are in units of 1/D12 and spectrum
frequencies come out in units of D12.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .spin_core import Operator, SpinSystem, ZeemanBasis

HEXAGON_RATIOS = {1: 1.0, 2: 1.0 / (3.0 * np.sqrt(3.0)), 3: 1.0 / 8.0}


def hexagon_couplings(d12: float = 1.0) -> SpinSystem:
    """Six spins on a regular hexagon.

    Ring distance sets the coupling: nearest neighbors get ``d12``, next
    nearest ``d12/(3*sqrt(3))`` and opposite corners ``d12/8``.
    """
    if d12 <= 0:
        raise ValueError("d12 must be positive")
    n = 6
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ring_distance = min(abs(i - j), n - abs(i - j))
            couplings[i, j] = couplings[j, i] = d12 * HEXAGON_RATIOS[ring_distance]
    return SpinSystem(n_spins=n, couplings=couplings, label=f"hexagon d12={d12}")


def load_couplings(path: str | Path, label: str = "") -> SpinSystem:
    """Read a coupling matrix from a plain-text file.

    Format: the spin count N followed by the N x N symmetric matrix,
    all whitespace-separated; ``#`` starts a comment.
    """
    tokens = []
    for line in Path(path).read_text().splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens:
        raise ValueError(f"{path}: empty coupling file")
    n = int(tokens[0])
    values = [float(t) for t in tokens[1:]]
    if len(values) != n * n:
        raise ValueError(f"{path}: expected {n * n} matrix entries, got {len(values)}")
    couplings = np.array(values).reshape(n, n)
    return SpinSystem(n_spins=n, couplings=couplings, label=label or str(path))


def build_system(name: str, d12: float) -> SpinSystem:
    """The hexagon with nearest-neighbor coupling ``d12`` when ``name`` is
    "hexagon", otherwise the coupling file at path ``name``."""
    if name == "hexagon":
        return hexagon_couplings(d12)
    return load_couplings(name)


def dq_hamiltonian(system: SpinSystem, basis: ZeemanBasis) -> Operator:
    """Double-quantum effective Hamiltonian.

    H = -(1/2) sum_{i<j} D_ij (I_i+ I_j+ + I_i- I_j-); every nonzero
    element connects states whose magnetization differs by exactly 2.
    Built in float64 straight from bit patterns: the pair (i, j) flips
    both spins of every state in which they are aligned.
    """
    _check_sizes(system, basis)
    states = np.arange(basis.dim)
    h = np.zeros((basis.dim, basis.dim))
    for i, j, coupling in _coupled_pairs(system):
        aligned = states[_bit(states, i) == _bit(states, j)]
        h[aligned ^ ((1 << i) | (1 << j)), aligned] -= 0.5 * coupling
    return Operator(matrix=h)


def negated(h: Operator) -> Operator:
    """Elementwise negation, the time-reversal effective Hamiltonian."""
    return Operator(matrix=-h.matrix, hermitian=h.hermitian)


def secular_dipolar_hamiltonian(system: SpinSystem, basis: ZeemanBasis) -> Operator:
    """Truncated dipolar Hamiltonian that commutes with collective I_z.

    H = sum_{i<j} D_ij (2 I_iz I_jz - (1/2)(I_i+ I_j- + I_i- I_j+)).
    Built in float64 from bit patterns: 2 I_iz I_jz is +-1/2 on the diagonal
    as spins i and j are aligned or not, and the flip-flop term swaps
    the two spins of every state in which they differ.
    """
    _check_sizes(system, basis)
    states = np.arange(basis.dim)
    h = np.zeros((basis.dim, basis.dim))
    diagonal = np.zeros(basis.dim)
    for i, j, coupling in _coupled_pairs(system):
        aligned = _bit(states, i) == _bit(states, j)
        diagonal += coupling * np.where(aligned, 0.5, -0.5)
        differ = states[~aligned]
        h[differ ^ ((1 << i) | (1 << j)), differ] = -0.5 * coupling
    h[np.diag_indices(basis.dim)] = diagonal
    return Operator(matrix=h)


def homq_excitable(n_spins: int) -> bool:
    """Whether the double-quantum Hamiltonian can reach order n_spins.

    The highest order is reachable only for cluster sizes 2 + 4n; other
    even orders are still excitable, so the pipeline rejects filtering
    order n_spins elsewhere but accepts a lower even order.
    """
    if n_spins < 2:
        raise ValueError("n_spins must be at least 2")
    return n_spins % 4 == 2


def _check_sizes(system: SpinSystem, basis: ZeemanBasis) -> None:
    if system.n_spins != basis.n_spins:
        raise ValueError(
            f"system has {system.n_spins} spins but basis has {basis.n_spins}"
        )


def _coupled_pairs(system: SpinSystem):
    """Yield (i, j, D_ij) for every pair i < j with a nonzero coupling."""
    for i in range(system.n_spins):
        for j in range(i + 1, system.n_spins):
            if system.couplings[i, j] != 0.0:
                yield i, j, system.couplings[i, j]


def _bit(states: np.ndarray, site: int) -> np.ndarray:
    return (states >> site) & 1
