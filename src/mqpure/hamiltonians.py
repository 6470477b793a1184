"""Coupling geometries and the effective / secular dipolar Hamiltonians.

Couplings are cyclic frequencies normalized to the nearest-neighbor
value (D12 = 1), so simulated times are in units of 1/D12 and spectrum
frequencies come out in units of D12.

Both Hamiltonians are built from bit patterns as their nonzero elements
(:class:`~mqpure.spin_core.SparseOperator`), about N (N - 1) / 4 per
basis state, and never as a dense d x d matrix: the eigensolvers gather
each symmetry sector or m block they need straight from those elements.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .spin_core import SparseOperator, SpinSystem, ZeemanBasis, require_finite

HEXAGON_RATIOS = {1: 1.0, 2: 1.0 / (3.0 * np.sqrt(3.0)), 3: 1.0 / 8.0}

# site orders the symmetry search may try before it reports no symmetry
SYMMETRY_SEARCH_NODES = 100_000


def hexagon_couplings(d12: float = 1.0) -> SpinSystem:
    """Six spins on a regular hexagon.

    Ring distance sets the coupling: nearest neighbors get ``d12``, next
    nearest ``d12/(3*sqrt(3))`` and opposite corners ``d12/8``.
    """
    require_finite("d12", d12, "positive")
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
    n = int(tokens[0]) if tokens[0].isdecimal() else 0
    if n < 1:
        raise ValueError(f"{path}: spin count {tokens[0]!r} is not a positive integer")
    values = []
    for token in tokens[1:]:
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{path}: matrix entry {token!r} is not a number") from None
    if len(values) != n * n:
        raise ValueError(f"{path}: expected {n * n} matrix entries, got {len(values)}")
    couplings = np.array(values).reshape(n, n)
    return SpinSystem(n_spins=n, couplings=couplings, label=label or str(path))


def build_system(name: str, d12: float) -> SpinSystem:
    """The hexagon with nearest-neighbor coupling ``d12`` when ``name`` is
    "hexagon", otherwise the coupling file at path ``name``, whose couplings
    are taken as written: there ``d12`` must be 1."""
    if name == "hexagon":
        return hexagon_couplings(d12)
    if d12 != 1.0:
        raise ValueError(f"d12 scales only the hexagon, not {name} (got d12={d12})")
    return load_couplings(name)


def dq_hamiltonian(system: SpinSystem, basis: ZeemanBasis) -> SparseOperator:
    """Double-quantum effective Hamiltonian, held as its nonzero elements.

    H = -(1/2) sum_{i<j} D_ij (I_i+ I_j+ + I_i- I_j-); every nonzero
    element connects states whose magnetization differs by exactly 2.
    Built in float64 straight from bit patterns: the pair (i, j) flips
    both spins of every state in which they are aligned, an element
    -D_ij / 2 that no other pair reaches.
    """
    _check_sizes(system, basis)
    states = np.arange(basis.dim)
    elements = []
    for i, j, coupling in _coupled_pairs(system):
        aligned = states[_bit(states, i) == _bit(states, j)]
        elements.append((aligned ^ ((1 << i) | (1 << j)), aligned,
                         np.full(aligned.size, -0.5 * coupling)))
    return _sparse(basis.dim, elements)


def negated(h: SparseOperator) -> SparseOperator:
    """Elementwise negation, the time-reversal effective Hamiltonian."""
    return SparseOperator(h.dim, h.rows, h.cols, -h.values)


def secular_dipolar_hamiltonian(system: SpinSystem, basis: ZeemanBasis) -> SparseOperator:
    """Truncated dipolar Hamiltonian that commutes with collective I_z,
    held as its nonzero elements.

    H = sum_{i<j} D_ij (2 I_iz I_jz - (1/2)(I_i+ I_j- + I_i- I_j+)).
    Built in float64 from bit patterns: 2 I_iz I_jz is +-1/2 on the diagonal
    as spins i and j are aligned or not, and the flip-flop term swaps the
    two spins of every state in which they differ, an element -D_ij / 2
    that no other pair reaches.  Each diagonal entry is summed as D / 2
    times an exact integer count (aligned minus opposed pairs) per
    distinct coupling value D, the values ascending, so a relabelling of
    the sites that keeps the couplings keeps the diagonal exactly.
    """
    _check_sizes(system, basis)
    states = np.arange(basis.dim)
    counts = {}
    elements = []
    for i, j, coupling in _coupled_pairs(system):
        aligned = _bit(states, i) == _bit(states, j)
        count = counts.setdefault(coupling, np.zeros(basis.dim, dtype=np.intp))
        count += np.where(aligned, 1, -1)
        differ = states[~aligned]
        elements.append((differ ^ ((1 << i) | (1 << j)), differ,
                         np.full(differ.size, -0.5 * coupling)))
    diagonal = np.zeros(basis.dim)
    for coupling in sorted(counts):
        diagonal += 0.5 * coupling * counts[coupling]
    elements.append((states, states, diagonal))
    return _sparse(basis.dim, elements)


def collective_transverse(basis: ZeemanBasis) -> SparseOperator:
    """I_+ + I_- summed over all spins, held as its nonzero elements.

    The element joining each state to the state with one more spin up is
    1, in both directions; its block from level m to level m + 1 is the
    collective raising operator.  It is real, Hermitian and unchanged by
    every relabelling of the sites.
    """
    states = np.arange(basis.dim)
    elements = []
    for site in range(basis.n_spins):
        down = states[_bit(states, site) == 0]
        up = down | (1 << site)
        ones = np.ones(down.size)
        elements += [(up, down, ones), (down, up, ones)]
    return _sparse(basis.dim, elements)


def _sparse(dim: int, elements: list) -> SparseOperator:
    """The operator made of (rows, cols, values) element groups."""
    rows, cols, values = (np.concatenate([group[k] for group in elements] or [np.empty(0)])
                          for k in range(3))
    return SparseOperator(dim, rows, cols, values)


def site_symmetry(system: SpinSystem) -> np.ndarray | None:
    """A cyclic relabelling sigma of all sites with D[sigma][:, sigma] == D exactly.

    sigma[i] is the site that site i moves to, and sigma runs through all
    N sites in one cycle.  It exists when some order v of the sites makes
    the coupling matrix circulant, D[v_i, v_j] depending only on
    (j - i) mod N; then sigma maps v_j to v_{j+1}.
    The orders are searched depth first from site 0, pruned by exact
    equality, so site labels do not matter.  Every site of such a cycle
    sees the same couplings, which rules most matrices out before any
    search; a search that tries more than ``SYMMETRY_SEARCH_NODES`` orders
    gives up.  Returns None when no cycle is found.
    """
    couplings = system.couplings
    n = system.n_spins
    rows = np.sort(couplings, axis=1)
    if not (rows == rows[0]).all():
        return None
    order = _circulant_order(couplings.tolist())
    if order is None:
        return None
    order = np.array(order)
    cycle = np.empty(n, dtype=np.intp)
    cycle[order] = np.roll(order, -1)
    return cycle


def _circulant_order(d: list) -> list | None:
    """An order v of the sites, v_0 = 0, with d[v_i][v_j] == d[0][v_{(j - i) mod n}]."""
    n = len(d)
    order, used = [0], [False] * n
    used[0] = True
    budget = SYMMETRY_SEARCH_NODES

    def extend() -> bool:
        nonlocal budget
        m = len(order)
        if m == n:
            return all(d[order[i]][order[j]] == d[0][order[(j - i) % n]]
                       for i in range(n) for j in range(n))
        for site in range(n):
            if used[site]:
                continue
            budget -= 1
            if budget < 0:
                return False
            # the new column must repeat the first row's entries, and the
            # first row must read the same forwards and backwards
            if any(d[order[i]][site] != d[0][order[m - i]] for i in range(1, m)):
                continue
            if 2 * m > n and d[0][site] != d[0][order[n - m]]:
                continue
            order.append(site)
            used[site] = True
            if extend():
                return True
            order.pop()
            used[site] = False
        return False

    return order if extend() else None


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
