"""The momentum sectors of one cyclic state permutation G.

Every step of the experiment runs in these sectors: the excitation, the
filter, the time reversal and the crush.  G has order L and leaves the
Hamiltonian exactly unchanged; its sectors are taken within each
popcount-parity group (a Hamiltonian with no element between even- and
odd-popcount states, such as the double-quantum one, which flips spins
in pairs, has two groups).  :func:`~mqpure.evolution.diagonalize` takes
for G

- the state permutation P of a site cycle (found from the couplings by
  :func:`~mqpure.hamiltonians.site_symmetry`) where H is invariant under it;
- otherwise, at even N, the flip of every spin (state s to 2^N - 1 - s,
  the reversal of the index order, L = 2), which leaves the double-quantum
  and the secular Hamiltonian unchanged for any couplings;
- otherwise the identity (L = 1: each parity group is one sector).

Sector k is spanned by sqrt(p)/L sum_j exp(-2 pi i k j / L) G^j |a> over
the orbit representatives a whose period p allows k (Sandvik,
arXiv:1101.3281, section 4), and its matrix is folded from one (r, L, r)
gather of H per group (:func:`sector_reader`, :func:`momentum_blocks`).

A state of character chi = +1 or -1 under G (G rho G+ = chi rho, checked
exactly by :func:`character`) has elements only between sectors k + q
and k, with q = 0 for chi = 1 and q = L/2 for chi = -1, so propagation
runs on those sector pairs alone (:func:`sector_parts`).  The thermal
state I_z and the top-order coherence have chi = 1 under a site cycle and
chi = -1 under the flip.  A state of neither character runs on the
eigensystem of G = identity.  :func:`class_matrices` folds a pair of
groups' sector pairs into their element classes, from which
:func:`elements` gathers any block of rho.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .spin_core import (
    DensityMatrix,
    EigenBlock,
    Operator,
    SparseOperator,
    adjoint,
    cyclic_phases,
    frozen_array,
    gemm,
    popcounts,
)

# i^c for c = 0 .. 3
QUARTER_TURNS = np.array([1, 1j, -1, -1j])


class Orbits(NamedTuple):
    """The orbits of the basis states under a cyclic state permutation G.

    ``table[o, j]`` is G^j of the representative (smallest state) of orbit
    o, for j below the order L of G; orbits ascend by representative.
    State s is ``table[of[s], step[s]]`` with ``step[s]`` below the orbit's
    ``period``.  ``shift`` is G.
    """

    shift: np.ndarray
    table: np.ndarray
    of: np.ndarray
    step: np.ndarray
    period: np.ndarray

    @property
    def order(self) -> int:
        return self.table.shape[1]

    def members(self, block: EigenBlock) -> np.ndarray:
        """The orbits of a sector block, in its order."""
        return self.of[block.states[:block.eigenvalues.size]]


def rotation_sign(op: SparseOperator) -> int:
    """eps = 1 or -1 with A(op) = eps op exactly, or 0 where neither holds.

    A(X) = R conj(X) R+ with R = exp(i pi I_z / 2), which is diagonal, i^c
    up to one global phase on a state of spin-up count c, so
    A(op)[s, u] = i^(c_s - c_u) conj(op[s, u]).  Where A(H) = -H,
    A(exp(-iHt)) = exp(-iHt), and A(rho0) = eps rho0 then gives
    rho(t)[s, u] = eps i^(c_s - c_u) conj(rho(t)[s, u]) at every t.  A real
    op has eps = 1 where its nonzeros join counts that differ by 0 mod 4
    and -1 where they differ by 2 mod 4, an imaginary op the opposite; a
    NaN has neither, and a zero op both (-1 is returned).
    """
    count = popcounts(np.arange(op.dim))
    rotated = QUARTER_TURNS[(count[op.rows] - count[op.cols]) % 4] * op.values.conj()
    return next((sign for sign in (-1, 1) if np.array_equal(rotated, sign * op.values)), 0)


def state_permutation(sites: np.ndarray, dim: int) -> np.ndarray:
    """The basis-state permutation that moves the spin on site i to site sites[i]."""
    sites = np.asarray(sites)
    if sites.size != dim.bit_length() - 1 or not np.array_equal(np.sort(sites),
                                                                  np.arange(sites.size)):
        raise ValueError(f"site permutation {sites} does not fit dimension {dim}")
    states = np.arange(dim)
    moved = np.zeros(dim, dtype=np.intp)
    for site, target in enumerate(sites):
        moved |= ((states >> site) & 1) << target
    return moved


def orbits_of(shift: np.ndarray) -> Orbits:
    """The orbits of the cyclic state permutation ``shift``."""
    powers = [np.arange(shift.size)]
    while not np.array_equal(next_power := shift[powers[-1]], powers[0]):
        powers.append(next_power)
    powers = np.array(powers)
    representative = powers.min(axis=0)
    reps = np.flatnonzero(representative == powers[0])
    table = powers[:, reps].T
    # an orbit of period p returns to its representative L / p times in L steps
    period = table.shape[1] // (table == table[:, :1]).sum(axis=1)
    step = np.zeros(shift.size, dtype=np.intp)
    for j in range(table.shape[1] - 1, -1, -1):
        step[table[:, j]] = j
    of = np.searchsorted(reps, representative)
    return Orbits(shift, table, of, step, period)


def sector_reader(op: Operator | SparseOperator, orbits: Orbits, outer: np.ndarray,
                  inner: np.ndarray) -> tuple:
    """The (r, L, r) gather op[a, G^l b], a and b the representatives of
    the ``outer`` and ``inner`` orbits, and sector(k, q), the matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) op[a, G^l b] between sectors k + q
    and k: over the a whose period allows k + q and the b whose period
    allows k (c = sqrt(period) / L), real where 2k is a multiple of L and
    the gather is real.  The sums over l are one product of phase rows by
    the gather, batched over a: for a real gather, the real parts of
    k <= L/2 and the imaginary parts of 0 < k < L/2 (L real rows), sector
    L - k being the conjugate of sector k; else the phases of all L
    momenta.  The phase of l is looked up at k l mod L, so it repeats
    exactly with any period of l that k allows."""
    order = orbits.order
    gathered = op.gather(orbits.table[outer, 0], orbits.table[inner].T)
    period_a, period_b = orbits.period[outer], orbits.period[inner]
    scale_a, scale_b = np.sqrt(period_a) / order, np.sqrt(period_b) / order
    phases = cyclic_phases(order)[np.multiply.outer(np.arange(order), np.arange(order)) % order]
    real = not np.iscomplexobj(gathered)
    if real:
        phases = np.concatenate([phases[:order // 2 + 1].real, phases[1:(order + 1) // 2].imag])
    # under the identity (L = 1) the one phase is 1, and the sum the gather
    summed = gathered if order == 1 else np.matmul(phases, gathered)

    def sector(k: int, q: int = 0) -> np.ndarray:
        keep_a = (k + q) * period_a % order == 0
        keep_b = k * period_b % order == 0
        low = min(k, order - k) if real else k
        values = summed[:, low]
        if real and 2 * k % order:
            values = values + (1j if k == low else -1j) * summed[:, order // 2 + low]
        # the orbits that the sectors do not allow are left out first
        if not keep_a.all():
            values = values[keep_a]
        if not keep_b.all():
            values = values[:, keep_b]
        return values * (order * np.multiply.outer(scale_a[keep_a], scale_b[keep_b]))

    return gathered, sector


def momentum_blocks(h: SparseOperator, groups, orbits: Orbits) -> tuple:
    """Eigenblocks of the momentum sectors of each group.

    With H[G s, G t] = H[s, t], sector k has the matrix
    L c_a c_b sum_l exp(-2 pi i k l / L) H[a, G^l b] over the
    representatives a, b allowed in it, c = sqrt(period)/L: one gather
    of (r, L, r) elements per group.  For a real H sector L - k is the
    conjugate of sector k and reuses its eigenpairs.
    """
    order = orbits.order
    blocks = []
    for group in groups:
        # the orbits whose representative, step 0, lies in the group
        members = orbits.of[group[orbits.step[group] == 0]]
        table = orbits.table[members]
        _, sector = sector_reader(h, orbits, members, members)
        scale = np.sqrt(orbits.period[members]) / order
        sectors = {}
        for k in range(order):
            keep = k * orbits.period[members] % order == 0
            if not keep.any():
                continue
            if 2 * k > order and not np.iscomplexobj(h.values):
                values, vectors = sectors[order - k]
                vectors = vectors.conj()
            else:
                values, vectors = sectors[k] = np.linalg.eigh(sector(k))
            blocks.append(EigenBlock(frozen_array(table[keep].T.ravel()), frozen_array(values),
                                     frozen_array(vectors), momentum=k,
                                     scale=frozen_array(scale[keep])))
    return tuple(blocks)


class Part(NamedTuple):
    """A nonzero sector pair (a, b) of a state, ``moved`` into the eigenbasis."""

    a: EigenBlock
    b: EigenBlock
    moved: np.ndarray


def character(rho: DensityMatrix | SparseOperator, eig) -> tuple:
    """(eig, chi) for an :class:`~mqpure.evolution.EigenSystem` ``eig``:
    chi = 1 or -1 with G rho G+ = chi rho exactly, or, for a state of
    neither character, the fallback eigensystem and chi = 1."""
    if eig.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, hamiltonian {eig.dim}")
    orbits = eig.orbits
    if orbits.order == 1 or rho.invariant(orbits.shift):
        return eig, 1
    if orbits.order % 2 == 0 and rho.invariant(orbits.shift, -1):
        return eig, -1
    return eig.fallback, 1


def sector_groups(eig) -> list:
    """The momentum blocks of each group of an eigensystem, as {k: block}."""
    groups = []
    for block in eig.blocks:
        if block.momentum == 0:
            groups.append({})
        groups[-1][block.momentum] = block
    return groups


def sector_parts(rho: DensityMatrix | SparseOperator, eig, chi: int, momenta):
    """The nonzero sector pairs (k + q, k) of a state of character chi, in the eigenbasis.

    The pair's block between groups A and B is
    rho_k[a, b] = L c_a c_b sum_l exp(-2 pi i k l / L) rho[a, G^l b]
    over the a allowed in sector k + q and the b allowed in sector k, from
    one gather of rho per pair of groups.  For chi = -1 the (k, k + q) pair
    of a group with itself is the adjoint of its (k + q, k) pair, so only
    k < q run there.  Yields (left, right, parts) for each pair of groups,
    left not after right, whose gather is not all zero, one pair at a
    time; each part is a :class:`Part` (a, b, V_a+ rho_k V_b) of one k in
    ``momenta``.
    """
    groups = sector_groups(eig)
    for i, left in enumerate(groups):
        for right in groups[i:]:
            parts = pair_parts(rho, eig.orbits, chi, left, right, momenta)
            if parts is not None:
                yield left, right, parts


def pair_parts(rho: Operator | DensityMatrix | SparseOperator, orbits: Orbits, chi: int,
               left: dict, right: dict, momenta) -> list | None:
    """The parts of :func:`sector_parts` between two groups, or None where
    their gather is all zero.  ``rho`` may be any operator of character
    chi, such as I_+ + I_- between two m levels in the transition graph.
    The gather goes once its sums over l are taken, and they go on
    return, before the pair is reduced."""
    order = orbits.order
    q = 0 if chi == 1 else order // 2
    gathered, sector = sector_reader(rho, orbits, orbits.members(left[0]),
                                     orbits.members(right[0]))
    if not gathered.any():
        return None
    del gathered
    parts = []
    for k in momenta:
        if (left is right and 0 < q <= k) or (k + q) % order not in left or k not in right:
            continue
        a, b = left[(k + q) % order], right[k]
        block = sector(k, q)
        if block.any():
            moved = gemm(gemm(adjoint(a.eigenvectors), block), b.eigenvectors)
            parts.append(Part(a, b, moved))
    return parts


def add_part(classes: np.ndarray, part: Part, y: np.ndarray, chi: int, self_pair: bool,
             outer: np.ndarray, inner: np.ndarray, orbits: Orbits, spare: np.ndarray) -> None:
    """Add a part's stack into the element classes g_l = sum_k exp(2 pi i k l / L) rho_k.

    ``classes`` is a (rows, K, cols) stack (L |outer|, K, |inner|) over the
    orbits of a pair of groups, row l |outer| + a holding g_l[a]; ``y``
    (r_a, K, r_b) is the part's rho_k, k its right momentum.  With f_l = g_l / sqrt(p_a p_b),
    element rho[G^i a, G^(i+l) b] is chi^i f_l[a, b].  For chi = -1 a group
    with itself also adds the adjoint of ``y``, made in the flat complex
    buffer ``spare``, as its (k, k + q) pair.
    """
    order, k = orbits.order, part.b.momentum
    first, second = orbits.members(part.a), orbits.members(part.b)
    stacks = [(y, k, first, second)]
    if self_pair and chi == -1:
        adjoint_y = spare[:y.size].reshape(y.shape[::-1])
        np.conjugate(y.transpose(2, 1, 0), out=adjoint_y)
        stacks.append((adjoint_y, (k + order // 2) % order, second, first))
    blocks = classes.reshape(order, outer.size, *classes.shape[1:])
    for stack, momentum, rows, cols in stacks:
        turn = cyclic_phases(order).conj()[momentum * np.arange(order) % order]
        index = (slice(None),)
        if rows.size < outer.size or cols.size < inner.size:
            # the two index arrays put the rows and columns first, then time
            index = (np.searchsorted(outer, rows)[:, np.newaxis], slice(None),
                     np.searchsorted(inner, cols))
            stack = stack.transpose(0, 2, 1)
        for l, phase in enumerate(turn):
            target = blocks[l]
            if phase == 1:
                target[index] += stack
            elif phase == -1:
                target[index] -= stack
            else:
                target[index] += phase * stack


def class_matrices(parts: list, chi: int, self_pair: bool, outer: np.ndarray,
                   inner: np.ndarray, orbits: Orbits) -> np.ndarray:
    """The element classes g_l of a pair of groups, shaped (L, |outer|, |inner|),
    from parts whose ``moved`` is their rho_k in the sector basis
    (:func:`add_part` with K = 1); :func:`elements` normalises what it reads."""
    classes = np.zeros((orbits.order * outer.size, 1, inner.size), dtype=complex)
    spare = np.empty(max((part.moved.size for part in parts), default=0), dtype=complex)
    for part in parts:
        add_part(classes, part, part.moved[:, np.newaxis, :], chi, self_pair, outer, inner,
                 orbits, spare)
    return classes.reshape(orbits.order, outer.size, inner.size)


def elements(classes: np.ndarray, chi: int, outer: np.ndarray, inner: np.ndarray,
             orbits: Orbits, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rho[rows, cols] from the classes of :func:`class_matrices`, the rows
    in the ``outer`` orbits and the columns in the ``inner`` ones:
    rho[G^i a, G^j b] = chi^i f_((j - i) mod L)[a, b], f_l = g_l / sqrt(p_a p_b),
    read by one gather and scaled by one product."""
    i, a, b = orbits.step[rows], orbits.of[rows], orbits.of[cols]
    values = classes[(orbits.step[cols] - i[:, np.newaxis]) % orbits.order,
                     np.searchsorted(outer, a)[:, np.newaxis], np.searchsorted(inner, b)]
    values *= np.multiply.outer(chi ** i / np.sqrt(orbits.period[a]),
                                1 / np.sqrt(orbits.period[b]))
    return values
