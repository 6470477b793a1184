"""Dense evaluation of sweep observables, the reference for the sector sweep.

``mqpure.sweep`` never builds rho(t); these helpers evaluate the same
observables on a dense matrix, and on ``evolve`` at each grid time.
"""

import numpy as np

from mqpure import Observable, build_basis, evolve


def evaluate(observable, matrix) -> float:
    """weight * sum_k f(matrix.ravel()[flat[k]]), f = |.|^2 or Re; for an
    order intensity, weight * the sum of |.|^2 over the blocks of every
    pair of spin-up levels (``basis.levels()``) that differ by its order."""
    matrix = np.asarray(matrix)
    if observable.order is not None:
        levels = build_basis(matrix.shape[0].bit_length() - 1).levels()
        total = sum(float(np.sum(np.abs(matrix[np.ix_(rows, cols)]) ** 2))
                    for i, rows in enumerate(levels) for j, cols in enumerate(levels)
                    if abs(i - j) == observable.order)
        return observable.weight * total
    values = matrix.ravel()[observable.flat]
    picked = np.abs(values) ** 2 if observable.squared else values.real
    return observable.weight * float(np.sum(picked))


def divisor(name, purity) -> float:
    """``purity`` for a column that is a fraction of the initial purity
    (``F<n>``, ``*_frac``), which a caller divides after the sweep as
    ``mqpure sweep`` does; 1.0 for the others."""
    return purity if name[0] == "F" or name.endswith("_frac") else 1.0


def dense_sweep(rho, h, times, observables, unit="cyclic") -> dict:
    """Each observable evaluated on the dense ``evolve(rho, h, t)`` at every time."""
    states = [evolve(rho, h, t, unit=unit).matrix for t in times]
    return {name: np.array([evaluate(obs, state) for state in states])
            for name, obs in observables.items()}


def order_elements(basis, n) -> Observable:
    """The order-n intensity as an element observable: every element from a
    spin-up level to the level n above it, weighed 2 for n > 0, which for a
    Hermitian state is the sum over both orders n and -n."""
    levels = basis.levels()
    flat = np.concatenate([(basis.dim * high[:, np.newaxis] + low).ravel()
                           for low, high in zip(levels, levels[n:])])
    return Observable(flat, 1.0 if n == 0 else 2.0)
