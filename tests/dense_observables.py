"""Dense evaluation of sweep observables, the reference for the block-layout sweep.

``mqpure.sweep`` never builds rho(t); these helpers evaluate the same
observables on a dense matrix, and on ``evolve`` at each grid time.
"""

import numpy as np

from mqpure import evolve


def evaluate(observable, matrix) -> float:
    """weight * sum_k f(matrix.ravel()[flat[k]]), f = |.|^2 or Re."""
    values = np.asarray(matrix).ravel()[observable.flat]
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
