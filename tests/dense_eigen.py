"""Dense eigenbasis views assembled from per-block eigenpairs.

mqpure keeps every eigenbasis as a tuple of ``EigenBlock``; tests that
check residuals, orthonormality or sort order, or that compare against
loops over the full basis, rebuild the dense matrices here.
"""

import mpmath
import numpy as np

from mqpure.spin_core import cyclic_phases


def weights(block) -> np.ndarray:
    """Coefficient of each equal slice of ``block.states`` in the block's vectors.

    Over slice j of the states, an eigenvector of the full basis is
    ``weights[j]`` times the matching column of ``eigenvectors``, times
    ``scale`` per row where the block has one; a state listed in several
    slices collects the sum of its entries.  The weights are real where 2k
    is a multiple of L.
    """
    slices = block.states.size // block.eigenvalues.size
    phases = cyclic_phases(slices)[block.momentum * np.arange(slices) % slices]
    return phases.real if 2 * block.momentum % slices == 0 else phases


def dense_transform(blocks) -> np.ndarray:
    """All block eigenvectors as one dense matrix over the full basis.

    Columns follow the blocks in order; each column is zero outside the
    states of its block.  Over slice k of a block's states a column is
    ``weights(block)[k]`` times the block eigenvector, times the block's
    ``scale`` per row where it has one, and a state listed in several
    slices sums its entries.  This embeds momentum sector blocks as phased
    sums over orbits: for the flip of every spin (L = 2) the combinations
    (|s> + |s'>)/sqrt(2) and (|s> - |s'>)/sqrt(2).
    """
    dim = sum(block.eigenvalues.size for block in blocks)
    dtype = np.result_type(*(block.eigenvectors for block in blocks),
                           *(weights(block) for block in blocks))
    dense = np.zeros((dim, dim), dtype=dtype)
    start = 0
    for block in blocks:
        stop = start + block.eigenvalues.size
        vectors = block.eigenvectors
        if block.scale is not None:
            vectors = block.scale[:, np.newaxis] * vectors
        np.add.at(dense, (block.states[:, np.newaxis], np.arange(start, stop)),
                  np.kron(weights(block)[:, np.newaxis], vectors))
        start = stop
    return dense


def dense_eigen(blocks):
    """Eigenvalues ascending over all blocks and the matching dense eigenvectors."""
    values = np.concatenate([block.eigenvalues for block in blocks])
    order = np.argsort(values, kind="stable")
    return values[order], dense_transform(blocks)[:, order]


def exact_eigenvalues(h: np.ndarray, digits: int = 40) -> np.ndarray:
    """Eigenvalues ascending of a real symmetric matrix, from mpmath at
    ``digits`` digits and rounded to float, one connected set of states
    (joined by nonzero entries) at a time.

    LAPACK loses about 1e-10 of 1 when entries near 1e-157, whose squares
    are subnormal, sit beside entries near 1; this does not.
    """
    labels = np.arange(len(h))
    while True:  # each state takes the least label of its set
        spread = np.minimum(labels, np.where(h != 0, labels, len(h)).min(axis=1))
        if np.array_equal(spread, labels):
            break
        labels = spread
    values = []
    with mpmath.workdps(digits):
        for label in np.unique(labels):
            part = np.flatnonzero(labels == label)
            block = mpmath.matrix(h[np.ix_(part, part)].tolist())
            values += [float(x) for x in mpmath.eigsy(block, eigvals_only=True)]
    return np.sort(values)


def refined_eigh(h: np.ndarray, digits: int = 40, spread: float = 1e-3,
                 _eigh=np.linalg.eigh) -> tuple:
    """Eigenpairs ascending of a real symmetric matrix: LAPACK's, with the
    vectors of each run of eigenvalues closer than ``spread`` times the
    largest |eigenvalue| refined at ``digits`` digits.

    LAPACK's vectors mix two eigenvalues a gap g apart by about 1e-16 of
    the scale over g, so states that a coupling near 1e-7 splits come out
    mixed by about 1e-9.  A run's vectors span its invariant subspace to
    about 1e-16 of the scale over the gap to the other eigenvalues, though.
    Made exactly orthonormal (QR at ``digits`` digits), they give V+ h V
    within the square of that error, and its mpmath eigenvectors resolve
    the run's splittings.  ``_eigh`` is LAPACK's, kept should a test put
    this function in its place.
    """
    values, vectors = _eigh(h)
    scale = max(np.abs(values).max(initial=0.0), 1e-300)
    starts = np.flatnonzero(np.r_[True, np.diff(values) > spread * scale])
    with mpmath.workdps(digits):
        exact = mpmath.matrix(np.asarray(h).tolist())
        for start, stop in zip(starts, np.r_[starts[1:], values.size]):
            if stop - start > 1:
                run, _ = mpmath.qr(mpmath.matrix(vectors[:, start:stop].tolist()), mode="skinny")
                inner, rotation = mpmath.eigsy(run.T * exact * run)
                values[start:stop] = [float(x) for x in inner]
                vectors[:, start:stop] = np.array((run * rotation).tolist(), dtype=float)
    return values, vectors
