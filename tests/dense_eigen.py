"""Dense eigenbasis views assembled from per-block eigenpairs.

mqpure keeps every eigenbasis as a tuple of ``EigenBlock``; tests that
check residuals, orthonormality or sort order, or that compare against
loops over the full basis, rebuild the dense matrices here.
"""

import numpy as np


def dense_transform(blocks) -> np.ndarray:
    """All block eigenvectors as one dense matrix over the full basis.

    Columns follow the blocks in order; each column is zero outside the
    states of its block.  Over slice k of a block's states a column is
    ``weights[k]`` times the block eigenvector, times the block's
    ``scale`` per row where it has one, and a state listed in several
    slices sums its entries.  This embeds momentum sector blocks as phased
    sums over orbits: for the flip of every spin (L = 2) the combinations
    (|s> + |s'>)/sqrt(2) and (|s> - |s'>)/sqrt(2).
    """
    dim = sum(block.eigenvalues.size for block in blocks)
    dtype = np.result_type(*(block.eigenvectors for block in blocks),
                           *(block.weights for block in blocks))
    dense = np.zeros((dim, dim), dtype=dtype)
    start = 0
    for block in blocks:
        stop = start + block.eigenvalues.size
        vectors = block.eigenvectors
        if block.scale is not None:
            vectors = block.scale[:, np.newaxis] * vectors
        np.add.at(dense, (block.states[:, np.newaxis], np.arange(start, stop)),
                  np.kron(block.weights[:, np.newaxis], vectors))
        start = stop
    return dense


def dense_eigen(blocks):
    """Eigenvalues ascending over all blocks and the matching dense eigenvectors."""
    values = np.concatenate([block.eigenvalues for block in blocks])
    order = np.argsort(values, kind="stable")
    return values[order], dense_transform(blocks)[:, order]
