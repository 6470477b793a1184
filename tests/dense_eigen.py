"""Dense eigenbasis views assembled from per-block eigenpairs.

mqpure keeps every eigenbasis as a tuple of ``EigenBlock``; tests that
check residuals, orthonormality or sort order, or that compare against
loops over the full basis, rebuild the dense matrices here.
"""

import numpy as np


def dense_transform(blocks) -> np.ndarray:
    """All block eigenvectors as one dense matrix over the full basis.

    Columns follow the blocks in order; each column is zero outside the
    states of its block.
    """
    dim = sum(block.states.size for block in blocks)
    dtype = np.result_type(*(block.eigenvectors for block in blocks))
    dense = np.zeros((dim, dim), dtype=dtype)
    start = 0
    for block in blocks:
        stop = start + block.states.size
        dense[block.states, start:stop] = block.eigenvectors
        start = stop
    return dense


def dense_eigen(blocks):
    """Eigenvalues ascending over all blocks and the matching dense eigenvectors."""
    values = np.concatenate([block.eigenvalues for block in blocks])
    order = np.argsort(values, kind="stable")
    return values[order], dense_transform(blocks)[:, order]
