"""The pipeline's post-filter stage on dense states, the oracle for its sector pairs.

``pipeline._after_filter`` excites, filters and reverses the thermal
state on the sector pairs of the double-quantum eigensystem and reads
the results from them.  Here the same steps run on whole d x d states,
each evolved through the eigensystem: ``evolve``, ``filter_order``,
``mq_intensities`` and ``TransitionGraph.populations``.
"""

from mqpure import evolve, mq
from mqpure.pipeline import _AfterFilter


def dense_after_filter(rho_thermal, eig, basis, graph, n: int, t: float,
                       unit: str) -> _AfterFilter:
    """``pipeline._after_filter`` on dense states, each evolved through the eigensystem."""
    filtered = mq.filter_order(evolve(rho_thermal, eig, t, unit=unit), basis, n)
    reversed_ = evolve(filtered, eig, -t, unit=unit)
    up, down = basis.index_all_up, basis.index_all_down
    return _AfterFilter(
        kept=filtered.purity(),
        intensities=mq.mq_intensities(reversed_, basis),
        pair=abs(reversed_.matrix[up, up]) ** 2 + abs(reversed_.matrix[down, down]) ** 2,
        populations=graph.populations(reversed_),
    )
