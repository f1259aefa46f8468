"""One step of the solver's growth ascent, for the tests that step it."""

import numpy as np

from hyperlag.solver import _ascend, _link_matrix


def ascent_step(g, x):
    """One multiplicative update of the solver's ascent."""
    return _ascend(_link_matrix(g), g.r, np.asarray(x, dtype=float)[None, :], 1)[0][0]
