"""Determinism-rule fixture: numpy imported inside a function.

Parsed, never run, by tests/analysis/test_determinism.py.  Modules
that import numpy only where they draw must stay as visible to the
rule as modules that import it at the top.
"""


def draw() -> float:
    import numpy as np
    return np.random.default_rng().random()  # unseeded constructor
