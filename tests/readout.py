"""Dense read-out oracle shared by the tests."""

import numpy as np


def dense_read_out(probabilities, emap) -> tuple[np.ndarray, float]:
    """Qubit outcome probabilities of a register-sized probability vector,
    bitstring x (qubit 0 most significant) at index x, and the leakage.

    Every nonzero entry decodes through ``emap``: bystander bits are summed
    over, and the weight off the computational levels is the leakage.
    """
    probs = np.asarray(probabilities, dtype=float)
    assert probs.shape == (emap.register.size,)
    live = np.flatnonzero(probs)
    outcome, computational = emap.decode(live)
    weights = probs[live]
    n = emap.qubit_count
    table = np.bincount(outcome[computational], weights=weights[computational], minlength=2**n)
    return table, float(weights[~computational].sum())
