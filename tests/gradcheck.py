"""Central finite-difference oracle for the tape's analytic gradients.

A plain module, not a test file: the autodiff, model, loss and acceptance
tests import ``grad_check`` from here, and so do the acceptance suite's
spawned ablation workers when they import ``test_acceptance``.
"""

import numpy as np

from spotalign.autodiff import DiffTensor, Tape, _as_array
from spotalign.errors import ContractError


def grad_check(f, x, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map one DiffTensor to a scalar DiffTensor and must not keep
    state between calls; it is evaluated on constants for the numeric side.
    """
    x0 = _as_array(x)
    tape = Tape()
    xt = tape.leaf(x0)
    out = f(xt)
    if out.data.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued f, got shape {out.data.shape}")
    if out.tape is None:  # f ignored x entirely
        analytic = np.zeros_like(x0)
    else:
        analytic = tape.backward(out)[xt.node_id]

    numeric = np.zeros_like(x0)
    for idx in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[idx] += h
        xm = x0.copy()
        xm[idx] -= h
        fp = f(DiffTensor(xp)).item()
        fm = f(DiffTensor(xm)).item()
        numeric[idx] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
