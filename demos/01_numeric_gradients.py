"""Numeric core tour: matrices, stable softmax, and gradient verification.

Every layer in this package ships a hand-written backward pass.  The
gradient checker probes each parameter and input entry with a complex step
(one forward on complex values, exact to rounding) and reports the worst
relative disagreement, so a broken derivative cannot hide.  This script runs the checker on a healthy BiLSTM and then on a
deliberately corrupted one.
"""

import numpy as np

from argseg.layers import BiLstm
from argseg.numeric import BatchTensor, grad_check, softmax_rows
from argseg.selftest import GRAD_TOLERANCE

rng = np.random.default_rng(0)

print("== stable softmax ==")
logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 999.0]])
probs = softmax_rows(logits)
print("softmax rows:\n", np.round(probs, 6))
print("row sums:", probs.sum(axis=1), "(huge logits stay finite)\n")

print("== matrix product contract ==")
a = rng.standard_normal((2, 3))
b = rng.standard_normal((3, 2))
print("(2,3) @ (3,2) ->", (a @ b).shape)
try:
    a @ np.zeros((5, 2))
except ValueError as exc:
    print("shape mismatch is loud:", exc, "\n")

print("== gradient check on a BiLSTM ==")
layer = BiLstm(input_dim=4, hidden=5, rng=rng)
x = BatchTensor.from_rows([rng.standard_normal((3, 4)) * 0.5,
                           rng.standard_normal((2, 4)) * 0.5])
err = grad_check(layer, x, rng=rng)
print(f"healthy backward pass: max relative error {err:.2e} (tolerance {GRAD_TOLERANCE:.0e})")


class Corrupted:
    """Same layer, but the first weight gradient is doubled in backward."""

    def __init__(self, inner):
        self.inner = inner

    def params(self):
        return self.inner.params()

    def forward(self, x):
        return self.inner.forward(x)

    def backward(self, cache, grad_out):
        out = self.inner.backward(cache, grad_out)
        self.inner.params()[0].grad *= 2.0
        return out


err_bad = grad_check(Corrupted(layer), x, rng=rng)
print(f"corrupted backward pass: max relative error {err_bad:.2e}  <- caught")
