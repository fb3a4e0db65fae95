"""The two attention forms, side by side.

Additive attention scores every position pair through a small feed-forward
network; multi-head attention splits the feature space into subspaces and
uses scaled dot products.  Neither knows about positions, so permuting a
sequence permutes the output identically.  A batch holds only tokens: the
rows of its sequences one after the other, and each sequence's (lo, hi)
span of them.  Each layer keeps one weight block per sequence in
``cache[2]``: a sequence of n tokens gets an n x n block (h x n x n for
multi-head), whose rows are distributions over its tokens.
"""

import numpy as np

from argseg.layers import AdditiveSelfAttention, MultiHeadSelfAttention, choose_heads
from argseg.numeric import BatchTensor

rng = np.random.default_rng(7)

print("== head-count rule ==")
for dim in (300, 3072, 4196):
    print(f"feature dim {dim:5d} -> {choose_heads(dim)} heads "
          f"(largest divisor capped at 6)")
print()

dim = 6
long_row = rng.standard_normal((4, dim))
short_row = rng.standard_normal((1, dim))
x = BatchTensor.from_rows([long_row, short_row])
print("== a packed batch: a 4-token row beside a 1-token row ==")
print("x.rows shape", x.rows.shape, "(tokens, features)")
print("x.spans", x.spans, "\n")

additive = AdditiveSelfAttention(dim, rng, attn_dim=8)
multihead = MultiHeadSelfAttention(dim, heads=2, rng=rng)

out_add, cache_add = additive.forward(x)
out_mha, cache_mha = multihead.forward(x)
block_add = cache_add[2][0]
block_mha = cache_mha[2][0]

print("== additive attention weights of the 4-token row (rows: query, cols: key) ==")
print(np.round(block_add, 3))
print("block shapes", [b.shape for b in cache_add[2]], "one per sequence")
print("rows sum to", block_add.sum(axis=1))
lo, hi = x.spans[1]
print("the 1-token row attends only to itself: its output equals its input:",
      np.allclose(out_add.rows[lo:hi], short_row), "\n")

print("== multi-head weights, one block per head ==")
print("block shape", block_mha.shape, "(head, query, key); head 0:")
print(np.round(block_mha[0], 3))
print()

print("== permutation equivariance ==")
perm = rng.permutation(4)
out_perm, _ = additive.forward(BatchTensor.from_rows([long_row[perm], short_row]))
drift = np.abs(out_perm.rows[:4] - out_add.rows[perm]).max()
print(f"permuted input vs permuted output: max deviation {drift:.2e}")
