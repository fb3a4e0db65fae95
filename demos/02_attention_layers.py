"""The two attention forms, side by side.

Additive attention scores every position pair through a small feed-forward
network; multi-head attention splits the feature space into subspaces and
uses scaled dot products.  Neither knows about positions, so permuting a
sequence permutes the output identically.  Padding only ends a row, and each
layer keeps one weight block per sequence in ``cache[2]``: a row of n tokens
gets an n x n block (h x n x n for multi-head), whose rows are distributions
over its real tokens, with no column for padding.
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
values = rng.standard_normal((1, 5, dim))
mask = np.ones((1, 5), dtype=bool)
mask[0, -1] = False  # last position is padding
values[0, -1] = 0.0
x = BatchTensor(values, mask)

additive = AdditiveSelfAttention(dim, rng, attn_dim=8)
multihead = MultiHeadSelfAttention(dim, heads=2, rng=rng)

out_add, cache_add = additive.forward(x)
out_mha, cache_mha = multihead.forward(x)
block_add = cache_add[2][0]
block_mha = cache_mha[2][0]

print("== additive attention weights of the 4-token row (rows: query, cols: key) ==")
print(np.round(block_add, 3))
print("block shape", block_add.shape, "for 4 tokens and 1 padded position")
print("rows sum to", block_add.sum(axis=1))
print("padded output row:", out_add.values[0, 4], "\n")

print("== multi-head weights, one block per head ==")
print("block shape", block_mha.shape, "(head, query, key); head 0:")
print(np.round(block_mha[0], 3))
print()

print("== permutation equivariance ==")
perm = rng.permutation(4)
values_perm = values.copy()
values_perm[0, :4] = values[0, perm]
out_perm, _ = additive.forward(BatchTensor(values_perm, mask))
drift = np.abs(out_perm.values[0, :4] - out_add.values[0, perm]).max()
print(f"permuted input vs permuted output: max deviation {drift:.2e}")
