"""From brat standoff annotations to model-ready BIO sequences.

Essays arrive as .txt/.ann pairs: typed character spans mark argumentative
units (major claims, claims, premises).  The pipeline collapses the types,
tokenizes with exact offsets, labels tokens B/I/O and cuts the essay into
paragraph or sentence sequences without ever splitting a unit at a sentence
boundary.
"""

from argseg.corpus import build_sequences, parse_brat, tokenize, write_conll
from argseg.toydata import brat_lines, toy_corpus

essay, spans = toy_corpus(1, seed=3)[0]

print("== essay text ==")
print(essay.text)

print("== brat standoff lines ==")
ann = brat_lines(spans, essay.text)
print(ann)

parsed = parse_brat(ann, essay.text)
print(f"parsed {len(parsed)} unit spans "
      f"(relation/attribute lines were ignored)\n")

tokens = tokenize(essay.text)
print(f"== tokenization: {len(tokens)} tokens, offsets exact ==")
print([t.text for t in tokens[:12]], "...\n")

print("== paragraph sequences with BIO labels ==")
for seq in build_sequences(essay, parsed, "paragraph"):
    tagged = " ".join(f"{word}/{lab}" for word, lab in zip(seq.words, seq.labels))
    print(f"[{seq.sequence_index}] {tagged}")
print()

print("== sentence granularity never cuts a unit ==")
for seq in build_sequences(essay, parsed, "sentence"):
    labels = "".join(seq.labels)
    print(f"[{seq.sequence_index:2d}] {labels}")
print()

print("== CoNLL-style dump (first lines) ==")
import io

buf = io.StringIO()
write_conll(build_sequences(essay, parsed, "paragraph"), buf)
print("\n".join(buf.getvalue().splitlines()[:8]))
