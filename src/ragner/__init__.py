"""Retrieval-augmented few-shot NER pipeline toolkit.

The pipeline: parse a BIO corpus and an entity schema, embed store
sentences word-by-word, index the vectors (flat or IVF), retrieve the k
most similar labeled examples per query, render a four-section prompt,
send it to a completion backend, parse the dictionary-shaped answer, and
score micro-F1 against gold. An augmentation stage generates the
regularized finetuning dataset (entity-type dropout and shuffling), and
an ablation runner sweeps configuration grids reproducibly.
"""

__version__ = "0.1.0"
