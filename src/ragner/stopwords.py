"""Embedded English stop-word list used by word-level retrieval.

The default list is the classic ~130-word English function-word list. A
deployment can override it with a plain-text file (one word per line,
`#` comments allowed) via `load_stopwords`.
"""

from __future__ import annotations

from pathlib import Path

from . import files

DEFAULT_STOPWORDS: frozenset[str] = frozenset("""
a about above after again against all am an and any are aren't as at be
because been before being below between both but by can't cannot could
couldn't did didn't do does doesn't doing don't down during each few for
from further had hadn't has hasn't have haven't having he her here hers
herself him himself his how i if in into is isn't it its itself let's me
more most mustn't my myself no nor not of off on once only or other ought
our ours ourselves out over own same shan't she should shouldn't so some
such than that the their theirs them themselves then there these they this
those through to too under until up very was wasn't we were weren't what
when where which while who whom why with won't would wouldn't you your
yours yourself yourselves
""".split())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stop-word override file: one lowercase word per line. A file
    that cannot be read raises MissingArtifact, one not UTF-8 FormatError."""
    words = set()
    for raw in files.read_text(path).splitlines():
        word = raw.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)
