"""Exception hierarchy shared across the pipeline.

Every error raised by this package derives from RagnerError so callers can
catch pipeline failures without also swallowing programming errors.
"""

from __future__ import annotations


class RagnerError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus ---------------------------------------------------------------

class MalformedLine(RagnerError):
    """A BIO corpus line does not have the expected `token tag` shape."""

    def __init__(self, line_no: int, line: str, reason: str = "expected `token tag`"):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line


class DuplicateTypeName(RagnerError):
    """Two schema entries share a name (compared case-insensitively)."""


class EmptyDefinition(RagnerError):
    """A schema entry has a blank definition."""


class InvalidSpan(RagnerError, ValueError):
    """A sentence span lies outside its sentence, overlaps another span or
    misstates its surface."""


class UnknownSpanType(RagnerError):
    """A sentence span names an entity type absent from the schema."""


class StoreSizeTooLarge(RagnerError):
    """Requested store size exceeds (or underflows) the corpus size."""


# --- embedder -------------------------------------------------------------

class EmbedderError(RagnerError):
    """Base class for embedding-provider failures."""


class DimensionMismatch(EmbedderError):
    """A vector's dimension disagrees with the declared dimension."""


class ProviderUnavailable(EmbedderError):
    """The remote embedding service could not be reached."""


class AlignmentGap(EmbedderError):
    """A corpus word is covered by zero provider subword tokens."""


class EmptyInput(EmbedderError):
    """An embedding was requested for a sentence with no tokens."""


class MissingEntry(EmbedderError):
    """A precomputed embedding file has no record for the requested text."""


class FormatError(RagnerError):
    """A persisted artifact (schema, embedding file, index file) is malformed."""


# --- vector index ---------------------------------------------------------

class EmptyCollection(RagnerError):
    """An index build was attempted over zero records."""


class NlistTooLarge(RagnerError):
    """IVF cluster count exceeds the record count."""


# --- retriever ------------------------------------------------------------

class EmptyQueryAfterStopwords(RagnerError):
    """Every query token was removed by stop-word filtering."""


class EmptyStore(RagnerError):
    """Retrieval was attempted against a store with no examples."""


# --- promptkit ------------------------------------------------------------

class SchemaMismatch(RagnerError):
    """An in-prompt example's output keys differ from the prompt schema."""


class NoDictionaryFound(RagnerError):
    """A completion contains no balanced {...} region to parse."""


class UnknownTemplate(RagnerError, KeyError):
    """A template id names no built-in template and no template file is given."""

    __str__ = RagnerError.__str__  # the message, not KeyError's repr of it


class TemplateError(RagnerError, ValueError):
    """A template file cannot be read or lacks a placeholder."""


# --- augment --------------------------------------------------------------

class SchemaTooSmall(RagnerError):
    """Entity-type dropout/shuffle needs at least two schema types."""


# --- generation -----------------------------------------------------------

class GenerationError(RagnerError):
    """Base class for per-record generation failures."""


class MissingGold(GenerationError):
    """The mock-gold backend was invoked without an attached gold output."""


class HttpError(GenerationError):
    """The completion endpoint failed: an error answer, no connection, or a
    reply without a completion text."""


class GenerationTimeout(GenerationError):
    """The completion endpoint did not answer within the configured timeout."""


# --- evaluation -----------------------------------------------------------

class SchemaMismatchAcrossRecords(RagnerError):
    """Prediction records in one batch disagree on the schema key set."""


# --- cli ------------------------------------------------------------------

class ConfigError(RagnerError):
    """The run configuration is missing or inconsistent."""


class MissingArtifact(RagnerError):
    """A required upstream artifact is absent or fails hash verification."""


class AblationFailed(RagnerError):
    """No cell of an ablation grid succeeded."""
