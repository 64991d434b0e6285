"""Exception hierarchy shared across the package.

Errors are split into three families: validation errors signal a broken
event-log structure, ingestion errors signal unreadable input files, and
analysis errors signal that a requested computation is not possible on the
given data. The CLI maps these families onto distinct exit codes.
"""


class DriftscopeError(Exception):
    """Base class for every error raised by driftscope."""


class ValidationError(DriftscopeError):
    """The event-log structure violates a model invariant."""


class DuplicateEventId(ValidationError):
    """Two events within one case share the same identifier."""


class EventInMultipleCases(ValidationError):
    """One event (by identifier) is claimed by more than one case."""


class AttributeTypeMismatch(ValidationError):
    """An attribute key carries values of more than one inferred type."""


class IngestionError(DriftscopeError):
    """An input file could not be turned into an event log."""


class MissingColumn(IngestionError):
    """A column referenced by the CSV mapping is absent from the header."""


class RowError(IngestionError):
    """An input record is bad; ``row`` is its 1-based place (CSV row or XES
    event number), so it can be found without a debugger, or None."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class TimestampParse(RowError):
    """A timestamp value could not be parsed."""


class NonFiniteNumber(RowError):
    """A number is NaN or infinite; ``key`` is its column or attribute."""

    def __init__(self, where: str, key: str, value: str, row: int | None = None):
        super().__init__(f"{where} {key!r} holds {value!r}, which is not a finite number", row)
        self.key = key


class EmptyValue(RowError):
    """A CSV row, or a case or event built as an object, leaves its case id or activity empty."""


class RowUnreadable(RowError):
    """A CSV record is not UTF-8 or cannot be split into fields."""


class DuplicateTraceId(IngestionError):
    """Two XES traces carry the same case identifier."""


class EmptyLog(IngestionError):
    """The input contains no events at all."""


class XmlMalformed(IngestionError):
    """The XES document is not well-formed XML."""


class MissingConceptName(IngestionError):
    """An XES event lacks the mandatory concept:name attribute or leaves it empty."""

    def __init__(self, message: str, event_index: int | None = None):
        super().__init__(message)
        self.event_index = event_index


class AnalysisError(DriftscopeError):
    """A computation cannot proceed on the given data."""


class SpanTooShort(AnalysisError):
    """The log does not span enough full intervals for the analysis."""


class TypeMismatch(AnalysisError):
    """A numeric aggregator was requested for a non-numeric attribute."""

    def __init__(self, message: str, attr: str | None = None, aggregator: str | None = None):
        super().__init__(message)
        self.attr = attr
        self.aggregator = aggregator


class DegenerateSeries(AnalysisError):
    """A series is constant (or collinear) over the regression window."""


class NonPrecedingDrift(AnalysisError):
    """The claimed cause does not strictly precede the claimed effect."""


class IntervalMismatch(AnalysisError):
    """Two time series were built over different interval sequences."""


class NoExtractableFeatures(AnalysisError):
    """The configured extractors produce no usable feature rows."""


class ConfigInvalid(DriftscopeError):
    """A configuration object or expression fails validation."""
