"""Exception types shared across the package, and the checks of input text."""


class WebnavError(Exception):
    """Base class for all webnav errors."""


class ConfigurationError(WebnavError):
    """Invalid parameter or configuration value (CLI exit code 2)."""


class UnboundedSessionError(ConfigurationError):
    """A session passed session.MAX_SESSION_CLICKS clicks (CLI exit code 2).

    The model parameters let a session run on without end, as abc's do
    with zero click costs. Takes one message argument, so it pickles back
    from a pool worker.
    """


class ParseError(WebnavError):
    """Malformed input file.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DataError(WebnavError):
    """Input data that parses but cannot be used (e.g. empty graph)."""


class EmptyDataError(DataError):
    """No usable records at all (CLI exit code 4)."""


class StatisticsError(WebnavError):
    """Estimation impossible: too few or degenerate samples."""


class ProtocolError(WebnavError):
    """Operations called out of order (e.g. a click before any session start)."""


def not_utf8(line: str) -> bool:
    """Whether a line read with errors="surrogateescape" held bytes that are not UTF-8.

    Each such byte comes through as a lone surrogate, which strict UTF-8
    refuses to encode; text that decoded never holds one.
    """
    if line.isascii():
        return False
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def is_decimal(text: str) -> bool:
    """Whether text is base-10 ASCII digits; int() also reads "+2", "2_0", " 2"."""
    return text.isascii() and text.isdigit()
