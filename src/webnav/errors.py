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
    """Malformed input file; the message names the file and line."""


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


def is_plain_float(text: str) -> bool:
    """Whether text is ASCII with no "_", whitespace or leading "+".

    float() also reads "2_5", " 1", "+1" and other scripts' digits;
    "inf" and "nan" pass, for the caller's range check.
    """
    return (text.isascii() and "_" not in text and not text.startswith("+")
            and text.split() == [text])


def input_lines(path, error):
    """(line number, stripped line) for each non-blank line of a UTF-8 text file.

    Raises:
        error: "{path}:{n}: bytes that are not UTF-8", for any line n,
            blank or comment too.
    """
    with open(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            if not_utf8(line):
                raise error(f"{path}:{n}: bytes that are not UTF-8")
            line = line.strip()
            if line:
                yield n, line
