"""The error raised when an internal invariant of an exact computation
fails (``ensure``, unlike ``assert``, stays in force under ``python -O``),
and the one reader of integers that come from outside as text
(``read_int``: CLI options, Gram entries, catalog parameters), with
``SPACE``, the only whitespace that such text may have around an item
(ASCII). A message that echoes it quotes at most 40 characters (``quote``).
"""

import sys

SPACE = " \t\n\r\v\f"


class InvariantError(RuntimeError):
    """A computed value contradicts an identity the code relies on (a bug)."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def quote(text: str) -> str:
    """repr of at most the first 40 characters of ``text``, with ``...`` when cut."""
    return repr(text[:40]) + "..." * (len(text) > 40)


def read_int(text: str) -> int:
    """The integer that ``text`` writes in ASCII: an optional sign and the
    digits 0-9, with optional spaces, tabs or line breaks around them; no
    underscore and no other digit. A refusal is a ``ValueError`` that quotes
    ``text`` and says either that it is no integer or that it is over
    int()'s digit limit, the one reason ``int`` can have left."""
    digits = text.strip(SPACE)
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {quote(text)}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{quote(text)} is over int()'s "
                         f"{sys.get_int_max_str_digits()}-digit limit") from None
