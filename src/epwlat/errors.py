"""The error raised when an internal invariant of an exact computation fails.

Unlike ``assert``, these checks stay in force under ``python -O``.
"""


class InvariantError(RuntimeError):
    """A computed value contradicts an identity the code relies on (a bug)."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)
