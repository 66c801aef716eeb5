"""Exception hierarchy shared by all modules, and the argument checks.

Every error raised by the library derives from WalktestError so the CLI can
map domain failures to exit code 1 with a JSON diagnostic.  A bad argument
to a public function raises InvalidParameterError, never a bare TypeError
or ValueError.

The check helpers below are the one place that decides what a valid
argument is: an integer is a Python or numpy int but not a bool, a number
an integer or float, an id an integer below a limit, and an id list any
iterable but a string.  Range checks particular to one function stay in it.
``_check_keys`` is the one check of the keys and value types of a JSON
parameter object: an experiment config, its noise spec, ``--params``.  Its
"a number" is one a float can hold, so an integer too large for a float is
refused there rather than overflowing where a caller converts it.

``_write_text`` opens and writes every graph, matrix, outcome and
manifest file the library and the CLI write.  ``write_json`` renders
outcomes and manifests for it; the matrix and graph writers render their
own text, the same bytes ``write_json`` would give.  ``read_json`` reads
every JSON file back, and ``parse_errors`` reports a file that is not
UTF-8 or not JSON as an InvalidParameterError.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np


class WalktestError(Exception):
    """Base class for all library errors."""

    kind = "error"

    def to_json(self) -> dict:
        return {"error": self.kind, "message": str(self)}


class InvalidParameterError(WalktestError, ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""

    kind = "invalid-parameter"


class DegenerateGraphError(WalktestError):
    """Graph violates a structural precondition (isolated vertex, empty, ...)."""

    kind = "degenerate-graph"


class NonMixingGraphError(WalktestError):
    """Walk on this graph has no unique limit (bipartite or disconnected)."""

    kind = "non-mixing-graph"


class SizeExceededError(WalktestError):
    """Input exceeds a hard size cap; carries partial progress where useful."""

    kind = "size-exceeded"

    def __init__(self, message: str, **progress):
        super().__init__(message)
        self.progress = dict(progress)

    def to_json(self) -> dict:
        doc = super().to_json()
        if self.progress:
            doc["progress"] = {k: v for k, v in self.progress.items()}
        return doc


class GenerationFailureError(WalktestError):
    """A randomized generator exhausted its retry budget."""

    kind = "generation-failure"


class NumericFailureError(WalktestError):
    """An iterative numeric routine failed to converge."""

    kind = "numeric-failure"


class InfeasibleError(WalktestError):
    """No parameter value satisfies the requested constraints."""

    kind = "infeasible"


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_int(what: str, x) -> int:
    """``x`` as a Python int, after checking that it is an integer."""
    # an exact int first: the common case, and ids are checked one by one
    if type(x) is not int and not _is_int(x):
        raise InvalidParameterError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _as_count(what: str, x, least: int) -> int:
    """``x`` as a Python int, after checking that it is an integer of at
    least ``least``."""
    if _check_int(what, x) < least:
        raise InvalidParameterError(f"{what} must be >= {least}, got {x}")
    return int(x)


def _check_number(what: str, x) -> None:
    """Reject a non-number.  A nan passes here and fails the caller's range
    test, since every comparison with nan is false."""
    if not _is_real(x):
        raise InvalidParameterError(f"{what} must be a number, got {x!r}")


def _check_id(what: str, x, limit: int) -> int:
    """``x`` as a Python int, after checking that it is an integer in
    [0, limit)."""
    x = _check_int(what, x)
    if not 0 <= x < limit:
        raise InvalidParameterError(f"{what} {x} out of range")
    return x


def _id_list(what: str, of: str, xs) -> tuple:
    """``xs`` as a tuple, after checking that it is a list of ``of`` (the
    elements are the caller's to check), not a string or a scalar."""
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):
        raise InvalidParameterError(f"{what} must be a list of {of}, got {xs!r}")
    return tuple(xs)


def _too_large(x) -> bool:
    """An integer too large for a float, whose ``float`` would overflow."""
    return _is_int(x) and abs(x) > sys.float_info.max


# the check behind each type name a _check_keys table gives
_TYPES = {
    "an integer": _is_int,
    "a number": lambda v: _is_real(v) and not _too_large(v),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}


def _shown(x) -> str:
    """``repr(x)``, or the digit count of an integer too large for a float."""
    return f"an integer of {len(str(abs(x)))} digits" if _too_large(x) else repr(x)


def _check_keys(what: str, obj, required, optional=(), types=None) -> None:
    """Raise InvalidParameterError unless ``obj`` is a JSON object of no key
    outside ``required`` and ``optional``, with every key of ``required``,
    whose value under each key of ``types`` has the type named there."""
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"{what} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise InvalidParameterError(f'{what} has unknown key "{key}"')
    for key in required:
        if key not in obj:
            raise InvalidParameterError(f'{what} needs key "{key}"')
    for key, name in (types or {}).items():
        if key in obj and not _TYPES[name](obj[key]):
            raise InvalidParameterError(
                f'{what} "{key}" must be {name}, got {_shown(obj[key])}')


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj`` to ``path`` as sorted-key JSON and a newline; a value
    JSON cannot hold is written as its ``str``."""
    _write_text(path, json.dumps(obj, sort_keys=True, indent=indent, default=str) + "\n")


@contextmanager
def parse_errors(what: str):
    """Report text in the block that is not UTF-8 or not JSON as invalid."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"bad {what} JSON: {exc}") from None


def read_json(path, what: str):
    """Parse the JSON file at ``path``; unparsable text is an invalid parameter."""
    with open(path, "r", encoding="utf-8") as fh, parse_errors(what):
        return json.load(fh)
