"""Exception hierarchy shared by all modules.

Every error raised by the library derives from WalktestError so the CLI can
map domain failures to exit code 1 with a JSON diagnostic.  ``write_json``
writes every JSON file the library and the CLI write (matrices, graphs,
outcomes, manifests) and ``read_json`` reads them back; ``parse_errors``
reports a file that is not UTF-8 or not JSON as an InvalidParameterError.
"""

from __future__ import annotations

import json
from contextlib import contextmanager


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


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj`` to ``path`` as sorted-key JSON and a newline; a value
    JSON cannot hold is written as its ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent, default=str) + "\n")


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
