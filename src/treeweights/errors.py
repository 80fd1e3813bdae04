"""Exception hierarchy with stable machine-readable codes.

Every error raised by this package derives from TreeWeightsError and
carries a short ``code`` string that the CLI emits verbatim, so scripts
can match on codes instead of messages.
"""

from __future__ import annotations


class TreeWeightsError(Exception):
    code = "error"


class InvariantError(TreeWeightsError):
    """An internal invariant failed: a bug, not bad input."""

    code = "invariant-violated"


# graph errors

class DanglingEndpointError(TreeWeightsError):
    code = "dangling-endpoint"


class DuplicateIdError(TreeWeightsError):
    code = "duplicate-id"


class DisconnectedError(TreeWeightsError):
    code = "disconnected"


class UnknownEdgeError(TreeWeightsError):
    code = "unknown-edge"


class UnknownVertexError(TreeWeightsError):
    code = "unknown-vertex"


class NotASpanningTreeError(TreeWeightsError):
    code = "not-a-spanning-tree"


# edge-ordering (sector) errors

class EnumerationGuardExceededError(TreeWeightsError):
    code = "guard-exceeded"


# partition errors

class BadPartitionError(TreeWeightsError):
    code = "bad-partition"


class EmptyBlockError(BadPartitionError):
    code = "empty-block"


class DuplicateVertexError(BadPartitionError):
    code = "duplicate-vertex"


class MissingVertexError(BadPartitionError):
    code = "missing-vertex"


class TrivialPartitionError(BadPartitionError):
    code = "trivial-partition"


class NotAdmissibleError(TreeWeightsError):
    """An edge of an ordered sequence is not trans-block at its step."""

    code = "not-admissible"

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


# matrix errors

class BadDimensionError(TreeWeightsError):
    code = "bad-dimension"


class OutOfRangeError(TreeWeightsError):
    code = "out-of-range"


# input errors

class ParseError(TreeWeightsError):
    code = "parse-error"
