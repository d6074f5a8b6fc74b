"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch one base class.  Finer-grained subclasses distinguish problems with the
workflow specification itself, with a particular run or label, with a query
string, and with the safety requirements of the labeling-based query engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecificationError(ReproError):
    """A workflow specification is malformed or violates a model constraint."""


class StructureError(SpecificationError):
    """A simple workflow body violates a structural constraint.

    The coarse-grained model of the paper requires production bodies to be
    acyclic, single-entry/single-exit graphs in which every node lies on a
    path from the source to the sink.
    """


class RecursionError_(SpecificationError):
    """The specification is not strictly linear-recursive.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`RecursionError`.
    """


class DerivationError(ReproError):
    """A derivation step is invalid (unknown node, wrong production, ...)."""


class LabelError(ReproError):
    """A node label is malformed or does not belong to the given specification."""


class QuerySyntaxError(ReproError):
    """A regular path query string cannot be parsed."""


class UnsafeQueryError(ReproError):
    """A query that is not safe for the specification was given to an engine
    that requires safety (Algorithm 1 / Algorithm 2 of the paper)."""


class RelationOrderError(ReproError):
    """A packed relation has a pair that points backward in the run's
    topological bit numbering.

    Every relation over run paths points forward (or along the diagonal),
    which is what lets the packed transitive closure finish in one pass;
    a backward pair breaks that precondition, so the closure refuses it
    instead of returning a wrong answer.
    """


class UnsupportedQueryError(ReproError):
    """A baseline was asked to evaluate a query shape it does not support
    (for example, Option G3 only supports infrequent-form queries)."""


class StoreError(ReproError):
    """A persistent index store artifact is unreadable or inconsistent.

    Raised internally by :mod:`repro.store` while decoding; the store's read
    path converts it (and any other decode failure) into a miss plus an error
    counter, so corruption degrades to a rebuild instead of a crash.
    """
