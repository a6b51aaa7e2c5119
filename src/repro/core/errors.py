"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class.  Specific subclasses communicate which layer
rejected the input: the programming model (:class:`ProgramError`), the
plan generator/validator (:class:`PlanError`), or the runtime
(:class:`RuntimeFault`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramError(ReproError):
    """A DGS program definition is malformed or inconsistent."""


class PredicateError(ProgramError):
    """A tag predicate was used with tags outside its universe."""


class DependenceError(ProgramError):
    """The dependence relation is malformed (e.g. not symmetric)."""


class PlanError(ReproError):
    """A synchronization plan is structurally invalid."""


class ValidityError(PlanError):
    """A synchronization plan is not P-valid (violates V1 or V2)."""


class RuntimeFault(ReproError):
    """The runtime reached an impossible or unsupported configuration."""


class NoCheckpointError(RuntimeFault):
    """A worker crashed but no checkpoint exists to recover from.

    Raised by the recovery driver instead of hanging or silently
    restarting: either no ``checkpoint_predicate`` was configured, or
    the crash fired before the first root join snapshotted anything.
    """


class RecoveryUnsoundError(RuntimeFault):
    """Checkpoint-based recovery was requested for a plan whose root
    snapshots are not timestamp-prefix states (a root tag does not
    depend on every tag in the universe), so restore-and-replay could
    double- or under-apply independent events."""


class InputError(ReproError):
    """An input stream violates the valid-input-instance assumptions."""
