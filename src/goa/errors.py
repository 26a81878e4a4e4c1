"""Shared exception types, the deadline of a time budget, and the default
seed of the randomized spot checks.  The seed lives here because this is
the one goa module the CLI loads before it parses its arguments."""

import time

DEFAULT_SEED = 1789


class InputError(ValueError):
    """Malformed or out-of-contract input (bad file, bad flag, bad argument)."""


class VerificationFailure(RuntimeError):
    """An exact identity that must hold was found violated.

    Raised only when a check that would falsify a theorem (or reveal an
    implementation bug) fails; never for ordinary negative results, which
    are report content.
    """


class BudgetExceeded(RuntimeError):
    """A search or closure exceeded its configured resource budget."""


def budget_deadline(seconds):
    """The time.monotonic() reading at which a budget of `seconds` runs
    out, or None for no budget.  A budget must be a positive number."""
    if seconds is None:
        return None
    if not seconds > 0:
        raise InputError(f"budget must be a positive number of seconds, got {seconds}")
    return time.monotonic() + seconds
