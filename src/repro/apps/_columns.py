"""Column folds for the apps' ``update_batch``.

A columnar run has one tag but not one value type (see
:data:`repro.core.program.BatchUpdateFn`): its payload column may mix
ints, bools, floats and strings, so a vectorized fold must agree with
the per-event ``update`` on every one of them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


def sum_as_ints(column: Sequence[Any], to_int: Callable[[Any], int] = int) -> int:
    """``sum(map(to_int, column))`` at the speed of ``sum(column)`` when
    the column holds ints: the plain sum stands when it is an exact
    ``int`` (ints, bools, int subclasses that keep int's arithmetic),
    and anything else — a float, a numeric string, a ``None`` — sends
    the column through ``to_int``, the conversion ``update`` applies to
    one payload."""
    try:
        total = sum(column)
    except TypeError:
        total = None
    return total if type(total) is int else sum(map(to_int, column))
