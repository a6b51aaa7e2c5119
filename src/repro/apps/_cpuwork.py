"""Per-event CPU work for wall-clock benchmarks.

The paper's applications have trivial update functions (integer adds),
so wall-clock runs of them measure message passing rather than
computation.  :func:`repro.apps.value_barrier.make_cpu_program` burns
a controlled amount of interpreter work per event through
:func:`burn`, standing in for real per-event cost (feature extraction,
model scoring) — the regime where a multi-core substrate can show
genuine speedup.
"""

from __future__ import annotations


def burn(seed: int, spin: int) -> int:
    """Run ``spin`` LCG iterations seeded by ``seed``; returns 0.

    The zero is folded from the final LCG state so the loop's result
    feeds the caller's arithmetic — callers add it to their payload,
    keeping update semantics identical to the plain program.
    """
    acc = seed
    for _ in range(spin):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return (acc & 1) - (acc & 1)
