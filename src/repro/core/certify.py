"""Certified expansion intervals — what the estimator actually *proves*.

:class:`~repro.core.expansion.ExpansionEstimate` reports whatever the chosen
policy computed — which may include a ``NaN`` lower bound (cone-only rows)
and names the route in a free-form ``method`` string.  This module defines
the certificate that :meth:`ExpansionEstimate.interval()
<repro.core.expansion.ExpansionEstimate.interval>` derives from it: an
:class:`ExpansionInterval` is a pair ``lower <= upper`` where *both* sides
are mathematically certified for the loop-regularized graph —

* ``lower`` — exact enumeration (within the enumeration limit), the Cheeger
  bound ``λ₂/2 <= h(G)`` from the sparse eigensolve, or the trivial ``0``
  when no eigensolve ran (expansion is nonnegative, so ``0`` is certified,
  unlike the estimate's ``NaN`` which certifies nothing) or when the upper
  witness has zero boundary (which proves ``h(G) = 0``);
* ``upper`` — a concrete cut: the exact minimizer, the best Fiedler sweep
  prefix, or a decode-cone witness (every cut's ratio upper-bounds the
  minimum by definition).

``provenance`` names the proof path, one of :data:`PROVENANCES`, and
:data:`METHOD_PROVENANCE` maps each estimator ``method`` to it:

========================  ====================================================
``"exact"``               both sides from exact enumeration (``lower == upper``)
``"cheeger+sweep"``       Cheeger lower, Fiedler sweep-cut upper
``"cheeger+cone"``        Cheeger lower, decode-cone witness upper
``"cone"``                trivial ``0`` lower, decode-cone witness upper
========================  ====================================================

The engine carries these intervals end-to-end: grid rows, the
``/expansion`` serve endpoint, and the CLI all report
``(lower, upper, provenance)`` so a consumer can tell a ``Θ((4/7)^k)``
sandwich proved by enumeration from one inferred through a witness cut.
This module depends on nothing else in the package; the estimator imports
it, never the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "METHOD_PROVENANCE",
    "PROVENANCES",
    "ExpansionInterval",
]

#: The recognized proof paths, strongest first.
PROVENANCES = ("exact", "cheeger+sweep", "cheeger+cone", "cone")

#: Estimator ``method`` strings mapped to the proof path they certify.
METHOD_PROVENANCE = {
    "exact": "exact",
    "spectral+sweep": "cheeger+sweep",
    "spectral+cone": "cheeger+cone",
    "cone-only": "cone",
}


@dataclass(frozen=True)
class ExpansionInterval:
    """A certified two-sided bound ``lower <= h(G) <= upper``.

    Both endpoints are finite and nonnegative, and the invariant
    ``lower <= upper`` is checked at construction — an interval that cannot
    hold is a bug in the estimator, not a value to propagate.
    """

    lower: float
    upper: float
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(
                f"unknown provenance {self.provenance!r}; choose from {PROVENANCES}"
            )
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(
                f"interval endpoints must be finite, got [{self.lower}, {self.upper}]"
            )
        if self.lower < 0.0:
            raise ValueError(f"expansion is nonnegative; lower bound {self.lower} < 0")
        if self.lower > self.upper:
            raise ValueError(
                f"certified interval is empty: lower {self.lower} > upper {self.upper}"
            )

    @property
    def width(self) -> float:
        """The uncertainty ``upper - lower`` (0 exactly when proven tight)."""
        return self.upper - self.lower

    @property
    def is_exact(self) -> bool:
        """True when the interval pins ``h(G)`` to a single point."""
        return self.lower == self.upper

    def as_dict(self) -> dict[str, Any]:
        """The JSON-ready form carried by grid rows, serve payloads, and CLI."""
        return {
            "lower": self.lower,
            "upper": self.upper,
            "provenance": self.provenance,
        }
