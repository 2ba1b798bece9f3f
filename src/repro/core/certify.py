"""Certified expansion intervals — what the estimator actually *proves*.

:class:`~repro.core.expansion.ExpansionEstimate` reports whatever the chosen
policy computed — which may include a ``NaN`` lower bound (cone-only rows)
and leaves the caller to infer from the free-form ``method`` string how much
trust each side deserves.  This module tightens that into a certificate: an
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

``provenance`` names the proof path, one of :data:`PROVENANCES`:

========================  ====================================================
``"exact"``               both sides from exact enumeration (``lower == upper``)
``"cheeger+sweep"``       Cheeger lower, Fiedler sweep-cut upper
``"cheeger+cone"``        Cheeger lower, decode-cone witness upper
``"cone"``                trivial ``0`` lower, decode-cone witness upper
========================  ====================================================

The engine's ``auto`` policy carries these intervals end-to-end: grid rows,
the ``/expansion`` serve endpoint, and the CLI all report
``(lower, upper, provenance)`` so a consumer can tell a ``Θ((4/7)^k)``
sandwich proved by enumeration from one inferred through a witness cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.cdag.graph import CDAG
from repro.cdag.schemes import BilinearScheme
from repro.core.expansion import ExpansionEstimate, estimate_expansion

__all__ = [
    "PROVENANCES",
    "ExpansionInterval",
    "provenance_for_method",
    "interval_from_estimate",
    "certified_interval",
]

#: The recognized proof paths, strongest first.
PROVENANCES = ("exact", "cheeger+sweep", "cheeger+cone", "cone")

#: Estimator ``method`` strings mapped to the proof path they certify.
_METHOD_PROVENANCE = {
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


def provenance_for_method(method: str) -> str:
    """The proof path certified by an estimator ``method`` string."""
    try:
        return _METHOD_PROVENANCE[method]
    except KeyError:
        raise ValueError(
            f"unknown estimate method {method!r}; "
            f"expected one of {sorted(_METHOD_PROVENANCE)}"
        ) from None


def interval_from_estimate(est: ExpansionEstimate) -> ExpansionInterval:
    """The certified interval an :class:`ExpansionEstimate` establishes.

    Exact and spectral estimates carry their own certified lower bound;
    cone-only estimates report ``NaN`` (no eigensolve ran), which certifies
    the trivial ``0 <= h(G)`` — the interval makes that explicit instead of
    propagating a hole.  A witness cut with zero boundary proves
    ``h(G) = 0``, so ``upper == 0`` certifies ``[0, 0]`` whatever
    floating-point residue the Cheeger lower bound carries.
    """
    lower = est.lower
    if math.isnan(lower) or est.upper == 0.0:
        lower = 0.0
    return ExpansionInterval(
        lower=lower,
        upper=est.upper,
        provenance=provenance_for_method(est.method),
    )


def certified_interval(
    g: CDAG,
    scheme: BilinearScheme | str | None = None,
    k: int | None = None,
    jobs: int = 1,
) -> ExpansionInterval:
    """Certified ``h(G)`` interval for an arbitrary CDAG.

    Thin composition of :func:`~repro.core.expansion.estimate_expansion`
    (exact below the enumeration ceiling, Cheeger + best witness cut above)
    and :func:`interval_from_estimate`.  ``scheme``/``k`` unlock the
    decode-cone witnesses when ``g`` is a ``Dec_k C``.
    """
    return interval_from_estimate(estimate_expansion(g, scheme, k, jobs=jobs))
