"""One abstraction for every parallel algorithm: registry + uniform driver.

Table I of the paper is a statement about *which algorithm attains which
bound in which memory regime*; answering it experimentally requires running
every algorithm through one interface.  This module provides that
interface, mirroring the bilinear-scheme registry in
:mod:`repro.cdag.schemes`:

* :class:`ParallelConfig` — one frozen record naming a configuration
  ``(n, p, c, scheme, schedule, memory_limit)``.
* :class:`ParallelAlgorithm` — the protocol every algorithm implements:
  a declared **validity predicate** (``validate``: square grid, cube,
  replication factor c, rank count t₀^ℓ, block divisibility), declared
  **analytic cost formulas** (``analytic_costs`` / ``analytic_flops``),
  and the planner-first split entry points:

  - ``estimate(cfg, topology=None) -> AnalyticCost`` — *pure*: closed-form
    per-processor words/messages/memory/flops, optionally checked against
    a :class:`~repro.topology.Topology`'s capacity.  Never touches numpy
    arrays or the simulator (checker RC203 enforces this).
  - ``execute(A, B, cfg, verify=False) -> ParallelResult`` — the
    simulation.

* ``@register_parallel`` / :func:`get_parallel` /
  :func:`available_parallel` — the registry (``cannon``, ``summa``, ``3d``,
  ``2.5d``, ``caps``).
* :class:`ParallelResult` — the shared result record (critical-path words,
  messages, per-rank memory peaks; :meth:`Topology.time_from_steps
  <repro.topology.Topology.time_from_steps>` prices its ``machine.log`` in
  α–β time), promoted here so sibling
  algorithms stop importing it from ``parallel/cannon.py``.

:func:`run_parallel` is the keyword convenience over ``execute``: it builds
the :class:`ParallelConfig` from ``A``'s size and the keywords given.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.cdag.schemes import BilinearScheme, get_scheme
from repro.machine.distributed import Machine
from repro.topology import Topology

__all__ = [
    "AnalyticCost",
    "ParallelAlgorithm",
    "ParallelConfig",
    "ParallelResult",
    "available_parallel",
    "get_parallel",
    "register_parallel",
    "run_parallel",
]


@dataclass(frozen=True)
class AnalyticCost:
    """Declared closed-form per-processor costs of one configuration.

    The formulas are derived from the algorithm's actual superstep
    structure (with explicit constants, not bare Θ-shapes), so a measured
    run should land within a small constant factor of each field — tests
    and the scaling sweep assert exactly that.
    """

    words: float      # critical-path bandwidth
    messages: float   # critical-path latency
    memory: float     # per-rank peak footprint
    flops: float = 0.0  # critical-path arithmetic (leading term)

    def as_dict(self) -> dict[str, float]:
        return {
            "words": self.words,
            "messages": self.messages,
            "memory": self.memory,
            "flops": self.flops,
        }


@dataclass(frozen=True)
class ParallelConfig:
    """One fully-named parallel configuration.

    Frozen and hashable so planner rows, cache keys, and test
    parametrizations can carry configurations by value.  ``scheme`` and
    ``schedule`` are plain strings (resolved at use time); ``estimate``
    and ``execute`` both consume this record.
    """

    n: int
    p: int
    c: int = 1
    scheme: str | None = None
    schedule: str | None = None
    memory_limit: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ParallelConfig: n must be >= 1 (got {self.n})")
        if self.p < 1:
            raise ValueError(f"ParallelConfig: p must be >= 1 (got {self.p})")
        if self.c < 1:
            raise ValueError(f"ParallelConfig: c must be >= 1 (got {self.c})")
        if self.memory_limit is not None and self.memory_limit < 1:
            raise ValueError(
                f"ParallelConfig: memory_limit must be >= 1 or None "
                f"(got {self.memory_limit})"
            )

    def options(self) -> dict[str, Any]:
        """Algorithm-specific extras in ``**options`` form (CAPS schedule)."""
        return {} if self.schedule is None else {"schedule": self.schedule}

    def as_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "p": self.p,
            "c": self.c,
            "scheme": self.scheme,
            "schedule": self.schedule,
            "memory_limit": self.memory_limit,
        }


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one simulated parallel run."""

    C: np.ndarray
    machine: Machine
    algorithm: str
    n: int
    p: int
    c: int = 1
    scheme_name: str | None = None
    analytic: AnalyticCost | None = None
    verified: bool | None = None

    @property
    def critical_words(self) -> int:
        return self.machine.critical_words

    @property
    def critical_messages(self) -> int:
        return self.machine.critical_messages

    @property
    def max_mem_peak(self) -> int:
        return self.machine.max_mem_peak

    @property
    def mem_peaks(self) -> tuple[int, ...]:
        """Per-rank peak local-memory words (index = rank)."""
        return tuple(int(x) for x in self.machine.mem_peak)


# ---------------------------------------------------------------------- #
# the protocol                                                            #
# ---------------------------------------------------------------------- #


class ParallelAlgorithm(abc.ABC):
    """A registered parallel matrix-multiplication algorithm.

    Subclasses declare classification metadata (``algorithm_class``,
    ``regime``, ``requirement``, ``attains``), a validity predicate, the
    analytic cost formulas, and the superstep kernel ``_execute``; the
    shared :meth:`execute` driver does everything else.
    """

    name: str = "?"
    algorithm_class: str = "classical"     # "classical" | "strassen-like"
    regime: str = "2D"                     # Table I memory regime it lives in
    requirement: str = ""                  # human-readable validity predicate
    attains: str = ""                      # the bound the paper credits it with
    supports_replication: bool = False     # accepts c > 1
    uses_scheme: bool = False              # recursion driven by a BilinearScheme
    default_scheme: str | None = None
    option_names: tuple[str, ...] = ()     # extra ParallelConfig options it takes

    # -- declared predicates and formulas ------------------------------- #

    def omega0(self, scheme: BilinearScheme | None = None) -> float:
        """The exponent governing this algorithm's bounds (3 for classical)."""
        if self.uses_scheme and scheme is not None:
            return scheme.omega0
        return 3.0

    @abc.abstractmethod
    def validate(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        **options: Any,
    ) -> None:
        """Raise ``ValueError`` when (n, p, c, scheme) is not runnable."""

    def is_valid(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | str | None = None,
        **options: Any,
    ) -> bool:
        """Predicate form of :meth:`validate`."""
        try:
            self.validate(n, p, c=c, scheme=self._resolve_scheme(scheme), **options)
        except ValueError:
            return False
        return True

    @abc.abstractmethod
    def analytic_costs(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        **options: Any,
    ) -> AnalyticCost:
        """Declared per-processor (words, messages, memory) formulas."""

    def analytic_flops(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        **options: Any,
    ) -> float:
        """Per-processor critical-path flops, leading term (classical: 2n³/p)."""
        return 2.0 * float(n) ** 3 / p

    def default_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: BilinearScheme | None = None,
    ) -> list[dict]:
        """Valid ``{"p": ..., "c": ...}`` configurations with ``p ≤ p_max``."""
        return []

    def plan_configs(
        self,
        n: int,
        p_max: int,
        cs: Sequence[int] = (1,),
        scheme: str | None = None,
    ) -> list[ParallelConfig]:
        """Candidate :class:`ParallelConfig` records for the auto-scheduler.

        The default wraps :meth:`default_configs`; algorithms with extra
        schedule dimensions (CAPS) override this to expose them to the
        planner's search space.
        """
        sch = self._resolve_scheme(scheme) if self.uses_scheme else None
        scheme_name = sch.name if sch is not None else None
        return [
            ParallelConfig(
                n=n,
                p=cfg["p"],
                c=cfg.get("c", 1),
                scheme=scheme_name,
                schedule=cfg.get("schedule"),
            )
            for cfg in self.default_configs(n, p_max, cs=cs, scheme=sch)
        ]

    def estimate(
        self, cfg: ParallelConfig, topology: Topology | None = None
    ) -> AnalyticCost:
        """Pure cost estimate of one configuration — no arrays, no simulator.

        Validates the configuration (and, when a topology is given, that
        its device set can seat ``cfg.p`` ranks), then evaluates the
        declared closed-form cost model.  This is the planner's inner
        loop: it must stay array-free (checker RC203 enforces the purity
        contract on every registered algorithm).
        """
        options = cfg.options()
        self._check_options("estimate", options)
        sch = self._resolve_scheme(cfg.scheme)
        if not self.supports_replication and cfg.c != 1:
            raise ValueError(
                f"{self.name} has no replication factor (got c={cfg.c}); "
                "only 2.5D-style algorithms accept c > 1"
            )
        if topology is not None:
            topology.validate_p(cfg.p)
        self.validate(cfg.n, cfg.p, c=cfg.c, scheme=sch, **options)
        return self._full_analytic(cfg.n, cfg.p, c=cfg.c, scheme=sch, **options)

    # -- execution ------------------------------------------------------- #

    @abc.abstractmethod
    def _execute(
        self,
        m: Machine,
        A: np.ndarray,
        B: np.ndarray,
        *,
        p: int,
        c: int,
        scheme: BilinearScheme | None,
        **options: Any,
    ) -> np.ndarray:
        """The algorithm's supersteps; returns the gathered C."""

    def result_label(
        self, *, p: int, c: int = 1, scheme: BilinearScheme | None = None, **options: Any
    ) -> str:
        """The ``ParallelResult.algorithm`` label (subclasses may refine)."""
        return self.name

    def _resolve_scheme(
        self, scheme: BilinearScheme | str | None
    ) -> BilinearScheme | None:
        if not self.uses_scheme:
            if scheme is not None:
                raise ValueError(
                    f"{self.name} is not scheme-driven; do not pass scheme="
                )
            return None
        if scheme is None:
            scheme = self.default_scheme
        return get_scheme(scheme) if isinstance(scheme, str) else scheme

    def _full_analytic(
        self,
        n: int,
        p: int,
        *,
        c: int = 1,
        scheme: BilinearScheme | None = None,
        **options: Any,
    ) -> AnalyticCost:
        """Declared costs with the flop term filled in."""
        base = self.analytic_costs(n, p, c=c, scheme=scheme, **options)
        return AnalyticCost(
            words=base.words,
            messages=base.messages,
            memory=base.memory,
            flops=self.analytic_flops(n, p, c=c, scheme=scheme, **options),
        )

    def _check_options(self, entry: str, options: dict[str, Any]) -> None:
        """Reject extras outside the declared ``option_names``.

        A typo'd keyword cannot be silently swallowed by the ``**options``
        plumbing, and a schedule handed to a schedule-free algorithm fails
        loudly instead of being ignored.
        """
        unknown = set(options) - set(self.option_names)
        if unknown:
            raise TypeError(
                f"{self.name}.{entry}() got unexpected option(s) {sorted(unknown)}; "
                f"accepted: {sorted(self.option_names) or 'none'}"
            )

    def execute(
        self,
        A: np.ndarray,
        B: np.ndarray,
        cfg: ParallelConfig,
        *,
        verify: bool = False,
    ) -> ParallelResult:
        """Simulate one configuration: validate, run supersteps, assemble.

        Input shape checks, validity checking, ``Machine`` construction,
        flop-phase flushing, optional verification against ``A @ B``, and
        result assembly with the declared analytic costs attached.
        """
        options = cfg.options()
        self._check_options("execute", options)
        A = np.ascontiguousarray(A, dtype=np.float64)
        B = np.ascontiguousarray(B, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
            raise ValueError("A and B must be equal square matrices")
        n = A.shape[0]
        if n != cfg.n:
            raise ValueError(
                f"{self.name}.execute(): cfg.n={cfg.n} does not match the "
                f"operands' n={n}"
            )
        sch = self._resolve_scheme(cfg.scheme)
        p, c = cfg.p, cfg.c
        if not self.supports_replication and c != 1:
            raise ValueError(
                f"{self.name} has no replication factor (got c={c}); "
                "only 2.5D-style algorithms accept c > 1"
            )
        self.validate(n, p, c=c, scheme=sch, **options)
        m = Machine(p, memory_limit=cfg.memory_limit)
        C = self._execute(m, A, B, p=p, c=c, scheme=sch, **options)
        m.end_compute_phase()
        verified = bool(np.allclose(C, A @ B, rtol=1e-9, atol=1e-9)) if verify else None
        return ParallelResult(
            C=C,
            machine=m,
            algorithm=self.result_label(p=p, c=c, scheme=sch, **options),
            n=n,
            p=p,
            c=c,
            scheme_name=sch.name if sch is not None else None,
            analytic=self._full_analytic(n, p, c=c, scheme=sch, **options),
            verified=verified,
        )


# ---------------------------------------------------------------------- #
# registry                                                                #
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, ParallelAlgorithm] = {}


def register_parallel(cls: type[ParallelAlgorithm]) -> type[ParallelAlgorithm]:
    """Class decorator: instantiate and register a :class:`ParallelAlgorithm`."""
    inst = cls()
    if inst.name in _REGISTRY and type(_REGISTRY[inst.name]) is not cls:
        raise ValueError(f"parallel algorithm {inst.name!r} already registered")
    _REGISTRY[inst.name] = inst
    return cls


def _ensure_loaded() -> None:
    # Registration happens at module import; pull the algorithm modules in
    # lazily so base stays import-cycle free.
    from repro.parallel import cannon, caps, summa, threed, two5d  # noqa: F401


def get_parallel(name: str) -> ParallelAlgorithm:
    """Fetch a registered algorithm by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown parallel algorithm {name!r}; available: {available_parallel()}"
        ) from None


def available_parallel() -> list[str]:
    """Names of all registered parallel algorithms."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def run_parallel(
    name: str,
    A: np.ndarray,
    B: np.ndarray,
    *,
    p: int,
    c: int = 1,
    memory_limit: int | None = None,
    scheme: str | None = None,
    schedule: str | None = None,
    verify: bool = False,
) -> ParallelResult:
    """Convenience: build the :class:`ParallelConfig` for ``A @ B`` and
    :meth:`~ParallelAlgorithm.execute` it on algorithm ``name``."""
    cfg = ParallelConfig(
        n=int(np.shape(A)[0]),
        p=p,
        c=c,
        scheme=scheme,
        schedule=schedule,
        memory_limit=memory_limit,
    )
    return get_parallel(name).execute(A, B, cfg, verify=verify)


# ---------------------------------------------------------------------- #
# shared validity helpers                                                 #
# ---------------------------------------------------------------------- #


def square_grid_side(name: str, p: int) -> int:
    """q with p = q², or a clear error."""
    if p < 1:
        raise ValueError(f"{name}: need at least one processor (got p={p})")
    q = math.isqrt(p)
    if q * q != p:
        raise ValueError(
            f"{name} needs a square processor grid: p={p} is not a perfect square"
        )
    return q


def cube_grid_side(name: str, p: int) -> int:
    """q with p = q³, or a clear error."""
    if p < 1:
        raise ValueError(f"{name}: need at least one processor (got p={p})")
    q = round(p ** (1.0 / 3.0))
    for cand in (q - 1, q, q + 1):
        if cand >= 1 and cand**3 == p:
            return cand
    raise ValueError(f"{name} needs a cubic processor grid: p={p} is not a perfect cube")


def check_block_divisibility(name: str, n: int, q: int) -> None:
    """Fail loudly when q ∤ n instead of silently truncating ``b = n // q``."""
    if q < 1:
        raise ValueError(f"{name}: grid side must be >= 1 (got q={q})")
    if n % q != 0:
        raise ValueError(
            f"{name}: matrix size n={n} is not divisible by grid side q={q}; "
            f"blocks of size n//q={n // q} would drop {n % q} trailing rows/cols"
        )
