"""Machine-topology cost model: devices, links, and tiered collective costing.

The paper costs communication on a *flat* α-β machine (§1.1: any disjoint
pairs exchange simultaneously, one latency α per message, one inverse
bandwidth β per word).  Real machines are not flat — a fat-tree pays extra
hops and oversubscribed core bandwidth once a job spans more than one edge
switch, a torus pays its diameter in latency and its bisection in
bandwidth, and a multi-GPU cluster switches from NVLink-class links to the
node interconnect the moment a job leaves one node.  This module is the
one place measured runs are priced in time, flat or not, and it never
touches the simulator: a :class:`Topology` converts the measured
per-superstep counters (or declared analytic costs) into predicted time
under a hierarchy of communication tiers.

Cost contract (every builder must satisfy it — CONTRIBUTING has the
checklist):

* A topology declares ordered :class:`CommTier` records, innermost first.
  A job on ``p`` ranks is costed by the **smallest tier that can hold
  p ranks**: ``alpha_eff = tier.alpha`` (worst-case path latency inside
  the tier) and ``beta_eff = tier.beta * tier.contention`` (per-word cost
  scaled by the tier's bisection load factor).
* ``predict_time(words, messages, p, flops)`` =
  ``alpha_eff·messages + beta_eff·words + flops / slowest_flop_rate(p)``.
* The **uniform** topology *is* the flat α-β model: one tier, contention
  1.0, infinite flop rate, so ``Topology.uniform(a, b).time_from_steps(...)``
  is ``Σ_steps max_r (a·msgs_r + b·words_r)``.  There is no second
  expression of that time to match; the scaling golden pins its values.
* A builder's validity predicate is ``capacity``: ``validate_p`` rejects
  any p the device set cannot seat (the uniform fleet is unbounded).

The :class:`Device`/:class:`Link` records are the inspectable ground truth
the tiers summarize (per-device flop rate, per-link α/β); builders derive
the tier parameters from the links they lay down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CommTier",
    "Device",
    "Link",
    "Topology",
    "TOPOLOGY_FAMILIES",
    "parse_spec",
]

#: Spec-string families accepted by :meth:`Topology.parse`.
TOPOLOGY_FAMILIES = ("uniform", "fat-tree", "torus", "gpu")


@dataclass(frozen=True)
class Device:
    """One processor: a rank seat with a useful-flop rate.

    ``flop_rate`` is in flops per α-β time unit; ``math.inf`` (the
    uniform/fat-tree/torus default) recovers the paper's pure
    communication costing where arithmetic is free.
    """

    index: int
    kind: str = "cpu"
    flop_rate: float = math.inf


@dataclass(frozen=True)
class Link:
    """One physical link with its own α (latency) and β (inverse bandwidth)."""

    src: str
    dst: str
    alpha: float
    beta: float


@dataclass(frozen=True)
class CommTier:
    """One level of the communication hierarchy.

    ``capacity`` is how many ranks fit inside the tier (0 = unbounded);
    ``alpha`` is the worst-case path latency between two ranks of the
    tier; ``contention`` multiplies ``beta`` to account for the tier's
    bisection (oversubscription ratio on a fat-tree core, ``side/4`` on a
    torus sub-block).
    """

    name: str
    capacity: int
    alpha: float
    beta: float
    contention: float = 1.0


@dataclass(frozen=True)
class Topology:
    """A machine: devices + links summarized into ordered comm tiers."""

    kind: str
    name: str
    tiers: tuple[CommTier, ...]
    devices: tuple[Device, ...] = ()
    links: tuple[Link, ...] = ()
    default_flop_rate: float = math.inf

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a topology needs at least one communication tier")
        caps = [t.capacity for t in self.tiers]
        if any(c < 0 for c in caps):
            raise ValueError("tier capacities must be >= 0 (0 = unbounded)")
        bounded = [c for c in caps if c > 0]
        if bounded != sorted(bounded):
            raise ValueError("tiers must be ordered innermost (smallest) first")
        if self.devices and self.capacity != len(self.devices):
            raise ValueError(
                f"outer tier capacity {self.capacity} != device count "
                f"{len(self.devices)}"
            )

    # -- validity predicate ---------------------------------------------- #

    @property
    def capacity(self) -> int | None:
        """Largest runnable p (None = unbounded uniform fleet)."""
        cap = self.tiers[-1].capacity
        return cap if cap > 0 else None

    @property
    def is_uniform(self) -> bool:
        return self.kind == "uniform"

    def validate_p(self, p: int) -> None:
        """Raise ``ValueError`` when the device set cannot seat p ranks."""
        if p < 1:
            raise ValueError(f"{self.name}: need at least one rank (got p={p})")
        cap = self.capacity
        if cap is not None and p > cap:
            raise ValueError(
                f"{self.name}: p={p} exceeds the topology's {cap} devices"
            )

    # -- tiered cost model ----------------------------------------------- #

    def tier_for(self, p: int) -> CommTier:
        """Smallest tier that holds p ranks (the cost contract's selector)."""
        self.validate_p(p)
        for tier in self.tiers:
            if tier.capacity == 0 or p <= tier.capacity:
                return tier
        raise AssertionError("validate_p guarantees a tier exists")

    def effective_alpha_beta(self, p: int) -> tuple[float, float]:
        """(α_eff, β_eff) for a p-rank job: tier latency, contended bandwidth."""
        tier = self.tier_for(p)
        return tier.alpha, tier.beta * tier.contention

    def slowest_flop_rate(self, p: int) -> float:
        """Rate of the slowest of the first p devices (compute critical path)."""
        self.validate_p(p)
        if not self.devices:
            return self.default_flop_rate
        return min(d.flop_rate for d in self.devices[:p])

    def predict_time(
        self, words: float, messages: float, *, p: int, flops: float = 0.0
    ) -> float:
        """Predicted time of critical-path (words, messages, flops) on p ranks."""
        alpha, beta = self.effective_alpha_beta(p)
        t = alpha * messages + beta * words
        rate = self.slowest_flop_rate(p)
        if flops > 0.0 and math.isfinite(rate):
            t += flops / rate
        return t

    def time_from_steps(self, step_msgs: np.ndarray, step_words: np.ndarray) -> float:
        """``Σ_steps max_r (α_eff·msgs_r + β_eff·words_r)`` from measured tallies.

        ``step_msgs``/``step_words`` are the ``(S, p)`` per-superstep,
        per-rank tallies of :class:`~repro.machine.counters.CommLog`.  This
        is the only α-β time of a measured run: on the uniform topology
        ``α_eff, β_eff`` are the flat model's α and β, and other topologies
        substitute their effective tier parameters.  Coupling the two terms
        per rank before the max keeps it at or below the separable
        ``α·critical_messages + β·critical_words``.
        """
        if step_msgs.size == 0:
            return 0.0
        alpha, beta = self.effective_alpha_beta(step_msgs.shape[1])
        return float((alpha * step_msgs + beta * step_words).max(axis=1).sum())

    # -- identity --------------------------------------------------------- #

    def cache_token(self) -> str:
        """Canonical content string for cache keys (params included)."""
        tiers = ";".join(
            f"{t.name}:{t.capacity}:{t.alpha!r}:{t.beta!r}:{t.contention!r}"
            for t in self.tiers
        )
        rates = sorted({d.flop_rate for d in self.devices} or {self.default_flop_rate})
        return f"{self.name}|{tiers}|rates={rates!r}"

    def describe(self) -> dict[str, object]:
        """JSON-friendly summary for CLI/serve payloads."""
        return {
            "kind": self.kind,
            "name": self.name,
            "capacity": self.capacity,
            "tiers": [
                {
                    "name": t.name,
                    "capacity": t.capacity,
                    "alpha": t.alpha,
                    "beta": t.beta,
                    "contention": t.contention,
                }
                for t in self.tiers
            ],
            "devices": len(self.devices),
            "links": len(self.links),
        }

    # -- builders --------------------------------------------------------- #

    @classmethod
    def uniform(cls, alpha: float = 1.0, beta: float = 1.0, p: int | None = None) -> Topology:
        """The paper's flat α-β machine; ``p=None`` leaves the fleet unbounded."""
        _check_positive(alpha=alpha, beta=beta)
        devices: tuple[Device, ...] = ()
        if p is not None:
            if p < 1:
                raise ValueError(f"uniform: device count must be >= 1 (got p={p})")
            devices = tuple(Device(i) for i in range(p))
        cap = 0 if p is None else p
        name = "uniform" if p is None else f"uniform:{p}"
        return cls(
            kind="uniform",
            name=name,
            tiers=(CommTier("all", cap, alpha, beta),),
            devices=devices,
        )

    @classmethod
    def fat_tree(
        cls,
        switches: int,
        hosts_per_switch: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        oversubscription: float = 2.0,
    ) -> Topology:
        """Two-level fat-tree: edge switches under one (oversubscribed) core.

        Inside one switch a message crosses 2 links (host→edge→host);
        across switches it crosses 4 (host→edge→core→edge→host) and its
        words share the core bisection, modeled as the
        ``oversubscription`` contention factor on β.
        """
        if switches < 1 or hosts_per_switch < 1:
            raise ValueError("fat-tree: switches and hosts_per_switch must be >= 1")
        _check_positive(alpha=alpha, beta=beta, oversubscription=oversubscription)
        devices = tuple(Device(i) for i in range(switches * hosts_per_switch))
        links = tuple(
            Link(f"host{i}", f"edge{i // hosts_per_switch}", alpha, beta)
            for i in range(switches * hosts_per_switch)
        ) + tuple(
            Link(f"edge{s}", "core", alpha, beta * oversubscription)
            for s in range(switches)
        )
        return cls(
            kind="fat-tree",
            name=f"fat-tree:{switches}x{hosts_per_switch}",
            tiers=(
                CommTier("switch", hosts_per_switch, 2.0 * alpha, beta),
                CommTier(
                    "core",
                    switches * hosts_per_switch,
                    4.0 * alpha,
                    beta,
                    contention=oversubscription,
                ),
            ),
            devices=devices,
            links=links,
        )

    @classmethod
    def torus(
        cls, dims: Sequence[int], alpha: float = 1.0, beta: float = 1.0
    ) -> Topology:
        """k-dimensional torus with per-hop latency and bisection contention.

        A p-rank job runs in the smallest enclosing sub-block: latency is
        the sub-block diameter in hops, and all-to-all style traffic loads
        each bisection link with ``side/4`` flows (classic torus bisection
        counting), which is the contention factor on β.
        """
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("torus: need at least one dimension, all sides >= 1")
        _check_positive(alpha=alpha, beta=beta)
        total = math.prod(dims)
        devices = tuple(Device(i) for i in range(total))
        links = _torus_links(dims, alpha, beta)
        tiers: list[CommTier] = []
        for side in range(1, max(dims) + 1):
            shape = tuple(min(side, d) for d in dims)
            cap = math.prod(shape)
            if tiers and cap == tiers[-1].capacity:
                continue
            hops = sum(s - 1 for s in shape)
            tiers.append(
                CommTier(
                    name="node" if cap == 1 else f"block:{'x'.join(map(str, shape))}",
                    capacity=cap,
                    alpha=alpha * max(1, hops),
                    beta=beta,
                    contention=max(1.0, max(shape) / 4.0),
                )
            )
        return cls(
            kind="torus",
            name=f"torus:{'x'.join(map(str, dims))}",
            tiers=tuple(tiers),
            devices=devices,
            links=links,
        )

    @classmethod
    def gpu_cluster(
        cls,
        nodes: int,
        gpus_per_node: int,
        alpha: float = 1.0,
        beta: float = 1.0,
        gpu_flop_rate: float = 8.0,
    ) -> Topology:
        """Multi-GPU nodes: NVLink-class links inside, a network between.

        Intra-node links run at a tenth of the base α/β; leaving the node
        costs ``4α`` per message at full β.  Devices carry a *finite* flop
        rate, so (unlike the pure-communication builders) the compute term
        ``flops / rate`` participates in predicted time.
        """
        if nodes < 1 or gpus_per_node < 1:
            raise ValueError("gpu: nodes and gpus_per_node must be >= 1")
        _check_positive(alpha=alpha, beta=beta, gpu_flop_rate=gpu_flop_rate)
        total = nodes * gpus_per_node
        devices = tuple(Device(i, kind="gpu", flop_rate=gpu_flop_rate) for i in range(total))
        links = tuple(
            Link(f"gpu{i}", f"node{i // gpus_per_node}", 0.1 * alpha, 0.1 * beta)
            for i in range(total)
        ) + tuple(Link(f"node{r}", "net", 4.0 * alpha, beta) for r in range(nodes))
        return cls(
            kind="gpu",
            name=f"gpu:{nodes}x{gpus_per_node}",
            tiers=(
                CommTier("nvlink", gpus_per_node, 0.1 * alpha, 0.1 * beta),
                CommTier("network", total, 4.0 * alpha, beta),
            ),
            devices=devices,
            links=links,
            default_flop_rate=gpu_flop_rate,
        )

    @classmethod
    def parse(cls, spec: str, alpha: float = 1.0, beta: float = 1.0) -> Topology:
        """Build a topology from a CLI spec string.

        Grammar: ``uniform`` | ``uniform:P`` | ``fat-tree:SxH`` |
        ``torus:D1xD2[x...]`` | ``gpu:NxG``.  ``alpha``/``beta`` set the
        base link parameters of whichever family is named.
        """
        family, dims = parse_spec(spec)
        if family == "uniform":
            return cls.uniform(alpha, beta, p=dims[0] if dims else None)
        if family == "fat-tree":
            return cls.fat_tree(*dims, alpha=alpha, beta=beta)
        if family == "torus":
            return cls.torus(dims, alpha, beta)
        return cls.gpu_cluster(*dims, alpha=alpha, beta=beta)


def parse_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Check ``spec`` against :meth:`Topology.parse`'s grammar without building it.

    Returns ``(family, dims)``, where ``dims`` is ``()`` for a bare
    ``uniform``; raises ``ValueError`` on an unknown family or malformed dims.
    """
    family, _, rest = spec.partition(":")
    if family == "uniform":
        return family, _parse_dims(spec, rest, exactly=1) if rest else ()
    if family in ("fat-tree", "gpu", "gpu-cluster"):
        return family, _parse_dims(spec, rest, exactly=2)
    if family == "torus":
        return family, _parse_dims(spec, rest)
    raise ValueError(
        f"unknown topology family {family!r} in {spec!r}; "
        f"choose from {TOPOLOGY_FAMILIES}"
    )


def _check_positive(**params: float) -> None:
    for name, value in params.items():
        if not value > 0.0:
            raise ValueError(f"topology parameter {name} must be > 0 (got {value})")


def _parse_dims(spec: str, rest: str, exactly: int | None = None) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in rest.split("x"))
    except ValueError:
        raise ValueError(
            f"malformed topology spec {spec!r}: dims must be integers like 16x4"
        ) from None
    if exactly is not None and len(dims) != exactly:
        raise ValueError(
            f"malformed topology spec {spec!r}: expected {exactly} "
            f"'x'-separated integer(s)"
        )
    if any(d < 1 for d in dims):
        raise ValueError(f"malformed topology spec {spec!r}: dims must be >= 1")
    return dims


def _torus_links(dims: tuple[int, ...], alpha: float, beta: float) -> tuple[Link, ...]:
    """+1-neighbor (wraparound) links of the full torus, one per edge."""
    total = math.prod(dims)
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()

    def coords(i: int) -> tuple[int, ...]:
        return tuple((i // strides[axis]) % dims[axis] for axis in range(len(dims)))

    links = []
    for i in range(total):
        cs = coords(i)
        for axis, side in enumerate(dims):
            if side == 1:
                continue
            nb = list(cs)
            nb[axis] = (cs[axis] + 1) % side
            j = sum(nb[a] * strides[a] for a in range(len(dims)))
            links.append(Link(f"t{i}", f"t{j}", alpha, beta))
    return tuple(links)
