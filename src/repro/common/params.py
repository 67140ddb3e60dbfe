"""Configuration dataclasses for the simulated machine.

Defaults follow the paper's evaluation setup (section 6): a tiled
many-core with 2-issue cores, private L1s, a distributed shared L2 that
is also the coherence home, and a packet-switched 2D-mesh NoC.  Latency
values are cycle-approximate and chosen to reproduce the relative costs
that drive the paper's results (L1 hit vs. remote LLC round trip vs.
hop-proportional NoC latency).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, Optional

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class NocParams:
    """2D-mesh network-on-chip parameters."""

    router_latency: int = 2
    """Cycles spent in each router's pipeline (per hop)."""

    link_latency: int = 1
    """Cycles to traverse one inter-tile link."""

    flits_per_message: int = 1
    """Serialization cost: extra cycles a message occupies a link."""

    injection_latency: int = 1
    """Cycles from NIC injection to first router."""

    def validate(self) -> None:
        if self.router_latency < 0 or self.link_latency < 0:
            raise ConfigError("NoC latencies must be non-negative")
        if self.flits_per_message < 1:
            raise ConfigError("flits_per_message must be >= 1")


@dataclass(frozen=True)
class CacheParams:
    """Private L1 data cache parameters."""

    line_size: int = 64
    n_sets: int = 64
    associativity: int = 4
    hit_latency: int = 2
    """L1 hit latency (cycles)."""

    def validate(self) -> None:
        for name in ("line_size", "n_sets", "associativity"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.line_size & (self.line_size - 1):
            raise ConfigError("line_size must be a power of two")
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError("n_sets must be a power of two")


@dataclass(frozen=True)
class LLCParams:
    """Distributed shared last-level cache (one slice per tile)."""

    slice_latency: int = 8
    """Access latency of an LLC slice (cycles), includes directory."""

    memory_latency: int = 80
    """Latency to off-chip memory on an LLC miss (cycles)."""

    miss_rate: float = 0.0
    """Probability an LLC access misses to memory. The synthetic kernels
    model memory behaviour explicitly, so this stays 0 by default."""


@dataclass(frozen=True)
class CoreParams:
    """Core timing parameters."""

    issue_width: int = 2
    """Modeled only through the per-op costs; kept for documentation."""

    hw_threads: int = 1
    """Hardware thread contexts per core (SMT).  The paper's HWQueue
    grows to one bit per hardware thread; requester ids become
    ``core * hw_threads + slot``.  Threads on one core share its L1 and
    HWSync bits."""

    sync_fence_latency: int = 3
    """Pipeline-fence cost of a sync instruction reaching ROB head
    (the paper notes this stall is 'negligible in most applications')."""

    context_switch_latency: int = 200
    """OS cost to suspend/resume a thread."""


@dataclass(frozen=True)
class MSAParams:
    """Minimalistic Synchronization Accelerator configuration.

    ``entries_per_tile`` is the paper's headline knob (1, 2, 4, or
    ``None`` for MSA-inf).  ``mode`` selects the degenerate variants used
    in the evaluation.
    """

    entries_per_tile: Optional[int] = 2
    """Entries in each tile's MSA slice; ``None`` models MSA-inf."""

    lock_support: bool = True
    barrier_support: bool = True
    condvar_support: bool = True

    hwsync_opt: bool = True
    """HWSync-bit / LOCK_SILENT fast re-acquire optimization (section 5)."""

    msa_access_latency: int = 2
    """Cycles for an MSA slice to process one request."""

    def validate(self) -> None:
        if self.entries_per_tile is not None and self.entries_per_tile < 0:
            raise ConfigError("entries_per_tile must be >= 0 or None")

    @property
    def is_infinite(self) -> bool:
        return self.entries_per_tile is None

    def supports(self, sync_type) -> bool:
        from repro.common.types import SyncType

        return {
            SyncType.LOCK: self.lock_support,
            SyncType.BARRIER: self.barrier_support,
            SyncType.CONDVAR: self.condvar_support,
        }[sync_type]


@dataclass(frozen=True)
class OMUParams:
    """Overflow Management Unit configuration.

    The paper evaluates a four-counter OMU per slice; counters are
    indexed by the synchronization address *without tagging*, so
    distinct addresses may alias (performance-only effect).
    """

    n_counters: int = 4
    counter_bits: int = 8
    """Saturating width; with <=64 HW threads 8 bits never saturates."""

    use_bloom: bool = False
    """Use a counting Bloom filter instead of simple indexed counters."""

    bloom_hashes: int = 2

    enabled: bool = True
    """Disabled models the 'Without OMU' configuration of Figure 7:
    entries are never reclaimed once the address set exceeds capacity."""

    def validate(self) -> None:
        if self.n_counters < 1:
            raise ConfigError("OMU needs at least one counter")
        if self.counter_bits < 1:
            raise ConfigError("counter_bits must be >= 1")
        if self.use_bloom and self.bloom_hashes < 1:
            raise ConfigError("bloom_hashes must be >= 1")

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class FaultParams:
    """Tuning knobs for the fault-recovery machinery.

    These only take effect when a machine is built with a
    :class:`repro.faults.FaultPlan`; without a plan the recovery layers
    are not constructed at all and the machine behaves bit-for-bit like
    a fault-free build.
    """

    retransmit_timeout: int = 96
    """Reliable-transport retransmission timeout (cycles) before the
    oldest unacknowledged message on a channel is re-injected."""

    retransmit_timeout_max: int = 1536
    """Cap for the transport's exponential retransmission backoff."""

    max_retransmits: int = 24
    """Retransmissions of one message before the transport abandons it
    (bounds traffic into a dead endpoint; for a live channel with drop
    probability p the odds of a false abandon are p^max_retransmits)."""

    request_timeout: int = 800
    """Cycles a sync unit waits for any sign of life (response, accept,
    or pong) from a home slice before its first retry."""

    request_timeout_max: int = 25_600
    """Cap for the request-level exponential backoff."""

    max_retries: int = 6
    """Consecutive unanswered retries/pings after which the home tile is
    declared dead and degraded to software synchronization."""

    response_cache_size: int = 128
    """Per-slice completed-request cache used to answer retried
    requests idempotently (duplicate suppression)."""

    def validate(self) -> None:
        if self.retransmit_timeout < 1 or self.request_timeout < 1:
            raise ConfigError("fault timeouts must be >= 1 cycle")
        if self.retransmit_timeout_max < self.retransmit_timeout:
            raise ConfigError("retransmit_timeout_max < retransmit_timeout")
        if self.request_timeout_max < self.request_timeout:
            raise ConfigError("request_timeout_max < request_timeout")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.max_retransmits < 4:
            raise ConfigError("max_retransmits must be >= 4")
        if self.response_cache_size < 8:
            raise ConfigError("response_cache_size must be >= 8")


def _fields_dict(params) -> dict:
    """Field name -> value, recursing into nested parameter groups."""
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        out[f.name] = _fields_dict(value) if is_dataclass(value) else value
    return out


@dataclass(frozen=True)
class MachineParams:
    """Complete description of a simulated machine."""

    n_cores: int = 16
    noc: NocParams = field(default_factory=NocParams)
    l1: CacheParams = field(default_factory=CacheParams)
    llc: LLCParams = field(default_factory=LLCParams)
    core: CoreParams = field(default_factory=CoreParams)
    msa: Optional[MSAParams] = field(default_factory=MSAParams)
    """``None`` means no MSA hardware at all (pure-software machines and
    the MSA-0 machine, which implements the ISA by always failing)."""

    omu: OMUParams = field(default_factory=OMUParams)
    ideal_sync: bool = False
    """Zero-latency oracle synchronization (the paper's 'Ideal')."""

    faults: FaultParams = field(default_factory=FaultParams)
    """Recovery tuning; inert unless the machine is given a FaultPlan."""

    seed: int = 2015

    def validate(self) -> None:
        if self.n_cores < 1:
            raise ConfigError("n_cores must be >= 1")
        side = int(math.isqrt(self.n_cores))
        if side * side != self.n_cores:
            raise ConfigError(
                f"n_cores must be a perfect square for a 2D mesh, "
                f"got {self.n_cores}"
            )
        self.noc.validate()
        self.l1.validate()
        if self.core.hw_threads < 1:
            raise ConfigError("hw_threads must be >= 1")
        if self.msa is not None:
            self.msa.validate()
        self.omu.validate()
        self.faults.validate()

    @property
    def mesh_side(self) -> int:
        return int(math.isqrt(self.n_cores))

    def with_(self, **changes) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready nested dict of every parameter (recurses into the
        sub-parameter dataclasses; ``msa`` becomes ``None`` when absent).

        Equal to ``dataclasses.asdict(self)`` without its deep copy: the
        parameter groups are frozen and hold only scalars, and the cache
        key of every grid point hashes this dict."""
        return _fields_dict(self)

    def with_overrides(self, overrides: Dict[str, object]) -> "MachineParams":
        """Apply a mapping of field overrides, including dotted paths.

        Keys are either top-level field names (``"ideal_sync"``, taking
        whole sub-dataclass values like :meth:`with_`) or dotted paths
        into a parameter group (``"msa.entries_per_tile"``,
        ``"omu.counter_bits"``, ``"noc.link_latency"``) whose values are
        plain scalars.  Dotted overrides are what makes a design point
        pure JSON: they survive the result cache, the service wire
        format, and :mod:`repro.dse` space files unchanged.

        Unknown fields, dotted paths into an absent group (``msa`` is
        ``None`` on software-only configurations), and a group named
        both whole and dotted raise :class:`ConfigError`.
        """
        top: Dict[str, object] = {}
        nested: Dict[str, Dict[str, object]] = {}
        for name, value in overrides.items():
            if "." in name:
                head, _, leaf = name.partition(".")
                if not leaf or "." in leaf:
                    raise ConfigError(
                        f"override {name!r}: expected 'group.field' with "
                        "exactly one dot"
                    )
                nested.setdefault(head, {})[leaf] = value
            else:
                top[name] = value
        field_names = {f.name for f in fields(self)}
        for name in top:
            if name not in field_names:
                raise ConfigError(
                    f"unknown machine parameter {name!r}; top-level "
                    f"fields: {sorted(field_names)}"
                )
        for head, changes in nested.items():
            if head in top:
                raise ConfigError(
                    f"parameter group {head!r} overridden both whole "
                    f"({head}=...) and dotted ({head}.{next(iter(changes))}"
                    "=...); pick one spelling"
                )
            if head not in field_names:
                raise ConfigError(
                    f"unknown parameter group {head!r} in dotted override; "
                    f"top-level fields: {sorted(field_names)}"
                )
            sub = getattr(self, head)
            if sub is None:
                raise ConfigError(
                    f"cannot override {head}.{next(iter(changes))}: this "
                    f"configuration has no {head!r} (it is None)"
                )
            if not is_dataclass(sub):
                raise ConfigError(
                    f"{head!r} is not a parameter group; set it directly "
                    f"({head}=...)"
                )
            sub_names = {f.name for f in fields(sub)}
            for leaf in changes:
                if leaf not in sub_names:
                    raise ConfigError(
                        f"unknown field {head}.{leaf}; {head} fields: "
                        f"{sorted(sub_names)}"
                    )
            top[head] = replace(sub, **changes)
        return replace(self, **top) if top else self

    def stable_hash(self) -> str:
        """Content hash of the full parameter tree.

        Two machines with equal parameters hash identically in any
        process; any changed knob (including nested ones) changes the
        hash.  The experiment engine folds this into its result-cache
        keys so cached results are invalidated when machine defaults
        change."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()
