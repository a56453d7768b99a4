"""Tiered RPC topology and per-tier service-time models.

The Helix-style shape: rank 0 is the **source/sink** (the request feeder
and query manager), and the remaining ranks split into service tiers —
frontend → mid-tier(s) → leaf.  A request enters at a frontend, each tier
does its own work and fans out to a deterministic subset of the next
tier, replies fan back in, and the frontend returns the response to the
source (the simulated client).

Service times are **hash-derived, not drawn**: a splitmix64 mix of
(request id, tier, rank, salt) yields the per-request jitter and
heavy-tail excursions.  That keeps every per-request quantity a pure
function of the configuration with *zero* RNG-stream consumption, O(1)
memory at any request count, and bit-identical values whatever order a
driver steps the nodes in — the same reason the fault injector hashes
instead of drawing where it can.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.units import SimTime

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit integer mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash01(request_id: int, tier: int, rank: int, salt: int) -> float:
    """A deterministic uniform in [0, 1) keyed by request/tier/rank."""
    mixed = _splitmix64(
        _splitmix64(request_id * 0x9E3779B97F4A7C15 + salt) ^ (tier << 32) ^ rank
    )
    return (mixed >> 11) / float(1 << 53)


@dataclass(frozen=True)
class TierModel:
    """Service-time model of one tier.

    ``service = base + U*jitter`` ns, inflated by ``tail_factor`` with
    probability ``tail_prob`` (the heavy-tail excursions that dominate
    p99.9).  Both uniforms are hash-derived per (request, tier, rank).
    """

    base_ns: SimTime = 5_000
    jitter_ns: SimTime = 2_000
    tail_prob: float = 0.0
    tail_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValueError(f"base service time must be positive, got {self.base_ns}")
        if self.jitter_ns < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter_ns}")
        if not 0.0 <= self.tail_prob <= 1.0:
            raise ValueError(f"tail probability must lie in [0, 1], got {self.tail_prob}")
        if self.tail_factor < 1.0:
            raise ValueError(f"tail factor must be >= 1, got {self.tail_factor}")

    def service_time(self, request_id: int, tier: int, rank: int) -> SimTime:
        """Busy time this tier spends on one request, simulated ns."""
        duration = self.base_ns
        if self.jitter_ns:
            duration += int(hash01(request_id, tier, rank, salt=1) * self.jitter_ns)
        if self.tail_prob > 0.0 and hash01(request_id, tier, rank, salt=2) < self.tail_prob:
            duration = int(duration * self.tail_factor)
        return max(1, duration)


@dataclass(frozen=True)
class TierPlan:
    """Rank layout of one service topology: ``tiers[i]`` lists the ranks
    of tier *i* (tier 0 = frontends, last tier = leaves); rank
    ``source`` is the feeder/sink."""

    tiers: tuple[tuple[int, ...], ...]
    source: int = 0

    @classmethod
    def layout(cls, size: int, weights: tuple[int, ...]) -> "TierPlan":
        """Split ranks 1..size-1 across ``len(weights)`` tiers.

        Allocation is proportional to *weights* with every tier kept
        non-empty; remainders go to the later (wider, fan-out) tiers.
        Requires at least one rank per tier plus the source.
        """
        if not weights:
            raise ValueError("a service needs at least one tier")
        if any(weight <= 0 for weight in weights):
            raise ValueError(f"tier weights must be positive, got {weights}")
        servers = size - 1
        if servers < len(weights):
            raise ValueError(
                f"cluster size {size} cannot host {len(weights)} tiers "
                f"(needs the source plus one rank per tier)"
            )
        total = sum(weights)
        counts = [max(1, servers * weight // total) for weight in weights]
        # Distribute the rounding remainder to the last tiers first: the
        # leaf tier is the widest in the Helix shape.
        index = len(counts) - 1
        while sum(counts) < servers:
            counts[index] += 1
            index = (index - 1) % len(counts)
        while sum(counts) > servers:
            widest = max(range(len(counts)), key=lambda i: (counts[i], i))
            if counts[widest] == 1:
                raise ValueError(
                    f"cluster size {size} cannot host tiers weighted {weights}"
                )
            counts[widest] -= 1
        tiers: list[tuple[int, ...]] = []
        next_rank = 1
        for count in counts:
            tiers.append(tuple(range(next_rank, next_rank + count)))
            next_rank += count
        return cls(tiers=tuple(tiers), source=0)

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def tier_of(self, rank: int) -> int:
        """Tier index of *rank* (-1 for the source)."""
        if rank == self.source:
            return -1
        for index, members in enumerate(self.tiers):
            if rank in members:
                return index
        raise ValueError(f"rank {rank} is not part of the service plan")

    def children_of(self, tier: int) -> tuple[int, ...]:
        """Ranks of the next tier ( () for the leaf tier )."""
        if tier + 1 < len(self.tiers):
            return self.tiers[tier + 1]
        return ()

    def route(self, request_id: int, tier: int, fanout: int) -> tuple[int, ...]:
        """The downstream ranks one request fans out to from *tier*.

        A deterministic rotation keyed by the request id spreads load
        evenly across the next tier; *fanout* is clamped to the tier
        width.  Returns () from the leaf tier.
        """
        children = self.children_of(tier)
        if not children:
            return ()
        width = min(max(1, fanout), len(children))
        start = _splitmix64(request_id * 0x9E3779B97F4A7C15 + tier) % len(children)
        return tuple(children[(start + step) % len(children)] for step in range(width))

    def frontend_for(self, request_id: int) -> int:
        """The frontend a request is addressed to (round-robin)."""
        frontends = self.tiers[0]
        return frontends[request_id % len(frontends)]
