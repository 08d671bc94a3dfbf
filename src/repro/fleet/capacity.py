"""Capacity accounting and termination-aware admission for the fleet.

The unit of capacity is the **chase node** (a conjunct in a chase
result): every admitted request charges its estimated chase size against
the serving node's budget and releases it when the answer (or error)
comes back.  The accounting shape follows MAAS pods — each node exposes
``total`` / ``used`` / ``available`` with an ``over_commit_ratio``
multiplier — because chase estimates are upper bounds, so moderate
over-commit is safe by construction.

What a request costs is where the theory earns its keep:

* If the tenant's Σ is **certified terminating** (weakly acyclic — see
  :func:`repro.chase.termination.analyse_termination`), the position
  graph yields a finite chase-size bound
  (:class:`repro.chase.termination.ChaseSizeEstimate`), and the request
  is charged that bound against *real* capacity.
* If Σ is **not certified**, no finite bound exists; the request is
  admitted only with clamped budgets (``max_conjuncts``/``max_level``
  cut to the policy's uncertified ceilings) and charged the clamp —
  the budget *is* the bound for such a request.

Per-tenant quotas bound one tenant's share of the fleet regardless of
certification, so a single weakly-acyclic tenant with a huge (but
finite!) bound cannot starve everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.chase.termination import ChaseSizeEstimate
from repro.exceptions import ReproError

#: A tenant is its routing identity: (schema fingerprint, Σ fingerprint).
TenantKey = Tuple[str, str]


class CapacityError(ReproError):
    """Capacity bookkeeping was asked to do something inconsistent."""


class NodeCapacity:
    """One node's chase-node budget: total / used / available.

    ``total`` is the node's declared budget (by default the fleet sizes
    it as ``shard_count × limits.max_conjuncts`` — every shard fully
    busy on a worst-case request).  ``over_commit_ratio`` scales it, the
    MAAS way: estimates are upper bounds, so a ratio above 1.0 admits
    more than the declared total on the expectation that real chases
    come in under their bounds.

    Mutated only from the coordinator's event loop — no lock needed.
    """

    def __init__(self, total: int, over_commit_ratio: float = 1.0):
        if total <= 0:
            raise CapacityError(f"capacity total must be positive, got {total}")
        if over_commit_ratio <= 0:
            raise CapacityError(
                f"over_commit_ratio must be positive, got {over_commit_ratio}")
        self.total = int(total)
        self.over_commit_ratio = float(over_commit_ratio)
        self.used = 0
        self.admitted = 0
        self.rejected = 0

    @property
    def effective_total(self) -> int:
        return int(self.total * self.over_commit_ratio)

    @property
    def available(self) -> int:
        return self.effective_total - self.used

    def admit(self, cost: int) -> bool:
        """Charge ``cost`` if it fits; False (and a rejection counted) if not."""
        if cost <= 0:
            raise CapacityError(f"admission cost must be positive, got {cost}")
        if cost > self.available:
            self.rejected += 1
            return False
        self.used += cost
        self.admitted += 1
        return True

    def release(self, cost: int) -> None:
        self.used = max(0, self.used - cost)

    def snapshot(self) -> Dict[str, Any]:
        """The MAAS-shaped accounting row, JSON-ready."""
        return {
            "total": self.total,
            "over_commit_ratio": self.over_commit_ratio,
            "effective_total": self.effective_total,
            "used": self.used,
            "available": self.available,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings; ``None`` means unlimited on that axis.

    ``max_request_cost`` caps any single request's charged cost;
    ``max_in_flight_cost`` caps the sum of the tenant's concurrently
    admitted costs across the whole fleet.
    """

    max_request_cost: Optional[int] = None
    max_in_flight_cost: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_request_cost", "max_in_flight_cost"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise CapacityError(f"TenantQuota.{name} must be positive, got {value}")

    def as_dict(self) -> Dict[str, Any]:
        return {"max_request_cost": self.max_request_cost,
                "max_in_flight_cost": self.max_in_flight_cost}


class TenantLedger:
    """Fleet-wide in-flight cost per tenant, checked against quotas."""

    def __init__(self, default_quota: TenantQuota = TenantQuota()):
        self.default_quota = default_quota
        self._quotas: Dict[TenantKey, TenantQuota] = {}
        self._in_flight: Dict[TenantKey, int] = {}
        self.quota_rejections = 0

    def set_quota(self, tenant: TenantKey, quota: Optional[TenantQuota]) -> None:
        """Install (or with ``None`` clear) a tenant's explicit quota."""
        if quota is None:
            self._quotas.pop(tenant, None)
        else:
            self._quotas[tenant] = quota

    def quota_for(self, tenant: TenantKey) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    def deny_reason(self, tenant: TenantKey, cost: int) -> Optional[str]:
        """Why the quota forbids charging ``cost`` now, or ``None`` if allowed."""
        quota = self.quota_for(tenant)
        if quota.max_request_cost is not None and cost > quota.max_request_cost:
            return (f"request cost {cost} exceeds the tenant's per-request "
                    f"quota of {quota.max_request_cost} chase nodes")
        in_flight = self._in_flight.get(tenant, 0)
        if (quota.max_in_flight_cost is not None
                and in_flight + cost > quota.max_in_flight_cost):
            return (f"request cost {cost} on top of {in_flight} in flight "
                    f"exceeds the tenant's quota of {quota.max_in_flight_cost} "
                    "chase nodes")
        return None

    def charge(self, tenant: TenantKey, cost: int) -> None:
        self._in_flight[tenant] = self._in_flight.get(tenant, 0) + cost

    def release(self, tenant: TenantKey, cost: int) -> None:
        remaining = self._in_flight.get(tenant, 0) - cost
        if remaining > 0:
            self._in_flight[tenant] = remaining
        else:
            self._in_flight.pop(tenant, None)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "default_quota": self.default_quota.as_dict(),
            "explicit_quotas": len(self._quotas),
            "tenants_in_flight": len(self._in_flight),
            "in_flight_cost": sum(self._in_flight.values()),
            "quota_rejections": self.quota_rejections,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """What one request costs and under which budget clamps it may run.

    ``clamps`` is merged into the forwarded record for uncertified Σ —
    it is the coordinator *imposing* a finite bound where the theory
    could not certify one.  Certified requests forward unclamped (the
    worker's own :class:`~repro.service.protocol.ServiceLimits` still
    apply as a backstop).
    """

    cost: int
    certified: bool
    clamps: Dict[str, int] = field(default_factory=dict)
    estimate: Optional[ChaseSizeEstimate] = None

    def describe(self) -> Dict[str, Any]:
        detail: Dict[str, Any] = {"cost": self.cost, "certified": self.certified}
        if self.clamps:
            detail["clamps"] = dict(self.clamps)
        if self.estimate is not None:
            detail["estimate"] = self.estimate.describe()
        return detail


@dataclass(frozen=True)
class AdmissionPolicy:
    """How requests turn into costs (the termination-aware half).

    ``uncertified_max_conjuncts`` / ``uncertified_max_level`` are the
    budget clamps imposed on tenants whose Σ has no termination
    certificate.
    """

    uncertified_max_conjuncts: int = 2_000
    uncertified_max_level: int = 8

    def __post_init__(self) -> None:
        for name in ("uncertified_max_conjuncts", "uncertified_max_level"):
            if getattr(self, name) <= 0:
                raise CapacityError(
                    f"AdmissionPolicy.{name} must be positive, "
                    f"got {getattr(self, name)}")

    def decide(self, certified: bool, estimate: Optional[ChaseSizeEstimate],
               query_atoms: int, requested_max_conjuncts: Optional[int],
               requested_max_level: Optional[int]) -> AdmissionDecision:
        """Cost a data-plane request.

        Certified Σ: the position-graph bound on the chase size, capped
        by the request's own ``max_conjuncts`` when the tenant asked for
        less (a tenant that budgets below its bound is charged its
        budget — it cannot use more).

        Uncertified Σ: charged the clamped ``max_conjuncts`` it will run
        under, with the clamps recorded for the forwarder to impose.
        """
        if certified and estimate is not None and estimate.bounded:
            cost = estimate.nodes(max(1, query_atoms))
            if requested_max_conjuncts is not None:
                cost = min(cost, requested_max_conjuncts)
            return AdmissionDecision(cost=max(1, cost), certified=True,
                                     estimate=estimate)
        max_conjuncts = self.uncertified_max_conjuncts
        if requested_max_conjuncts is not None:
            max_conjuncts = min(max_conjuncts, requested_max_conjuncts)
        max_level = self.uncertified_max_level
        if requested_max_level is not None:
            max_level = min(max_level, requested_max_level)
        clamps = {"max_conjuncts": max_conjuncts, "max_level": max_level}
        return AdmissionDecision(cost=max_conjuncts, certified=False,
                                 clamps=clamps, estimate=estimate)
