"""Cost-model and pipeline-policy knobs of the simulated cluster.

:class:`ClusterParams` collects everything a run needs: the hardware cost
models (disk, network, cache, CPU constants), the degraded-mode protocol
settings (replication, timeouts, retries), and the three pluggable
pipeline seams introduced by the request-pipeline refactor:

* ``scheduler`` — the per-disk queue discipline
  (:mod:`repro.parallel.engine.scheduling`);
* ``replica_policy`` — how the router picks among replica copies
  (:mod:`repro.parallel.engine.replicas`);
* ``max_inflight`` / ``deadline`` — the open-system admission controller
  (:mod:`repro.parallel.engine.admission`).

The defaults (``fifo`` scheduling, ``primary-only`` replica selection,
unbounded admission) reproduce the pre-refactor engine bit for bit — the
repo's neutrality-pin pattern (``tests/test_engine_neutrality.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.validate import check_int_field
from repro.parallel.disk import DiskModel
from repro.parallel.network import NetworkModel

__all__ = ["ClusterParams", "DEFAULT_REQUEST_TIMEOUT", "validate_params"]

#: Request timeout slack used when faults are injected but none was configured.
DEFAULT_REQUEST_TIMEOUT = 0.05


@dataclass(frozen=True)
class ClusterParams:
    """Cost-model knobs of the simulated cluster (SP-2-era defaults)."""

    disk: DiskModel = field(default_factory=DiskModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    #: LRU cache capacity per node, in blocks (0 disables caching).
    cache_blocks: int = 512
    #: Disks per node (paper: 1; its future-work configuration: 7).
    disks_per_node: int = 1
    #: CPU time to filter one candidate record (seconds).
    cpu_filter_per_record: float = 2e-6
    #: Bytes per record on the wire.
    record_bytes: int = 40
    #: Fixed bytes per request/reply message.
    header_bytes: int = 64
    #: Bytes per bucket id in a request message.
    bucket_id_bytes: int = 8
    #: Coordinator directory-lookup CPU time per query.
    lookup_time: float = 0.2e-3
    #: Coordinator planning CPU time per touched bucket.
    plan_time_per_bucket: float = 2e-6
    #: Outstanding queries in closed mode (1 = the paper's workload).
    pipeline_depth: int = 1
    #: Replication scheme for dynamic failover ("chained"/"mirrored";
    #: None disables failover — timed-out requests abort after retries).
    replication: "str | None" = None
    #: Per-request timeout *slack* in seconds, added on top of the healthy
    #: service-time estimate for the request's size (so large requests get
    #: proportionally later deadlines).  None = disabled on fault-free runs,
    #: auto (DEFAULT_REQUEST_TIMEOUT) when faults are injected; set
    #: explicitly to force timeouts on.
    request_timeout: "float | None" = None
    #: Retransmissions to the same node before suspecting it.
    max_retries: int = 1
    #: Base backoff before a retry (doubles per attempt).
    retry_backoff: float = 0.02
    #: Full-jitter fraction on retry backoff: each retry delay is drawn
    #: uniformly from ``((1 - retry_jitter) * full, full]`` where ``full``
    #: is the exponential backoff ``retry_backoff * 2**attempt``.  0.0
    #: (default) keeps the deterministic legacy delays (and the golden
    #: neutrality pins byte-identical); 1.0 is classic AWS-style full
    #: jitter.  Draws come from a dedicated deterministically-seeded RNG,
    #: so jittered runs are still reproducible.
    retry_jitter: float = 0.0
    #: Delay until a recovered node's heartbeat clears coordinator suspicion.
    heartbeat_delay: float = 0.05
    #: Disk queue discipline: "fifo" (default, the legacy behaviour),
    #: "sjf" (shortest job first on planned block count) or "fair"
    #: (round-robin across queries).  See `repro.parallel.engine.scheduling`.
    scheduler: str = "fifo"
    #: Replica-selection policy for reads: "primary-only" (default; replicas
    #: serve failover traffic only), "least-loaded-alive" or
    #: "fastest-estimated" (both balance healthy reads across replica copies
    #: and require ``replication``).  See `repro.parallel.engine.replicas`.
    replica_policy: str = "primary-only"
    #: Open-system admission: maximum queries in flight (None = unbounded,
    #: the legacy behaviour; arrivals beyond the limit queue for admission).
    max_inflight: "int | None" = None
    #: Open-system admission: per-request deadline in seconds.  A query that
    #: waited longer than this in the admission queue is *shed* instead of
    #: run (requires/implies a ``max_inflight`` bound).
    deadline: "float | None" = None
    #: Popularity-driven autoscaling: None (default — no heat tracking, no
    #: replicas, byte-identical to the pre-autoscale engine), a policy name
    #: ("null", "static", "heat-replicate") or a full
    #: :class:`repro.parallel.autoscale.AutoscaleParams`.  The replicating
    #: policies own read routing and replica placement themselves, so they
    #: are mutually exclusive with ``replication``/``replica_policy``.  See
    #: `repro.parallel.autoscale` and ``docs/autoscale.md``.
    autoscale: "object | None" = None


#: Cost, size and delay constants that must be non-negative (NaN is refused
#: too); a negative one would otherwise fail mid-run, or only after a fault.
_NON_NEGATIVE = (
    "lookup_time",
    "plan_time_per_bucket",
    "cpu_filter_per_record",
    "record_bytes",
    "header_bytes",
    "bucket_id_bytes",
    "retry_backoff",
    "heartbeat_delay",
)


def validate_params(params: ClusterParams) -> None:
    """Raise ``ValueError`` for out-of-range or inconsistent knobs.

    Checks the numeric knobs, the policy *names* (scheduler, replica
    policy; their registries list the valid choices) and the cross-field
    constraints.
    """
    if not params.disks_per_node >= 1:
        raise ValueError(f"disks_per_node must be >= 1, got {params.disks_per_node}")
    for name in _NON_NEGATIVE:
        value = getattr(params, name)
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    ints = [("pipeline_depth", 1), ("max_retries", 0), ("cache_blocks", 0)]
    if params.max_inflight is not None:
        ints.append(("max_inflight", 1))
    for name, minimum in ints:
        check_int_field(getattr(params, name), name, minimum)
    if not 0.0 <= params.retry_jitter <= 1.0:
        raise ValueError(
            f"retry_jitter must be in [0, 1], got {params.retry_jitter}"
        )
    for name in ("request_timeout", "deadline"):
        value = getattr(params, name)
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if params.autoscale is not None:
        from repro.parallel.autoscale.policy import make_autoscale_policy

        # Resolves the policy name (ValueError lists the registry) and, via
        # AutoscaleParams.__post_init__, validates the numeric knobs.
        policy = make_autoscale_policy(params.autoscale)
        if policy.routes:
            if params.replication is not None:
                raise ValueError(
                    f"autoscale policy {policy.name!r} manages replicas itself "
                    "and is mutually exclusive with ClusterParams.replication"
                )
            if params.replica_policy != "primary-only":
                raise ValueError(
                    f"autoscale policy {policy.name!r} owns read routing; "
                    "replica_policy must stay 'primary-only'"
                )
    # The registries check the policy names and list the valid choices.
    from repro.parallel.engine.replicas import REPLICA_POLICIES, make_replica_policy
    from repro.parallel.engine.scheduling import make_scheduler

    make_scheduler(params.scheduler)
    make_replica_policy(params.replica_policy)

    if (
        params.replica_policy in REPLICA_POLICIES
        and params.replica_policy != "primary-only"
        and params.replication is None
    ):
        raise ValueError(
            f"replica policy {params.replica_policy!r} reads from replica copies "
            "and requires ClusterParams.replication to be set"
        )
