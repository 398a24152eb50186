"""Popularity-driven replication and elastic scale-out.

Covers the pure controller (:mod:`repro.parallel.autoscale.controller`),
the engine-side policies, the elastic run driver and the CLI wiring.  The
differential tests pin the controller to brute-force oracles: with zero
hysteresis and room in the budget, the replica set converges to exactly
the top-k buckets of an independently recomputed EWMA ranking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_method
from repro.gridfile import GridFile
from repro.parallel import (
    AUTOSCALE_POLICIES,
    AutoscaleCluster,
    AutoscaleParams,
    ClusterParams,
    ParallelGridFile,
    ScalePlan,
    make_autoscale_policy,
)
from repro.parallel.autoscale import AutoscaleController, HeatTracker
from repro.sim import flash_crowd_queries, square_queries

DOMAIN = ([0.0, 0.0], [1000.0, 1000.0])


@pytest.fixture(scope="module")
def deployment():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 1000.0, size=(600, 2))
    gf = GridFile.from_points(pts, *DOMAIN, capacity=20)
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    return gf, assignment


# -- heat tracker -------------------------------------------------------------


def test_heat_tracker_ewma_math():
    h = HeatTracker(3, alpha=0.5)
    h.touch([0, 0, 1])
    h.roll()
    assert h.ewma == [1.0, 0.5, 0.0]
    h.touch([2])
    h.roll()
    assert h.ewma == [0.5, 0.25, 0.5]
    # the window is cleared by each roll
    assert h.window == [0.0, 0.0, 0.0]


def test_heat_tracker_renumbering_mirrors_swap_removal():
    h = HeatTracker(3, alpha=1.0)
    h.touch([0, 1, 1, 2, 2, 2])
    h.roll()
    h.overwrite(0, 2)  # bucket 2 takes slot 0
    h.pop()
    assert h.ewma == [3.0, 2.0]
    h.add()
    assert len(h) == 3 and h.ewma[2] == 0.0


def test_heat_tracker_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        HeatTracker(2, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        HeatTracker(2, alpha=1.5)


# -- params validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(budget=-1),
        dict(alpha=0.0),
        dict(alpha=1.2),
        dict(interval=0),
        dict(add_heat=-0.5),
        dict(evict_heat=-0.1),
        dict(add_heat=0.5, evict_heat=0.9),  # evict above add
        dict(min_dwell=-1),
        dict(max_actions=0),
        dict(add_heat=float("nan")),
        dict(evict_heat=float("nan")),
        dict(budget=1.5),
        dict(interval=2.5),
    ],
)
def test_autoscale_params_validation(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        AutoscaleParams(**kw)


# -- controller primitives ----------------------------------------------------


def _controller(assignment, active=4, pool=4, sizes=None, **kw):
    return AutoscaleController(
        assignment, active, pool, AutoscaleParams(**kw), sizes=sizes
    )


def test_replicate_respects_budget_and_uniqueness():
    ctl = _controller([0, 1, 2, 3], budget=1)
    act = ctl.replicate(0)
    assert act.kind == "replicate" and act.src == 0 and act.dst != 0
    assert ctl.replicate(0) is None  # one replica per bucket
    assert ctl.replicate(1) is None  # budget exhausted
    ctl.check_invariants()


def test_replicate_avoids_hot_disks():
    # Disk 1 holds the hottest bucket; a new replica must not land there
    # even though every disk holds exactly one copy.
    ctl = _controller([0, 1, 2, 3], budget=4)
    ctl.observe([1, 1, 1, 1, 0])
    ctl.heat.roll()
    act = ctl.replicate(0)
    assert act.dst not in (0, 1)
    ctl.check_invariants()


def test_replicate_single_disk_farm_returns_none():
    ctl = _controller([0, 0], active=1, pool=1, budget=4)
    assert ctl.replicate(0) is None


def test_control_step_watermarks_and_dwell():
    ctl = _controller(
        [0, 1, 2, 3], budget=4, alpha=1.0,
        add_heat=1.5, evict_heat=0.5, min_dwell=2,
    )
    ctl.observe([0, 0])
    acts = ctl.control_step()  # score(0) = 2 > 1.5
    assert [a.kind for a in acts] == ["replicate"]
    # cold next tick, but the dwell keeps it pinned
    assert ctl.control_step() == []
    assert 0 in ctl.replicas
    # past the dwell the cold replica goes
    acts = ctl.control_step()
    assert [a.kind for a in acts] == ["evict"] and not ctl.replicas
    ctl.check_invariants()


def test_control_step_caps_actions():
    ctl = _controller(
        list(range(4)) * 3, budget=12, alpha=1.0,
        add_heat=0.5, max_actions=2,
    )
    ctl.observe(range(12))
    assert len(ctl.control_step()) == 2
    ctl.check_invariants()


def test_heat_per_byte_prefers_small_buckets():
    # Equal heat, very different sizes: the small bucket wins the budget.
    ctl = _controller(
        [0, 1, 2, 3], budget=1, alpha=1.0, add_heat=0.1, evict_heat=0.05,
        sizes=[1000.0, 1.0, 1.0, 1.0],
    )
    ctl.observe([0, 1])
    acts = ctl.control_step()
    assert [a.bucket for a in acts] == [1]


def test_set_budget_trims_coldest():
    ctl = _controller([0, 1, 2, 3], budget=4, alpha=1.0)
    for b in range(4):
        ctl.replicate(b)
    ctl.observe([2, 2, 3, 3, 3, 1])
    ctl.heat.roll()
    acts = ctl.set_budget(2)
    assert sorted(a.bucket for a in acts) == [0, 1]  # coldest two evicted
    assert sorted(ctl.replicas) == [2, 3]
    with pytest.raises(ValueError):
        ctl.set_budget(-1)
    ctl.check_invariants()


# -- elastic membership -------------------------------------------------------


def test_join_bounded_movement_and_balance():
    n = 12
    ctl = _controller([b % 2 for b in range(n)], active=2, pool=4)
    acts = ctl.join(2)
    assert ctl.active == 4
    quota = -(-n // 4)
    assert len(acts) <= 2 * quota
    assert all(a.kind == "move" and 2 <= a.dst < 4 for a in acts)
    # the steal balances: no disk above quota
    counts = [ctl.assignment.count(d) for d in range(4)]
    assert max(counts) <= quota
    ctl.check_invariants()


def test_join_promotes_colliding_replica():
    ctl = _controller([0, 0, 0, 1], active=2, pool=3, budget=4)

    # Force the replica of bucket 0 onto the disk the steal will target.
    ctl.replicas[0] = 2
    ctl.born[0] = 0
    ctl.load[2] += 1
    ctl.active = 3
    ctl.active = 2  # (documented: replicas normally live on active disks)
    acts = ctl.join(1)
    promo = [a for a in acts if a.kind == "promote"]
    assert len(promo) == 1 and promo[0].bucket == 0 and promo[0].dst == 2
    assert 0 not in ctl.replicas  # promoted copy is the primary now
    ctl.check_invariants()


def test_join_rejects_overflow_and_bad_expand_fn():
    ctl = _controller([0, 1], active=2, pool=2)
    with pytest.raises(ValueError, match="pool"):
        ctl.join(1)
    ctl = AutoscaleController(
        [0, 1], 2, 4, AutoscaleParams(),
        expand_fn=lambda a, old, new: [0] * (len(a) + 1),
    )
    with pytest.raises(ValueError, match="number of buckets"):
        ctl.join(1)
    # an expand_fn that moves buckets between *old* disks is rejected
    ctl = AutoscaleController(
        [0, 1], 2, 4, AutoscaleParams(),
        expand_fn=lambda a, old, new: [1, 0],
    )
    with pytest.raises(ValueError, match="not a new disk"):
        ctl.join(1)


def test_leave_promotes_replicated_and_moves_stranded():
    ctl = _controller([0, 1, 2, 3], active=4, pool=4, budget=4)
    act = ctl.replicate(3)  # replica of the bucket we are about to strand
    assert act is not None and act.dst < 3
    acts = ctl.leave(1)
    kinds = {a.kind for a in acts}
    assert "promote" in kinds  # the stranded replicated primary was free
    assert ctl.active == 3
    assert all(0 <= d < 3 for d in ctl.assignment)
    with pytest.raises(ValueError, match="drain"):
        ctl.leave(3)  # would leave zero disks
    ctl.check_invariants()


def test_leave_evicts_replicas_on_drained_disks():
    ctl = _controller([0, 0, 1, 1], active=4, pool=4, budget=4)
    # place a replica explicitly on the disk being drained
    ctl.replicas[0] = 3
    ctl.born[0] = 0
    ctl.load[3] += 1
    acts = ctl.leave(1)
    assert [a.kind for a in acts] == ["evict"]
    assert not ctl.replicas
    ctl.check_invariants()


# -- differential: top-k oracle ----------------------------------------------


def _oracle_topk(touch_log, n, alpha, theta, k):
    """Brute-force EWMA ranking over the full touch log."""
    ewma = np.zeros(n)
    for window in touch_log:
        w = np.zeros(n)
        for b in window:
            w[b] += 1.0
        ewma = (1.0 - alpha) * ewma + alpha * w
    hot = [b for b in range(n) if ewma[b] > theta]
    hot.sort(key=lambda b: (-ewma[b], b))
    return set(hot[:k]), ewma


def test_zero_hysteresis_converges_to_hot_set_oracle():
    # Unlimited budget + zero hysteresis (evict == add watermark, no
    # dwell): the replica set is exactly the oracle's above-threshold set.
    n, alpha, theta = 16, 0.5, 0.4
    ctl = _controller(
        [b % 4 for b in range(n)], budget=64, alpha=alpha,
        add_heat=theta, evict_heat=theta, min_dwell=0, max_actions=64,
    )
    rng = np.random.default_rng(9)
    log = []
    for _ in range(30):
        # a skewed touch pattern: low bucket ids are persistently hotter
        window = rng.integers(0, n, size=24) // 2
        log.append(window.tolist())
        ctl.observe(window.tolist())
        ctl.control_step()
        ctl.check_invariants()
    want, ewma = _oracle_topk(log, n, alpha, theta, k=64)
    np.testing.assert_allclose(ctl.heat.ewma, ewma)
    assert set(ctl.replicas) == want


def test_finite_budget_converges_to_topk_after_shift():
    # Finite budget: once the old hot spot decays below the watermark its
    # replicas are evicted, and the freed budget converges onto the new
    # top-k hottest buckets — the brute-force ranking.
    n, alpha, theta = 16, 0.5, 0.4
    ctl = _controller(
        [b % 4 for b in range(n)], budget=3, alpha=alpha,
        add_heat=theta, evict_heat=theta, min_dwell=0, max_actions=64,
    )
    log = []
    for tick in range(30):
        hot = [4, 5, 6, 7] if tick < 10 else [0, 1, 2]
        window = hot * 4
        log.append(window)
        ctl.observe(window)
        ctl.control_step()
        ctl.check_invariants()
    want, ewma = _oracle_topk(log, n, alpha, theta, k=3)
    np.testing.assert_allclose(ctl.heat.ewma, ewma)
    assert set(ctl.replicas) == want == {0, 1, 2}


# -- policy registry ----------------------------------------------------------


def test_registry_lists_policies():
    assert set(AUTOSCALE_POLICIES) == {"null", "static", "heat-replicate"}


def test_make_autoscale_policy_unknown_name_lists_options():
    with pytest.raises(ValueError) as exc:
        make_autoscale_policy("turbo")
    msg = str(exc.value)
    assert "turbo" in msg
    for name in sorted(AUTOSCALE_POLICIES):
        assert name in msg


def test_make_autoscale_policy_type_checks():
    with pytest.raises(TypeError):
        make_autoscale_policy(42)
    p = make_autoscale_policy(AutoscaleParams(policy="static"))
    assert p.name == "static"
    assert make_autoscale_policy("null").name == "null"


def test_engine_params_reject_conflicting_replication(deployment):
    gf, assignment = deployment
    params = ClusterParams(
        autoscale=AutoscaleParams(), replication="chained"
    )
    with pytest.raises(ValueError, match="manages replicas"):
        ParallelGridFile(gf, assignment, 8, params)
    params = ClusterParams(
        autoscale=AutoscaleParams(), replica_policy="least-loaded-alive"
    )
    with pytest.raises(ValueError, match="routing"):
        ParallelGridFile(gf, assignment, 8, params)
    with pytest.raises(ValueError, match="autoscale policy"):
        ParallelGridFile(gf, assignment, 8, ClusterParams(autoscale="nope"))


# -- scale plans and the driver ----------------------------------------------


def test_scale_plan_validation():
    for time in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time"):
            ScalePlan().join(time)
    with pytest.raises(ValueError):
        ScalePlan().join(1.0, disks=0)
    with pytest.raises(ValueError):
        ScalePlan().leave(1.0, disks=0)
    with pytest.raises(ValueError):
        ScalePlan().set_budget(1.0, -2)
    plan = ScalePlan().leave(0.5, disks=4)
    with pytest.raises(ValueError, match="below one disk"):
        plan.capacity_profile(4)
    peak, final = ScalePlan().join(0.1, 2).leave(0.2, 1).capacity_profile(4)
    assert (peak, final) == (6, 5)


def test_driver_rejects_bad_configurations(deployment):
    gf, assignment = deployment
    with pytest.raises(ValueError, match="null policy"):
        AutoscaleCluster(
            gf, assignment, 8,
            ClusterParams(autoscale="null"),
            plan=ScalePlan().join(1.0),
            pool_disks=9,
        )
    with pytest.raises(ValueError, match="peak"):
        AutoscaleCluster(
            gf, assignment, 8,
            plan=ScalePlan().join(1.0, disks=4),
            pool_disks=10,
        )
    with pytest.raises(ValueError, match="beyond the starting farm"):
        AutoscaleCluster(gf, assignment, 4)


def test_driver_rejects_partial_nodes(deployment):
    gf, _ = deployment
    assignment = make_method("minimax").assign(gf, 4, rng=42)
    params = ClusterParams(disks_per_node=2, autoscale=AutoscaleParams())
    with pytest.raises(ValueError, match="disks_per_node"):
        AutoscaleCluster(gf, assignment, 4, params, pool_disks=5)
    with pytest.raises(ValueError, match="whole nodes"):
        AutoscaleCluster(
            gf, assignment, 4, params,
            plan=ScalePlan().join(1.0, disks=1), pool_disks=6,
        )


def test_static_policy_provisions_up_front(deployment):
    gf, assignment = deployment
    queries = square_queries(60, 0.03, *DOMAIN, rng=11)
    params = ClusterParams(
        autoscale=AutoscaleParams(policy="static", budget=5),
        cache_blocks=0,
    )
    rep = AutoscaleCluster(gf, assignment, 8, params).run(queries)
    # bootstrap replicas are free (pre-run) and never churn
    assert rep.peak_replicas == 5
    assert rep.final_replicas == 5
    assert rep.replicas_created == 0 and rep.blocks_copied == 0
    assert rep.perf.availability == 1.0


def test_elastic_join_and_drain(deployment):
    gf, _ = deployment
    assignment = make_method("minimax").assign(gf, 6, rng=42)
    queries = square_queries(300, 0.03, *DOMAIN, rng=11)
    plan = ScalePlan().join(0.5, disks=2).leave(4.0, disks=1)
    params = ClusterParams(
        autoscale=AutoscaleParams(budget=8, interval=4),
        cache_blocks=0, pipeline_depth=8,
    )
    rep = AutoscaleCluster(
        gf, assignment, 6, params, plan=plan, pool_disks=8
    ).run(queries)
    assert (rep.n_disks_start, rep.n_disks_end) == (6, 7)
    assert rep.joins == 1 and rep.leaves == 1
    # join movement stays within the bounded-steal quota
    n = gf.n_buckets
    assert 0 < rep.moves <= 2 * -(-n // 8) + n
    assert rep.perf.availability == 1.0
    # all queries answered correctly despite mid-run membership changes
    base = ParallelGridFile(
        gf, assignment, 6, ClusterParams(cache_blocks=0)
    ).run_queries(queries)
    assert rep.perf.records_returned == base.records_returned


def test_heat_policy_beats_static_on_flash_crowd(deployment):
    """The PR's acceptance bar, at test scale: under a flash crowd the
    adaptive policy's served p99 is strictly below the static placement's
    at the same storage budget."""
    gf, assignment = deployment
    queries = flash_crowd_queries(
        800, 0.01, *DOMAIN,
        start=0.2, duration=0.6, intensity=0.95, width=0.01, rng=7,
    )
    reports = {}
    for policy in ("static", "heat-replicate"):
        params = ClusterParams(
            autoscale=AutoscaleParams(
                policy=policy, budget=8, interval=4, alpha=0.6,
                add_heat=2.0, evict_heat=0.25, min_dwell=4,
            ),
            cache_blocks=0, pipeline_depth=8,
        )
        reports[policy] = AutoscaleCluster(gf, assignment, 8, params).run(queries)
    heat, static = reports["heat-replicate"], reports["static"]
    assert heat.perf.p99_latency < static.perf.p99_latency
    assert heat.perf.mean_latency < static.perf.mean_latency
    assert 0 < heat.replicas_created <= 32
    assert heat.perf.availability == 1.0


def test_online_run_with_autoscale():
    """Write-invalidation coherence: the policy survives splits, merges
    and moves of a live grid file and its controller stays consistent."""
    from repro.parallel import OnlineCluster
    from repro.parallel.online import _OnlineDriver
    from repro.sim import mixed_workload

    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(800, 2))
    gf = GridFile.from_points(pts, [0.0, 0.0], [1.0, 1.0], capacity=10)
    assignment = make_method("minimax").assign(gf, 4, rng=3)
    ops = mixed_workload(400, 0.5, [0.0, 0.0], [1.0, 1.0], ratio=0.05, rng=3)
    params = ClusterParams(
        autoscale=AutoscaleParams(budget=6, interval=4), cache_blocks=0
    )
    cluster = OnlineCluster(gf, assignment, 4, params=params, seed=3)
    driver = _OnlineDriver(
        cluster.pgf, ops, cluster.placement, cluster.monitor, seed=3
    )
    driver.drive()
    rep = driver.online_report()
    assert rep.n_splits > 0  # the structure actually churned
    policy = driver.autoscale
    policy.ctl.check_invariants()
    assert len(policy.ctl.assignment) == gf.n_buckets


def test_null_policy_run_matches_plain_cluster(deployment):
    gf, assignment = deployment
    queries = square_queries(80, 0.03, *DOMAIN, rng=11)
    rep = AutoscaleCluster(
        gf, assignment, 8, ClusterParams(autoscale="null")
    ).run(queries)
    base = ParallelGridFile(gf, assignment, 8, ClusterParams()).run_queries(queries)
    np.testing.assert_array_equal(rep.perf.latencies, base.latencies)
    assert rep.peak_replicas == 0 and rep.blocks_copied == 0
