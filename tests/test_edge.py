import pytest

from twinsim.edge import (EdgeServer, LocalPolicy, Member, ThinningCounter,
                          assign_roles, fuse_labels, largest_remainder_seats,
                          localize_policy, ols_slope)

US = 1_000_000


def test_largest_remainder_oracle():
    # exact seats (2.5, 1.5, 1.0) -> floors (2,1,1), remainder tie to the
    # first-listed role
    assert largest_remainder_seats((0.5, 0.3, 0.2), 5) == (3, 1, 1)
    assert largest_remainder_seats((0.4, 0.4, 0.2), 2) == (1, 1, 0)
    assert largest_remainder_seats((1.0, 0.0, 0.0), 7) == (7, 0, 0)


def test_largest_remainder_rejects_bad_quotas():
    with pytest.raises(ValueError):
        largest_remainder_seats((0.5, 0.2, 0.2), 5)


def test_assign_roles_capability_sort():
    members = {i: Member(i, joined_at_us=i * US) for i in range(5)}
    cq = {0: 0.1, 1: 0.9, 2: 0.5, 3: 0.8, 4: 0.2}
    idle = {0: 40.0, 1: 5.0, 2: 30.0, 3: 10.0, 4: 50.0}
    # quotas (0.4, 0.4, 0.2) over 5 -> 2 acquisition, 2 processing, 1 coordination
    roles = assign_roles(members, (0.4, 0.4, 0.2), cq, idle)
    assert [d for d, r in roles.items() if r == "acquisition"] == [1, 3]
    # remaining pool {0,2,4}: best idle compute 4 then 0
    assert sorted(d for d, r in roles.items() if r == "processing") == [0, 4]
    assert [d for d, r in roles.items() if r == "coordination"] == [2]
    assert members[2].role == "coordination"


def test_assign_roles_empty():
    assert assign_roles({}, (0.4, 0.4, 0.2), {}, {}) == {}


def test_fuse_labels_cases():
    assert fuse_labels(10.0, 0.6, 6.0) == ("Normal",)
    assert fuse_labels(5.0, 0.6, 6.0) == ("Congestion",)
    assert fuse_labels(10.0, 0.9, 6.0) == ("Overload",)
    assert fuse_labels(10.0, 0.3, 6.0) == ("Underload",)
    assert fuse_labels(5.0, 0.9, 6.0) == ("Congestion", "Overload")
    # boundary: util exactly at the thresholds is neither over- nor underload
    assert fuse_labels(10.0, 0.85, 6.0) == ("Normal",)
    assert fuse_labels(10.0, 0.5, 6.0) == ("Normal",)


def test_ols_slope_oracle():
    assert ols_slope([0.0, 1.0, 0.0, 1.0]) == pytest.approx(0.2)
    assert ols_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert ols_slope([5.0]) == 0.0
    assert ols_slope([]) == 0.0


def base_params(**overrides):
    p = {
        "local_serve_threshold": 2.0,
        "offload_fraction": 0.2,
        "congestion_speed_threshold": 6.0,
        "role_quotas": (0.5, 0.3, 0.2),
    }
    p.update(overrides)
    return p


def test_localize_policy_congestion_boost_oracle():
    policy = localize_policy(base_params(), 3, "0:3", congestion_active=True)
    assert policy.role_quotas == pytest.approx((0.6, 0.3, 0.1))
    assert policy.version == 3
    assert policy.source_blueprint == "0:3"


def test_localize_policy_boost_respects_coordination_floor():
    policy = localize_policy(base_params(role_quotas=(0.5, 0.42, 0.08)), 1, "0:1", True)
    # only 0.03 available above the 0.05 floor
    assert policy.role_quotas == pytest.approx((0.53, 0.42, 0.05))


def test_localize_policy_clamps_out_of_range():
    policy = localize_policy(
        base_params(local_serve_threshold=99.0, offload_fraction=-0.5),
        1, "0:1", congestion_active=False)
    assert policy.local_serve_threshold == 10.0
    assert policy.offload_fraction == 0.0


def test_localize_policy_rejects_malformed():
    with pytest.raises(ValueError):
        localize_policy({"local_serve_threshold": 2.0}, 1, "0:1", False)
    with pytest.raises(ValueError):
        localize_policy(base_params(role_quotas=(0.9, 0.3, 0.2)), 1, "0:1", False)


def test_thinning_counter_exactness():
    c = ThinningCounter()
    picks = [c.take(0.3) for _ in range(10)]
    assert sum(picks) == 3
    # deterministic pattern: fires when the accumulator crosses 1
    assert picks == [False, False, False, True, False, False, True,
                     False, False, True]


def test_thinning_counter_edge_fractions():
    c = ThinningCounter()
    assert all(c.take(1.0) for _ in range(5))
    c = ThinningCounter()
    assert not any(c.take(0.0) for _ in range(5))


def test_edge_server_fifo_and_backlog():
    server = EdgeServer(1000.0)
    assert server.backlog_s(0) == 0.0
    done1 = server.enqueue(0, 500.0)      # 500 ms service
    assert done1 == 500_000
    done2 = server.enqueue(100_000, 250.0)  # queues behind the first
    assert done2 == 750_000
    assert server.backlog_s(100_000) == pytest.approx(0.65)
    # after drain
    assert server.backlog_s(800_000) == 0.0


def test_local_policy_is_frozen():
    policy = LocalPolicy(2.0, 0.2, 6.0, (0.4, 0.4, 0.2))
    with pytest.raises(AttributeError):
        policy.offload_fraction = 0.5
