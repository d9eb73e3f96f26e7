"""Closed-form checks of the model.  They hold for any seed, so they keep
guarding the queues when a change to a random stream re-pins the digests.
They read the seed sweeps of the ``showcase_runs`` fixture."""
from statistics import mean

from twinsim.kernel import US_PER_S, link_latency
from twinsim.scenario import ScenarioConfig

from conftest import SEEDS

# measured at 0.1-0.2% over seeds 0-9
PK_TOLERANCE = 0.03


def retransmission_delay_us(link) -> float:
    """Mean delay that lost attempts add to a message that gets through:
    one timeout per loss, given that one of ``max_attempts`` succeeds."""
    p, attempts = link.loss_prob, link.max_attempts
    lost = sum(k * p**k * (1 - p) for k in range(attempts))
    return link.retx_timeout_us * lost / (1 - p**attempts)


def cloud_only_mean_rt_us(cfg: ScenarioConfig) -> float:
    """Mean response time of a cloud_only task: every task waits in the
    cloud's FIFO, an M/G/1 queue whose mean wait is Pollaczek-Khinchine's
    lambda E[S^2] / (2 (1 - rho)) (Kleinrock, Queueing Systems Vol. 1, 1975),
    then is served, and crosses v2r and r2c on the way up and back."""
    lam = cfg.n_vehicles * cfg.workload.task_rate_hz
    lo, hi = cfg.workload.cost_range_cu
    cap = cfg.capacity.cloud_cu_s
    service = (lo + hi) / 2 / cap
    service_sq = (lo * lo + lo * hi + hi * hi) / 3 / cap**2
    rho = lam * service
    assert rho < 1
    wait = lam * service_sq / (2 * (1 - rho))
    w, links = cfg.workload, cfg.links
    hops = ((links.v2r, w.request_bytes), (links.r2c, w.request_bytes),
            (links.r2c, w.response_bytes), (links.v2r, w.response_bytes))
    delays = sum(link_latency(link, n) + retransmission_delay_us(link) for link, n in hops)
    return (wait + service) * US_PER_S + delays


def test_cloud_only_response_time_matches_pollaczek_khinchine(showcase_runs):
    predicted = cloud_only_mean_rt_us(ScenarioConfig(mode="cloud_only"))
    measured = mean(showcase_runs["cloud_only"][s]["mean_rt_after_warmup_us"] for s in SEEDS)
    assert abs(measured / predicted - 1) < PK_TOLERANCE, (measured, predicted)
