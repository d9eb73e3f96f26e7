"""Hotspot absorption: cloud-brokered coordination and policy evolution.

Region 0 generates tasks at 12x the base rate for the whole run, saturating
its edge server.  Watch three mechanisms engage:

  1. overflow: the hot edge sheds work to the cloud when its backlog tops
     5 s (autonomy dips),
  2. coordination: at each 30 s epoch the cloud pairs the Overload-labeled
     region with an Underload-labeled neighbor and a slice of arrivals is
     relayed to the partner edge,
  3. evolution: (1+1)-ES mutations of the region's blueprint (serve
     threshold, offload fraction, ...) are kept when the epoch's median
     response time does not regress.
"""
from twinsim import run_showcase
from twinsim.scenario import default_hotspot_scenario

res = run_showcase(default_hotspot_scenario(seed=0))

print("autonomy / coordination per 10 s window:")
print("   t(s)   A(w)   C(w)")
for t, a, c in zip(res.series.window_end_us, res.series.autonomy,
                   res.series.coordination):
    bar = "#" * round(a * 20)
    print(f"  {t // 1_000_000:>5}  {a:5.2f}  {c:5.2f}  {bar}")

print("\ndirectives issued (from -> to, fraction, labels at issue):")
for d in res.directive_log:
    print(f"  t={d.issued_us // 1_000_000:>3}s  {d.from_rsu} -> {d.to_rsu}  "
          f"phi={d.fraction:.2f}  {d.from_labels} -> {d.to_labels}")

hot = [r for r in res.epoch_records if r.rsu_id == 0]
print("\nregion 0 epoch log (median RT, decision, serve threshold):")
for rec in hot:
    med = f"{rec.median_rt_us / 1000:8.1f} ms" if rec.median_rt_us else "     idle"
    print(f"  epoch {rec.epoch:>2}  {med}  {rec.decision:<8} "
          f"theta_L={rec.blueprint.policy.local_serve_threshold:.2f} "
          f"phi={rec.blueprint.policy.offload_fraction:.2f}")

partner = sum(1 for r in res.records if r.tier == "PartnerEdge")
print(f"\ntasks absorbed by partner edges: {partner}")
