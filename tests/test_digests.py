"""Pinned artifact digests: short runs of seven scenarios must reproduce these
sha256 values byte for byte.

The determinism criterion only compares two reruns of the same code, so a
change that alters RNG draw order or event order would pass it silently.
These digests were last re-pinned when the fleet's spawn became three bulk
draws and its unread navigation-intent draws went; a change that is meant
to keep behaviour must keep them, and a change to modelled behaviour
updates them and says why in CHANGES.md.
"""
import copy
import hashlib
from pathlib import Path

import pytest

from twinsim.runner import Simulation
from twinsim.scenario import parse_scenario

ARTIFACTS = ("tasks.csv", "indices.csv", "epochs.jsonl")

SCENARIOS = {
    "layered": {"seed": 0, "duration_s": 31.0},
    "cloud_only": {"seed": 1, "duration_s": 31.0, "mode": "cloud_only"},
    "hotspot": {"seed": 2, "duration_s": 35.0,
                "hotspot": {"region": 0, "rate_multiplier": 12,
                            "t_start_s": 0, "t_end_s": 35}},
    # slow on-board compute and a high serve threshold keep tasks local, so
    # queues build and V2V handoff fires
    "v2v_handoff": {"seed": 3, "duration_s": 31.0,
                    "capacity": {"local_cu_s": 10},
                    "policy": {"local_serve_threshold": 10},
                    "workload": {"task_rate_hz": 0.5},
                    "thresholds": {"handoff_gap_s": 0.25}},
    # 5 s epochs: epochs 1-4 mutate each of the four policy parameters once,
    # so epochs.jsonl pins the serialization of mutated blueprints
    "evolution": {"seed": 4, "duration_s": 26, "vehicles_per_rsu": 50,
                  "periods": {"epoch_s": 5}},
}
# the sensing leg: v2v_handoff with 5 s epochs, so blueprints are applied
# within the run.  At 2-5 m/s every region's fused mean speed is below the
# congestion threshold, and each of its 36 label entries reads Congestion;
# this catches the mutants where fuse_labels never adds Congestion,
# localize_policy returns the policy unchanged, or the edge passes
# congestion_active=False
SCENARIOS["congestion"] = {**SCENARIOS["v2v_handoff"], "periods": {"epoch_s": 5},
                           "speed_range_mps": [2, 5]}
# the same at the default speeds, where no label entry reads Congestion;
# this catches a fusion window whose speed sum stays 0 (every region would
# read Congestion and localize its blueprints)
SCENARIOS["localize"] = {**SCENARIOS["v2v_handoff"], "periods": {"epoch_s": 5}}

DIGESTS = {
    "layered": {
        "tasks.csv": "1ff0834fd11c3c6da2ad9ab3318d4fe1da0a96c1befb0ab6a49a3bbd84d3898b",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "a96b54a1f5eab88d68ebe3b0b65ee574bb48be871c86589418770ba9a0e32b0f",
    },
    "cloud_only": {
        "tasks.csv": "9165b764b0e1b2d8f91cdd4844c7247a8f4b91e5d312bf2b6a5bb50ce4f72e59",
        "indices.csv": "3037558c00eed61999bdce3cdbbc5ae8c32bd8cefe55514088b4e98ab10ca277",
        "epochs.jsonl": "4a7a334059210021b8bdc9008a5943f881b86522ef0e727dd1a2e329729e9200",
    },
    "hotspot": {
        "tasks.csv": "dfad4a8c601f17f9ee472e86bfdd7025be31a5ad799136f385046e8efac98d31",
        "indices.csv": "521883067057b680d75adc592aa3d113efeb004b10f3a5491c42fe5259c63456",
        "epochs.jsonl": "3dc877675cc34061ae84d078ee8a4d08be9d8422407a94323ba44516a881ca91",
    },
    "v2v_handoff": {
        "tasks.csv": "a0cdffc526ca770f210dc4b57d0d028722dd85c7880a55faf4b66558269e68cf",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "cac174c4ef3602d93b37c8238b95c1e163ebac3e032c9fa0ae4aab609a7a102b",
    },
    "evolution": {
        "tasks.csv": "5b9087a26dd13fc20281eafd0fdcbb7af41722800b112ffc318aac69de66ce09",
        "indices.csv": "eeaed92c71e10fb202ea792b13f2d399b125278e7e1a9ae593ec32958b163694",
        "epochs.jsonl": "7d14cb2ce729c007a208d4809a4079b42e81a8f34be589cbaeb490574be487e3",
    },
    "congestion": {
        "tasks.csv": "e0de1f984a4c04e8e12e052ebfb7fe8302a109f3ce481c9b0cfa3ffc7c01db27",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "8515f800ca0f6a2b27499b1e4816f7e88329cd0b1bd05253ecb65855c22ef0f2",
    },
    "localize": {
        "tasks.csv": "fa6c17c89c7c6f6b9e04dddd05767fd7d68f9e24ebb583dc62c2a8877136bc9a",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "0647204ab940cabe4ef1d8b7d9be4520a482fb168d5bbcdf486db1d416bb2af7",
    },
}

# final (sent, delivered, dropped) message counters, beacons included
MESSAGES = {
    "layered": (2121105, 2016868, 103035),
    "cloud_only": (2133948, 2029721, 103012),
    "hotspot": (2436024, 2317490, 117312),
    "v2v_handoff": (2134134, 2028454, 104479),
    "evolution": (115719, 110099, 5318),
    "congestion": (2122619, 2017526, 103889),
    "localize": (2134997, 2029314, 104481),
}

# label entries that read Congestion, out of each run's label log
CONGESTION = {"congestion": (36, 36), "localize": (0, 36)}


def run_counting_handoffs(name, outdir):
    """Run scenario ``name``, write its artifacts, and count the V2V
    handoff messages it sent."""
    sim = Simulation(parse_scenario(copy.deepcopy(SCENARIOS[name])))
    handoffs = 0
    send = sim.engine.send

    def counting_send(dst, payload, *args, **kwargs):
        nonlocal handoffs
        handoffs += payload[0] == "handoff"
        return send(dst, payload, *args, **kwargs)

    sim.engine.send = counting_send
    result = sim.run()
    result.write(outdir)
    digests = {a: hashlib.sha256((outdir / a).read_bytes()).hexdigest()
               for a in ARTIFACTS}
    return result, digests, handoffs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_digests(name, tmp_path):
    result, digests, handoffs = run_counting_handoffs(name, tmp_path)
    assert digests == DIGESTS[name]
    m = result.messages
    assert (m.sent, m.delivered, m.dropped) == MESSAGES[name]
    if name == "hotspot":
        assert len(result.directive_log) >= 1
    if name == "v2v_handoff":
        assert handoffs > 0
    if name in CONGESTION:
        labels = [e.labels for e in result.label_log]
        assert (sum("Congestion" in x for x in labels), len(labels)) == CONGESTION[name]
