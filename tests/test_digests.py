"""Pinned artifact digests: short runs of five scenarios must reproduce these
sha256 values byte for byte.

The determinism criterion only compares two reruns of the same code, so a
change that alters RNG draw order or event order would pass it silently.
These digests were computed before the report path was batched; a change
that is meant to keep behaviour must keep them, and a change to modelled
behaviour updates them and says why in CHANGES.md.
"""
import copy
import hashlib

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

DIGESTS = {
    "layered": {
        "tasks.csv": "e66ce3bbb7d9ae07cfefd4746bbf02ff10b6e0b25db6b0e6cfd1a2e44bd84f2b",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "307d00f3dd08043b53e6228ce0aa9b49ee0941e0b4209a78481c6c2ee1327b6b",
    },
    "cloud_only": {
        "tasks.csv": "c1840becbe7d60b125f5d9ef0a4071960858ac4c29604f5c08a0561986e93eaf",
        "indices.csv": "3037558c00eed61999bdce3cdbbc5ae8c32bd8cefe55514088b4e98ab10ca277",
        "epochs.jsonl": "16f3b26b8eeba29a1af4f4d7257083bb484b1aab9dfdae23a908761fbd5b2ba1",
    },
    "hotspot": {
        "tasks.csv": "ef36ebed20345d234db3e10747715200dd942a684be80b62ec60ea469146ae1c",
        "indices.csv": "5bdfe4c3259ffee2e8543cc617bfbf535ad6a9d5b94272a9e4e158c7d9d04f16",
        "epochs.jsonl": "b525f2885b03c9aa09e52fb1aa073dd5b62cdbe01bf63eaef7acd511670703e3",
    },
    "v2v_handoff": {
        "tasks.csv": "e66b575321dfc76a10d76a8282c4575f146dd12e943ce618b7102fb831ae1076",
        "indices.csv": "a0edd25f4b171403abb02eb2eadc641bcdfac71285428bba6a09d2724c1030da",
        "epochs.jsonl": "e47e74c022047c419d0f19ceeb2d58f0e1b99ef5e07ff2dfd288dab2c8f52da1",
    },
    "evolution": {
        "tasks.csv": "46b68d049475e964e1ebebe6ef2a4cd3fa020f09881642a3b4643f10f502e8cc",
        "indices.csv": "eeaed92c71e10fb202ea792b13f2d399b125278e7e1a9ae593ec32958b163694",
        "epochs.jsonl": "46256622bc505c3d90936a798c4f88996f2ad121ace06186da9b50bbd2b60573",
    },
}

# final (sent, delivered, dropped) message counters, beacons included
MESSAGES = {
    "layered": (2117186, 2013124, 102860),
    "cloud_only": (2141486, 2036845, 103423),
    "hotspot": (2417065, 2299326, 116525),
    "v2v_handoff": (2129332, 2023891, 104237),
    "evolution": (117052, 111368, 5383),
}


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
