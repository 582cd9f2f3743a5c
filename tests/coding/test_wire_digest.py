"""Every wire bit of a small seeded run, pinned by one SHA-256.

The digests were recorded with the bit-serial coder (``bitserial.py``
in this directory), so a coder change that moves a single wire bit of a
single annotation fails here even when every round trip still decodes.
Both engines must give the same digest: they deliver the same packets
with the same per-hop attempts.
"""

import hashlib

import pytest

from repro.core.annotation import AnnotationCodec
from repro.core.config import DophyConfig
from repro.core.dophy import DophySystem
from repro.workloads import dynamic_rgg_scenario

#: name -> (config, annotations serialized, their total bits, SHA-256).
CASES = {
    # Explicit paths, exact escapes (K=3 under max_retries=5), two link
    # classes and five model updates.
    "explicit_exact_classes": (
        DophyConfig(model_update_period=30.0, link_classes=2),
        1448,
        31313,
        "3e014d7186b7219b1a53d712d47ec65846984ff403b0f6e211ffd72e5b2d295f",
    ),
    # Lossy dissemination with a two-epoch window: stragglers encode
    # against archived epochs, and 185 of their packets fail to decode.
    "stale_encoders": (
        DophyConfig(
            model_update_period=20.0,
            dissemination_loss=0.5,
            dissemination_retries=0,
            epoch_history=2,
            aggregation_threshold=2,
        ),
        1448,
        29804,
        "aa753d33b10bdd39dda231ca503f322fbe8819cf33530cc08009dd1f30db2cd4",
    ),
    # Rank-coded paths in the arithmetic stream, censored escapes.
    "compressed_censored": (
        DophyConfig(
            model_update_period=30.0,
            path_encoding="compressed",
            escape_mode="censored",
        ),
        1448,
        20577,
        "d2ce1c575ed103800f3ede90d6a1d33470d33270308a6f566b0b888bc70cbab5",
    ),
}


@pytest.mark.parametrize("engine", ["event", "array"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_serialized_annotations_match_the_recorded_digest(monkeypatch, name, engine):
    config, count, total_bits, digest = CASES[name]
    serialized = []
    real = AnnotationCodec.serialize

    def capture(self, annotation):
        out = real(self, annotation)
        serialized.append(out)
        return out

    monkeypatch.setattr(AnnotationCodec, "serialize", capture)
    scenario = dynamic_rgg_scenario(
        30, churn_noise=0.4, duration=150.0, traffic_period=3.0, max_retries=5
    ).with_config(engine=engine)
    scenario.make_simulation(7, observers=[DophySystem(config)]).run()

    h = hashlib.sha256()
    for data, bits in serialized:
        h.update(bits.to_bytes(4, "big"))
        h.update(data)
    assert len(serialized) == count
    assert sum(bits for _, bits in serialized) == total_bits
    assert h.hexdigest() == digest
