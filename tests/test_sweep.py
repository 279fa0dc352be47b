"""The sweep's per-instance checks, on the path where a datum is invalid."""

import galmod.sweep as sweep
from galmod.synth import SynthParams, synthesize


def test_invalid_datum_is_one_roundtrip_failure(monkeypatch):
    def broken(params):
        d = synthesize(params)
        d.levels[0].eps[:, :] = 0
        d._cache.clear()
        return d

    monkeypatch.setattr(sweep, "synthesize", broken)
    result = sweep.SweepResult()
    sweep.run_instance(SynthParams(p=3, n=1, m=0, e=(1, 1)), result)
    assert result.failures == 1
    [message] = result.criterion_failures["roundtrip"]
    assert "invalid datum: " in message
    assert "level 0: kernel(eps) != <a_class>" in message
