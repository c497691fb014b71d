"""Draw-identity of the simulator: pinned digests of everything it emits.

The published generation is a pure function of config and code, so a
speed-up of ``repro.data.synthetic`` must consume the generator in the
same order and produce the same values.  Each digest covers the
universe arrays, the user interests, every session of every simulated
day, and ``rng.bit_generator.state`` after ``simulate_days``; the
pinned values were computed before the simulator's per-draw overhead
was removed.

Float arrays (popularity, prices, angles, interests) are hashed at
float32 precision: numpy's distributions compute them through the
platform's ``exp``/``log``, whose last-ulp rounding may vary between
builds.  The draws themselves stay pinned exactly, by the generator
state and the integer outputs.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.data import SimulatorConfig, SponsoredSearchSimulator

#: the tiny.json simulator (examples/configs/tiny.json) and the shipped
#: default, each simulated for ``data.days=2``
_TINY = dict(num_queries=220, num_items=320, num_ads=90, num_users=160,
             tree_depth=3, tree_branching=2, seed=11)
_DEFAULT = dict(seed=7)

GOLDEN = {
    "tiny": "3e3007b6f7c435806d715e6bf8f125f1a0cde725b93d307f99eadfe07274d903",
    "default": "3a39fb5c7ad9f933aa66abf7c4f7f241f21e54f97506fe3c8a1144c7d15a5639",
}


def _update_array(digest, name: str, array) -> None:
    array = np.ascontiguousarray(array)
    if array.dtype.kind == "f":
        array = array.astype(np.float32)
    digest.update(("%s|%s|%s|" % (name, array.dtype.str, array.shape))
                  .encode())
    digest.update(array.tobytes())


def simulator_digest(overrides: dict, days: int = 2) -> str:
    sim = SponsoredSearchSimulator(SimulatorConfig(**overrides))
    logs = sim.simulate_days(days)
    digest = hashlib.sha256()
    universe = sim.universe
    digest.update(b"vocab=%d" % universe.vocab_size)
    for part in ("queries", "items", "ads"):
        catalog = getattr(universe, part)
        for field in dataclasses.fields(catalog):
            _update_array(digest, "%s.%s" % (part, field.name),
                          getattr(catalog, field.name))
    _update_array(digest, "user_interests", sim._user_interests)
    for log in logs:
        digest.update(b"day=%d sessions=%d" % (log.day, len(log)))
        for session in log:
            clicks = " ".join("%s:%d" % (ref.node_type.value, ref.index)
                              for ref in session.clicks)
            digest.update(("s %d %d %s|" % (session.user, session.query,
                                            clicks)).encode())
    digest.update(json.dumps(sim.rng.bit_generator.state,
                             sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("size,overrides",
                         [("tiny", _TINY), ("default", _DEFAULT)])
def test_simulation_is_draw_identical(size, overrides):
    assert simulator_digest(overrides) == GOLDEN[size]


def test_digest_sees_a_single_changed_draw():
    base = simulator_digest(_TINY, days=1)
    assert simulator_digest(dict(_TINY, seed=12), days=1) != base
    assert simulator_digest(_TINY, days=2) != base
