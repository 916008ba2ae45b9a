"""Byte pins of the seeded samplers.

Each digest is the sha256 of a trajectory dump or a coupling estimate,
recorded before the chains moved to bitmask configurations and memoised
site conditionals; the n = 16 pins (dependent blocks of 13 to 16 vertices)
were recorded before dependent blocks moved to one table per update.  Any
change to the arithmetic, the draw order or the block selection moves a
digest; a faster chain must leave all of them alone.

`python3 tests/test_sampler_digests.py` prints the current digests;
`python3 tests/test_sampler_digests.py --write` re-pins them in this file,
so `git diff` shows which pins moved.
"""

import hashlib
import json
import os
import random
import re
import sys

import pytest

if __name__ == "__main__":  # run from a checkout without installing
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

import _oracles as ora  # noqa: E402
from ferrospin.harness import (  # noqa: E402
    coupling_failure_fraction, coupling_mixing_estimate)
from ferrospin import samplers  # noqa: E402
from ferrospin.model import TwoSpinSystem  # noqa: E402
from ferrospin.samplers import UpdateSchedule, trajectory_csv  # noqa: E402

PATH5 = TwoSpinSystem.from_params(
    5, [0.7, 1.3, 0.9, 1.1, 0.6],
    [(0, 1, 1.2, 1.5), (1, 2, 0.8, 2.0), (2, 3, 1.0, 1.7), (3, 4, 1.4, 1.1)])


def _bipartite12():
    """Seeded n = 12 instance: the path 0-1-...-11 plus even-odd chords."""
    rng = random.Random(1212)
    pairs = {(v, v + 1) for v in range(11)}
    for u in range(0, 12, 2):
        for v in range(1, 12, 2):
            if rng.random() < 0.25:
                pairs.add((min(u, v), max(u, v)))
    edges = ora.random_ferro_params(rng, sorted(pairs))
    lam = [rng.uniform(0.2, 1.5) for _ in range(12)]
    return TwoSpinSystem.from_params(12, lam, edges)


N12 = _bipartite12()


def _dependent16():
    """Seeded sparse n = 16 instance, weakly ferromagnetic (beta * gamma
    just above 1) so that large-block trajectories keep moving."""
    rng = random.Random(1616)
    edges = []
    for u, v in ora.random_connected_graph(rng, 16, p=0.15):
        beta = rng.uniform(0.7, 1.0)
        edges.append((u, v, beta,
                      rng.uniform(1.0 / beta + 0.02, 1.0 / beta + 0.3)))
    lam = [rng.uniform(0.5, 1.5) for _ in range(16)]
    return TwoSpinSystem.from_params(16, lam, edges)


N16 = _dependent16()
# dependent heat-bath blocks of 13, 14, 15 and 16 vertices
LARGE_BLOCKS = (tuple(range(13)), tuple(range(2, 16)),
                tuple(v for v in range(16) if v != 7), tuple(range(16)))


def _schedules(n, parts, scan_blocks, dependent_blocks, censor):
    singletons = tuple((v,) for v in range(n))
    return {
        "glauber": (UpdateSchedule(kind="single-site-glauber"), 300),
        "heat-bath": (UpdateSchedule(kind="heat-bath-block",
                                     blocks=singletons), 300),
        "systematic-scan": (UpdateSchedule(kind="systematic-scan-block",
                                           blocks=scan_blocks), 300),
        "alternating-scan": (UpdateSchedule(kind="alternating-scan",
                                            blocks=parts), 200),
        "field": (UpdateSchedule(kind="field-dynamics", theta=0.4), 40),
        "heat-bath+censor": (UpdateSchedule(kind="heat-bath-block",
                                            blocks=dependent_blocks,
                                            censor=frozenset(censor)), 300),
        "heat-bath-dependent": (UpdateSchedule(kind="heat-bath-block",
                                               blocks=dependent_blocks), 300),
    }


SYSTEMS = {
    "path5": (PATH5, _schedules(
        5, ((0, 2, 4), (1, 3)), ((0, 1), (2,), (3, 4)),
        ((0, 1, 2), (2, 3, 4), (0, 4)), {0, 2, 3})),
    "n12": (N12, _schedules(
        12, (tuple(range(0, 12, 2)), tuple(range(1, 12, 2))),
        ((0, 1, 2), (3,), (4, 5, 6, 7), (8, 10), (9, 11)),
        ((0, 1, 2, 3, 4, 5), (4, 5, 6, 7, 8, 9, 10), (0, 1, 9, 10, 11)),
        {0, 1, 3, 4, 6, 7, 9, 10})),
    "n16": (N16, {
        "heat-bath-large": (UpdateSchedule(kind="heat-bath-block",
                                           blocks=LARGE_BLOCKS), 25),
        "field-0.8": (UpdateSchedule(kind="field-dynamics", theta=0.8), 20),
    }),
}

# pins begin
TRAJECTORY_DIGESTS = {
    "n12:alternating-scan":
        "37e8c024115cd401fbfa67d069d97a719a304df93e9f14fa34399782d4882b52",
    "n12:field":
        "c25b05d0b660a049a9acbe182b61986ae3ba2211c759f1b704f2b0250cff5b56",
    "n12:glauber":
        "2fef2e266eeab184571f70044004b5de59640f2f21b3530afd0e7ca2b9e9f9cf",
    "n12:heat-bath":
        "291b750c173a08df8e1851e4eb871e70ce6c77bf897959ecfa1d0cc061276c55",
    "n12:heat-bath+censor":
        "7a2352364d5dd6fd86f2a0f7a07e929f653db163d86ce5fd4b20e3aa60843d47",
    "n12:heat-bath-dependent":
        "c9d78898b1dd58092f41c59f06ad883849918d5f47b3e22fe2e86e58c70465ac",
    "n12:systematic-scan":
        "28c34af706b1a436302d153040bad622c09c09f1109a063c181e3a5fe38957ac",
    "n16:field-0.8":
        "3165e324441ca9ac7dfb92ef416a916e02d756a92788ad9557c63a786dad5d3e",
    "n16:heat-bath-large":
        "daa53c4ca5ba4a9a795ce5e1c4ec6dc5955f7f6ff77af7a5cdea929e59a4fa36",
    "path5:alternating-scan":
        "17feb137180b38e9eacbdb5fd89ff0970b5894c22cb4e37425225ebb38cf74ca",
    "path5:field":
        "4ab266fe5824047cd5c1440d1b3db068619b054e38497c54135320fd341311ac",
    "path5:glauber":
        "a898c36b43a515da005736e7647d395fcf97e9a3419e1ac5f223ac0185917b66",
    "path5:heat-bath":
        "e5b131257b719bfc3c804cdd1ba604c0382c1255b2be4b537a2ef3ebde712cd2",
    "path5:heat-bath+censor":
        "f4803990adaf7854d9ef187c463258cbaa99e231802e1174c22baa5a9dc1fec1",
    "path5:heat-bath-dependent":
        "22af981872869b52254d1586cea61a7823623f68e9bfcf1f0b692f14c723de2c",
    "path5:systematic-scan":
        "bee595695e51d7dcb268f11766356e87719c8a6d9984d771124ef1aba7401115",
}
ESTIMATE_DIGESTS = {
    0:
        "068d5ea1af369289456b5c6f89744a8a2b1ee580cb909b715f26f1813ec9938b",
    1:
        "a4f072471120707c938b5a1ee6c5e7874f9ee6a4ebbf998232c4e69136548fef",
    2:
        "3769f0ef33222127b890cabded63105ce382e087b41a7cb8c3e9d273e9da849f",
}
# pins end


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_bytes_are_pinned(case):
    assert _sha(_trajectory_text(case)) == TRAJECTORY_DIGESTS[case]


def _trajectory_text(case: str) -> str:
    name, kind = case.split(":")
    system, schedules = SYSTEMS[name]
    schedule, steps = schedules[kind]
    return "".join(trajectory_csv(system, schedule, steps, seed)
                   for seed in (0, 7))


def _estimate_text(k: int) -> str:
    rng = random.Random(4200 + k)
    system = TwoSpinSystem.from_params(*ora.random_instance(rng, 5 + k))
    blocks = [tuple(sorted(rng.sample(range(5 + k), 3))) for _ in range(3)]
    covered = set().union(*blocks)
    blocks += [(v,) for v in range(5 + k) if v not in covered]
    parts = [repr(coupling_mixing_estimate(system, schedule, trials=80,
                                           seed=31 * k, cap=cap))
             for schedule in (UpdateSchedule(kind="single-site-glauber"),
                              UpdateSchedule(kind="heat-bath-block",
                                             blocks=tuple(blocks)))
             for cap in (8, 10 ** 6)]
    parts += [repr(coupling_failure_fraction(
        system, UpdateSchedule(kind="single-site-glauber"), t, 30, seed=k))
        for t in (4, 12, 30)]
    return "\n".join(parts)


@pytest.mark.parametrize("k", range(3))
def test_coupling_estimates_are_pinned(k):
    assert _sha(_estimate_text(k)) == ESTIMATE_DIGESTS[k]


@pytest.mark.parametrize("draw", [1, 40])
def test_draw_sizes_never_move_a_pin(monkeypatch, draw):
    # a step-major draw of one step or a few, lockstep refills of four
    # steps or fewer, and lockstep batches of three seeds
    monkeypatch.setattr(samplers, "_DRAW_UNIFORMS", draw)
    monkeypatch.setattr(samplers, "_LOCKSTEP_ROWS", 3)
    for case, digest in TRAJECTORY_DIGESTS.items():
        assert _sha(_trajectory_text(case)) == digest, case
    for k, digest in ESTIMATE_DIGESTS.items():
        assert _sha(_estimate_text(k)) == digest, k


def _pins_block(trajectories, estimates) -> str:
    def rows(digests):
        return "".join(f"    {json.dumps(k)}:\n        \"{v}\",\n"
                       for k, v in sorted(digests.items()))
    return (f"# pins begin\nTRAJECTORY_DIGESTS = {{\n{rows(trajectories)}}}\n"
            f"ESTIMATE_DIGESTS = {{\n{rows(estimates)}}}\n# pins end")


if __name__ == "__main__":
    cases = [f"{name}:{kind}" for name, (_, schedules) in SYSTEMS.items()
             for kind in schedules]
    block = _pins_block({c: _sha(_trajectory_text(c)) for c in cases},
                        {k: _sha(_estimate_text(k)) for k in ESTIMATE_DIGESTS})
    if sys.argv[1:] == ["--write"]:
        with open(__file__) as fh:
            source = fh.read()
        with open(__file__, "w") as fh:
            fh.write(re.sub(r"# pins begin\n.*?# pins end", lambda _: block,
                            source, count=1, flags=re.S))
    else:
        print(block)
