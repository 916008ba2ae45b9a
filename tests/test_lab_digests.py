"""Byte pins of the stored walk-tree lab: the ratio recursion on stored
trees, the universal pinning with both dominance slacks, and the decay
factor.

Each digest is the sha256 of the reprs of results on seeded inputs,
recorded before the walk-tree rules were each written once (spin pins as
ratio pins, fields in log space, the universal pinning once per tree, the
decay factor's own product).  A rewrite of those rules must leave every
float bit alone.  The pruned route (`prune_pinned_leaves`) is not pinned
here: its fields no longer pass through exp and log, which moves last bits.

`python3 tests/test_lab_digests.py` prints the current digests;
`python3 tests/test_lab_digests.py --write` re-pins them in this file, so
`git diff` shows which pins moved.
"""

import hashlib
import math
import os
import random
import re
import sys

import numpy as np
import pytest

if __name__ == "__main__":  # run from a checkout without installing
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

import _oracles as ora  # noqa: E402
from ferrospin import constants  # noqa: E402
from test_acceptance import _realize_shape, _tree_shapes  # noqa: E402
from ferrospin.model import (  # noqa: E402
    ParamClass, Pinning, TwoSpinSystem, lambda0)
from ferrospin.regions import (  # noqa: E402
    is_good_tree_boundary, monotone_potential_slack, ratio_dominance_slack,
    universal_pinning)
from ferrospin.sawtree import (  # noqa: E402
    build_saw_tree, decay_factor, derive_potential, evaluate_ratios,
    pin_saw_tree)
from ferrospin.errors import InputError  # noqa: E402


def _ratios_text():
    """320 stored trees, n 2-8, random boundaries: ratio pins from {0, inf,
    finite}, spin pins through `pin_saw_tree` on every other tree (a ratio
    pin wins over a spin pin), and fields on some nodes."""
    rng = random.Random(2525)
    lines = []
    for trial in range(320):
        n = rng.randint(2, 8)
        system = TwoSpinSystem.from_params(
            *ora.random_instance(rng, n, p=rng.uniform(0, 0.6)))
        root = rng.randrange(n)
        boundary = {v for v in range(n) if v != root and rng.random() < 0.3}
        tree = build_saw_tree(system, root, boundary)
        ratio_pin = {u: rng.choice([0.0, math.inf, rng.uniform(0.01, 20.0)])
                     for u in range(1, len(tree)) if rng.random() < 0.15}
        fields = {u: rng.uniform(0.01, 3.0) for u in range(len(tree))
                  if rng.random() < 0.2}
        if trial % 2:
            ratio_pin = pin_saw_tree(tree, Pinning(
                {v: rng.randint(0, 1) for v in boundary})) | ratio_pin
        got = evaluate_ratios(tree, system, ratio_pin,
                              {u: math.log(f) for u, f in fields.items()})
        lines.append(repr(sorted(got.items())))
    return "\n".join(lines)


def _gate_09_family():
    """The tree shapes of gate 09: every branching shape up to six leaves,
    three wide stars, seven two-level trees and one of depth three."""
    family = []
    for leaves in range(2, 7):
        family.extend(_tree_shapes(leaves))
    for wide in (((),) * 8, ((),) * 10, ((),) * 12):
        family.append(wide)
    for a, b in [(2, 4), (4, 2), (2, 5), (5, 2), (3, 3), (2, 6), (3, 4)]:
        family.append(tuple(sorted((((),) * b,) * a)))
    family.append(tuple((tuple(((((),) * 3),) * 2),) * 2))
    return family


DOMINANCE_CLASS = ParamClass(0.9, 2.5, 1.5 + 1e-9)


def _dominance_cases():
    """Per gate-09 tree: the tree, its system, its boundary copy leaves, the
    universal pinning, the number of good boundaries and three seeded good
    boundaries, a row of 0/1 spins over the leaves each."""
    lam = 0.9 * lambda0(DOMINANCE_CLASS)
    rng = random.Random(909)
    for shape in _gate_09_family():
        system, leaves = _realize_shape(shape, 0.8, (2.5, 2.63, 2.71, 2.8),
                                        lam)
        tree = build_saw_tree(system, 0, frozenset(leaves))
        lam_nodes = [u for u in range(len(tree))
                     if tree.boundary_copy[u] and tree.is_leaf(u)]
        sigma_star = universal_pinning(tree, system, 9, 21)
        good = []
        for mask in range(2 ** len(lam_nodes)):
            spins = {u: (mask >> i) & 1 for i, u in enumerate(lam_nodes)}
            if is_good_tree_boundary(tree, spins, d2=9, n=21):
                good.append(spins)
        sample = np.array([[spins[u] for u in lam_nodes] for spins
                           in rng.sample(good, min(3, len(good)))])
        yield tree, system, lam_nodes, sigma_star, len(good), sample


def _dominance_text():
    """Per gate-09 tree: the universal pinning, the number of good
    boundaries, and both slacks at every boundary leaf of three seeded good
    boundaries, every level and both end values."""
    lines = []
    for tree, system, lam_nodes, sigma_star, count, sample in (
            _dominance_cases()):
        lines.append(repr((sorted(sigma_star.items()), count)))
        mix = [ratio_dominance_slack(tree, system, sample, sigma_star, w)
               for w in lam_nodes]
        pot = [monotone_potential_slack(tree, system, DOMINANCE_CLASS, w,
                                        sample, sigma_star)
               for w in lam_nodes]
        for b in range(len(sample)):
            # per leaf w: k = 1, ..., depth of w, each at c = 0, inf
            for w, m, p in zip(lam_nodes, mix, pot):
                lines.append(repr((w, m[b].ravel().tolist(), p[b].item())))
    return "\n".join(lines)


def _decay_text():
    """The decay factor at 1,200 seeded points of three parameter classes,
    arity 0 to 6, with the input error of a recursion value that leaves
    [0, lambda)."""
    rng = random.Random(4242)
    classes = [ParamClass(1.0, 4.0, 1.0), ParamClass(1.0, 1.2, 6.0),
               ParamClass(0.9, 2.5, 1.5)]
    pots = [derive_potential(pc) for pc in classes]
    lines = []
    for trial in range(1200):
        pc, pp = classes[trial % 3], pots[trial % 3]
        lam = pc.lambda_bound
        d = rng.randint(0, 6)
        edges = []
        for _ in range(d):
            b = rng.uniform(0.3, pc.beta)
            edges.append((b, rng.uniform(pc.gamma, pc.beta * pc.gamma / b)))
        lam_u = rng.uniform(1e-4, 2.0 * lam)
        x = [rng.uniform(lam * 1e-5, lam * (1 - 1e-5)) for _ in range(d)]
        try:
            lines.append(repr(decay_factor(x, lam_u, edges, pp, lam)))
        except InputError as exc:
            lines.append(f"InputError {exc}")
    return "\n".join(lines)


TEXTS = {
    "lab:ratios": _ratios_text,
    "lab:dominance": _dominance_text,
    "lab:decay": _decay_text,
}

# pins begin
DIGESTS = {
    "lab:decay":
        "a0cde33789370431430b1e62cb820927b7cb776c72f2615e6bcc337d529eb835",
    "lab:dominance":
        "d4c25cfba0b2053308a0f11b5369465a2f4f80a66b2f6aa888a5772e088a2820",
    "lab:ratios":
        "05898a70df245cb4a0b1e04f3bca047d0f87718dd1ee060b675092e93be8f660",
}
# pins end


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TEXTS))
def test_lab_results_are_pinned(case):
    assert _sha(TEXTS[case]()) == DIGESTS[case]


def test_the_lab_cases_reach_their_branches():
    ratios = _ratios_text()
    assert "inf" in ratios and " 0.0)" in ratios
    decay = _decay_text().splitlines()
    assert sum(line.startswith("InputError") for line in decay) >= 10
    assert sum(not line.startswith("InputError") for line in decay) >= 1000
    # the wide stars reach the counting branch of the universal pinning
    pinnings = [line for line in _dominance_text().splitlines()
                if line.startswith("([")]
    assert len(pinnings) == 64
    assert any(", 0.0)" in line for line in pinnings)


def test_dominance_slacks_match_the_linear_reference():
    # the sampled boundaries' slacks, rebuilt from the oracle's linear
    # recursion on each mixture pinning, to REL_TOL of the largest ratio
    def ratios(tree, system, ratio, sigma_star, w, k, c):
        # sigma_star strictly above level k, the boundary below, w <- c
        return ora.evaluate_ratios(tree, system, {
            u: sigma_star[u] if tree.depth[u] < k else x
            for u, x in ratio.items()} | {w: c})

    checked = 0
    for tree, system, lam_nodes, sigma_star, _, sample in _dominance_cases():
        inner = [u for u in range(len(tree)) if not tree.is_leaf(u)]
        for w in lam_nodes:
            mix = ratio_dominance_slack(tree, system, sample, sigma_star, w)
            pot = monotone_potential_slack(tree, system, DOMINANCE_CLASS, w,
                                           sample, sigma_star)
            for spins, m, p in zip(sample.tolist(), mix.tolist(),
                                   pot.tolist()):
                ratio = {u: math.inf if s == 0 else 0.0
                         for u, s in zip(lam_nodes, spins)}
                r = {(k, c): ratios(tree, system, ratio, sigma_star, w, k, c)
                     for k in range(tree.depth[w] + 1)
                     for c in (0.0, math.inf)}
                scale = max(r[key][u] for key in r for u in inner)
                want = [min(r[k, c][u] - r[0, c][u] for u in inner)
                        for k in range(1, tree.depth[w] + 1)
                        for c in (0.0, math.inf)]
                assert sum(m, []) == pytest.approx(
                    want, abs=constants.REL_TOL * scale)
                dw = tree.depth[w]
                want = (abs(r[dw, math.inf][0] - r[dw, 0.0][0])
                        - abs(r[0, math.inf][0] - r[0, 0.0][0]))
                assert p == pytest.approx(want, abs=constants.REL_TOL * scale)
                checked += 1
    assert checked > 300


def _pins_block(digests) -> str:
    rows = "".join(f'    "{k}":\n        "{v}",\n' for k, v in sorted(digests.items()))
    return f"# pins begin\nDIGESTS = {{\n{rows}}}\n# pins end"


if __name__ == "__main__":
    current = {case: _sha(make()) for case, make in TEXTS.items()}
    block = _pins_block(current)
    if sys.argv[1:] == ["--write"]:
        with open(__file__) as fh:
            source = fh.read()
        with open(__file__, "w") as fh:
            fh.write(re.sub(r"# pins begin\n.*?# pins end", lambda _: block,
                            source, count=1, flags=re.S))
    else:
        print(block)
