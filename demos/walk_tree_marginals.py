"""
Walk-tree marginals against direct enumeration
==============================================

A vertex marginal of a ferromagnetic two-spin system can be read off a
self-avoiding-walk tree rooted at that vertex: the tree recursion on
0/1-spin ratios reproduces the Gibbs marginal exactly, cycles and all.
This script builds a 5-cycle with a chord, computes the marginal both
ways, then pins two spins and does it again.
"""

from ferrospin import (
    Pinning,
    TwoSpinSystem,
    conditional_marginal,
    gibbs_distribution,
    saw_marginal,
)

# a 5-cycle with one chord: the chord creates two short cycles,
# so the walk tree needs cycle-closing leaves to stay exact
edges = [
    (0, 1, 1.0, 2.0),
    (1, 2, 0.9, 2.5),
    (2, 3, 1.0, 3.0),
    (3, 4, 0.8, 2.2),
    (0, 4, 1.0, 1.8),
    (1, 3, 0.95, 2.7),
]
lam = [0.7, 0.4, 0.9, 0.5, 0.6]
system = TwoSpinSystem.from_params(5, lam, edges)

print(f"walk tree rooted at 0: {saw_marginal(system, 0).tree_nodes} nodes "
      f"(the graph has {system.n} vertices)")

print("\nvertex  enumeration Pr[spin=1]   walk tree Pr[spin=1]   |diff|")
table = gibbs_distribution(system)
for v in range(system.n):
    # enumeration route: sum the exact table over configurations with v at 1
    p1_enum = sum(p for idx, p in enumerate(table.probs) if (idx >> v) & 1)
    p1_tree = saw_marginal(system, v).p1
    print(f"  {v}       {p1_enum:.12f}        {p1_tree:.12f}"
          f"      {abs(p1_enum - p1_tree):.2e}")

# pinning vertices 2 -> 1 and 4 -> 0 conditions the law; the walk tree
# absorbs pins as fixed ratio leaves and stays exact
pin = Pinning({2: 1, 4: 0})
print("\nwith spins pinned (vertex 2 at 1, vertex 4 at 0):")
for v in (0, 1, 3):
    _, p1_cond = conditional_marginal(system, pin, v)
    p1_tree = saw_marginal(system, v, pin).p1
    print(f"  vertex {v}: conditional {p1_cond:.12f}   "
          f"walk tree {p1_tree:.12f}   |diff| {abs(p1_cond - p1_tree):.2e}")
