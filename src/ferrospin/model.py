"""Two-spin systems, RBM parameters, pinnings, and parameter classes.

A two-spin system is a graph G = (V, E) with per-edge activities
(beta_e, gamma_e) and per-vertex fields lambda_v; a configuration
sigma in {0,1}^V has unnormalized weight

    prod_{sigma_v = 0} lambda_v
    * prod_{sigma_u = sigma_v = 0} beta_e
    * prod_{sigma_u = sigma_v = 1} gamma_e.

All parameters are stored in natural-log space; linear values appear only at
API boundaries (gamma_e = exp(w_uv) can overflow for large RBM weights).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import InputError


def _finite_log(value: float, what: str, *labels) -> float:
    """log(value) for a positive finite value; `what` is formatted with
    `labels` only when the value is rejected."""
    if not (value > 0.0) or math.isinf(value):
        raise InputError(f"{what.format(*labels)} must be positive and "
                         f"finite, got {value!r}")
    return math.log(value)


@dataclass(frozen=True)
class TwoSpinSystem:
    """Immutable two-spin system over vertices 0..n-1.

    Fields hold natural logs of the parameters.  Edges are canonical
    (min, max) pairs in sorted order; parallel arrays carry the edge
    activities.  Use :meth:`from_params` with linear values.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    log_beta: tuple[float, ...]
    log_gamma: tuple[float, ...]
    log_lambda: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"vertex count must be >= 1, got {self.n}")
        if len(self.log_lambda) != self.n:
            raise InputError(
                f"lambda has {len(self.log_lambda)} entries for n={self.n}")
        if not (len(self.edges) == len(self.log_beta) == len(self.log_gamma)):
            raise InputError("edge arrays have mismatched lengths")
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise InputError(f"edge {i} ({u},{v}): self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge {i} ({u},{v}): vertex out of range")
            if u > v:
                raise InputError(f"edge {i} ({u},{v}): not in canonical (min,max) order")
            if (u, v) in seen:
                raise InputError(f"edge {i} ({u},{v}): parallel edge")
            seen.add((u, v))
        for name, arr in (("log_beta", self.log_beta),
                          ("log_gamma", self.log_gamma),
                          ("log_lambda", self.log_lambda)):
            for i, x in enumerate(arr):
                if math.isnan(x) or math.isinf(x):
                    raise InputError(f"{name}[{i}] is not finite")

    @classmethod
    def from_params(cls, n: int,
                    lam: Sequence[float],
                    edges: Iterable[tuple[int, int, float, float]]) -> "TwoSpinSystem":
        """Build from linear-scale parameters.

        `edges` yields (u, v, beta_e, gamma_e) tuples; orientation and order
        are normalized here.
        """
        canon = []
        for (u, v, beta, gamma) in edges:
            a, b = (u, v) if u <= v else (v, u)
            canon.append(((a, b),
                          _finite_log(beta, "beta of edge ({},{})", u, v),
                          _finite_log(gamma, "gamma of edge ({},{})", u, v)))
        canon.sort(key=lambda item: item[0])
        return cls(
            n=n,
            edges=tuple(pair for pair, _, _ in canon),
            log_beta=tuple(lb for _, lb, _ in canon),
            log_gamma=tuple(lg for _, _, lg in canon),
            log_lambda=tuple(_finite_log(x, "lambda of vertex {}", i)
                             for i, x in enumerate(lam)),
        )

    # -- linear-scale accessors -------------------------------------------
    def beta(self, e: int) -> float:
        return math.exp(self.log_beta[e])

    def gamma(self, e: int) -> float:
        return math.exp(self.log_gamma[e])

    def lam(self, v: int) -> float:
        return math.exp(self.log_lambda[v])

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, edge index), neighbors increasing."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {pair: e for e, pair in enumerate(self.edges)}

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_between(self, u: int, v: int) -> int | None:
        return self.edge_index.get((min(u, v), max(u, v)))


# ---------------------------------------------------------------------------
# configurations

def check_config(system: TwoSpinSystem, sigma: Sequence[int]) -> None:
    if len(sigma) != system.n:
        raise InputError(f"configuration has {len(sigma)} entries for n={system.n}")
    for v, s in enumerate(sigma):
        if s not in (0, 1):
            raise InputError(f"configuration entry {v} is {s!r}, not a bit")


def config_to_index(sigma: Sequence[int]) -> int:
    """Bitmask index with bit v = sigma_v."""
    idx = 0
    for v, s in enumerate(sigma):
        idx |= (int(s) & 1) << v
    return idx


def index_to_config(idx: int, n: int) -> tuple[int, ...]:
    return tuple((idx >> v) & 1 for v in range(n))


def log_weight(system: TwoSpinSystem, sigma: Sequence[int]) -> float:
    check_config(system, sigma)
    total = 0.0
    for v in range(system.n):
        if sigma[v] == 0:
            total += system.log_lambda[v]
    for e, (u, v) in enumerate(system.edges):
        if sigma[u] == 0 and sigma[v] == 0:
            total += system.log_beta[e]
        elif sigma[u] == 1 and sigma[v] == 1:
            total += system.log_gamma[e]
    return total


def weight(system: TwoSpinSystem, sigma: Sequence[int]) -> float:
    return math.exp(log_weight(system, sigma))


# ---------------------------------------------------------------------------
# pinnings

class Pinning:
    """Partial spin assignment sigma: Lambda -> {0,1} on a vertex subset."""

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = dict(values)
        for v, s in pairs.items():
            if not isinstance(v, int) or v < 0:
                raise InputError(f"pinned vertex {v!r} is not a vertex index")
            if s not in (0, 1):
                raise InputError(f"pinned value {s!r} at vertex {v} is not a bit")
        object.__setattr__(self, "_items", tuple(sorted(pairs.items())))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(v for v, _ in self._items)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def value(self, v: int) -> int:
        for u, s in self._items:
            if u == v:
                return s
        raise KeyError(v)

    __getitem__ = value

    def merged(self, other: "Pinning") -> "Pinning":
        d = dict(self._items)
        for v, s in other.items():
            if d.get(v, s) != s:
                raise InputError(f"conflicting pin at vertex {v}")
            d[v] = s
        return Pinning(d)

    def __contains__(self, v: int) -> bool:
        return any(u == v for u, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        return isinstance(other, Pinning) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"Pinning({dict(self._items)!r})"


def surviving_vertices(n: int, pin: Pinning) -> tuple[int, ...]:
    """Vertices outside the pinning domain, in increasing order (the vertex
    numbering of the system apply_pinning returns)."""
    dom = pin.domain
    return tuple(v for v in range(n) if v not in dom)


def apply_pinning(system: TwoSpinSystem, pin: Pinning) -> TwoSpinSystem:
    """Induced system on V minus the pinned set.

    Each surviving vertex keeps its edges into other survivors and absorbs
    its pinned neighbors into the field:

        lambda'_v = lambda_v * prod_{pinned-0 nbrs} beta_e
                             * prod_{pinned-1 nbrs} 1/gamma_e

    Surviving vertices are renumbered in increasing order (see
    :func:`surviving_vertices`).
    """
    for v in pin.domain:
        if v >= system.n:
            raise InputError(f"pinned vertex {v} outside the system (n={system.n})")
    values = dict(pin.items())
    survivors = surviving_vertices(system.n, pin)
    remap = {v: i for i, v in enumerate(survivors)}
    new_log_lambda = [system.log_lambda[v] for v in survivors]
    new_edges, new_lb, new_lg = [], [], []
    for e, (u, v) in enumerate(system.edges):
        su, sv = u in values, v in values
        if su and sv:
            continue
        if not su and not sv:
            new_edges.append((remap[u], remap[v]))
            new_lb.append(system.log_beta[e])
            new_lg.append(system.log_gamma[e])
            continue
        pinned_val = values[u] if su else values[v]
        alive = v if su else u
        if pinned_val == 0:
            new_log_lambda[remap[alive]] += system.log_beta[e]
        else:
            new_log_lambda[remap[alive]] -= system.log_gamma[e]
    return TwoSpinSystem(
        n=len(survivors),
        edges=tuple(new_edges),
        log_beta=tuple(new_lb),
        log_gamma=tuple(new_lg),
        log_lambda=tuple(new_log_lambda),
    )


def tilt(system: TwoSpinSystem, thetas: float | Sequence[float]) -> TwoSpinSystem:
    """Tilted system: lambda'_v = lambda_v * theta_v, edges unchanged.

    Its Gibbs distribution is the original one reweighted by
    prod_{sigma_v = 0} theta_v.
    """
    if isinstance(thetas, (int, float)):
        thetas = [float(thetas)] * system.n
    if len(thetas) != system.n:
        raise InputError(f"theta vector has {len(thetas)} entries for n={system.n}")
    log_theta = []
    for v, th in enumerate(thetas):
        if not (0.0 < th <= 1.0):
            raise InputError(f"theta of vertex {v} must lie in (0,1], got {th!r}")
        log_theta.append(math.log(th))
    return TwoSpinSystem(
        n=system.n,
        edges=system.edges,
        log_beta=system.log_beta,
        log_gamma=system.log_gamma,
        log_lambda=tuple(ll + lt for ll, lt in zip(system.log_lambda, log_theta)),
    )


def induced_subsystem(system: TwoSpinSystem,
                      vertices: Iterable[int]) -> tuple[TwoSpinSystem, dict[int, int]]:
    """Subsystem on a vertex subset (edges with both ends inside kept).

    Returns (subsystem, old->new vertex map); new numbering is increasing in
    the old one.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < system.n):
            raise InputError(f"vertex {v} outside the system (n={system.n})")
    remap = {v: i for i, v in enumerate(keep)}
    edges, lb, lg = [], [], []
    for e, (u, v) in enumerate(system.edges):
        if u in remap and v in remap:
            edges.append((remap[u], remap[v]))
            lb.append(system.log_beta[e])
            lg.append(system.log_gamma[e])
    sub = TwoSpinSystem(
        n=len(keep),
        edges=tuple(edges),
        log_beta=tuple(lb),
        log_gamma=tuple(lg),
        log_lambda=tuple(system.log_lambda[v] for v in keep),
    )
    return sub, remap


def is_ferromagnetic(system: TwoSpinSystem) -> bool:
    """beta_e * gamma_e >= 1 on every edge."""
    return all(lb + lg >= 0.0
               for lb, lg in zip(system.log_beta, system.log_gamma))


# ---------------------------------------------------------------------------
# parameter classes and thresholds

@dataclass(frozen=True)
class ParamClass:
    """Class bounds (beta, gamma, lambda): beta <= 1 < gamma, beta*gamma > 1,
    per-vertex fields bounded by lambda strictly."""

    beta: float
    gamma: float
    lambda_bound: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise InputError(f"class beta must lie in (0,1], got {self.beta}")
        if not (self.gamma > 1.0):
            raise InputError(f"class gamma must exceed 1, got {self.gamma}")
        if not (self.beta * self.gamma > 1.0):
            raise InputError(
                f"class requires beta*gamma > 1, got {self.beta * self.gamma}")
        if not (self.lambda_bound > 0.0):
            raise InputError(f"lambda bound must be positive, got {self.lambda_bound}")


def lambda0(pc: ParamClass) -> float:
    """Field threshold sqrt(gamma/beta)."""
    return math.sqrt(pc.gamma / pc.beta)


def lambda_c(pc: ParamClass) -> float:
    """Field threshold (gamma/beta)^(sqrt(beta*gamma)/(sqrt(beta*gamma)-1))."""
    root = math.sqrt(pc.beta * pc.gamma)
    return (pc.gamma / pc.beta) ** (root / (root - 1.0))


def classify(system: TwoSpinSystem, pc: ParamClass) -> bool:
    """True iff every lambda_v < lambda and every edge satisfies
    beta_e <= beta <= 1 < gamma <= gamma_e with beta*gamma >= beta_e*gamma_e > 1.

    Comparisons run in log space so huge gamma_e cannot overflow.
    """
    log_b, log_g = math.log(pc.beta), math.log(pc.gamma)
    log_l = math.log(pc.lambda_bound)
    for ll in system.log_lambda:
        if not (ll < log_l):
            return False
    for lb, lg in zip(system.log_beta, system.log_gamma):
        if lb > log_b or lg < log_g:
            return False
        prod = lb + lg
        if not (prod > 0.0 and prod <= log_b + log_g):
            return False
    return True


# ---------------------------------------------------------------------------
# restricted Boltzmann machines

@dataclass(frozen=True)
class RbmParams:
    """Symmetric interaction matrix W (zero diagonal, zero within parts),
    per-vertex biases theta, bipartition V0 = 0..n0-1, V1 = n0..n0+n1-1."""

    n0: int
    n1: int
    interaction: tuple[tuple[float, ...], ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        n = self.n0 + self.n1
        if self.n0 < 1 or self.n1 < 1:
            raise InputError("both parts of the bipartition must be nonempty")
        if len(self.interaction) != n or any(len(row) != n for row in self.interaction):
            raise InputError(f"interaction matrix must be {n}x{n}")
        if len(self.theta) != n:
            raise InputError(f"theta must have {n} entries")
        w = self.interaction
        for u in range(n):
            if w[u][u] != 0.0:
                raise InputError(f"interaction diagonal nonzero at vertex {u}")
            for v in range(u + 1, n):
                if w[u][v] != w[v][u]:
                    raise InputError(f"interaction not symmetric at pair ({u},{v})")
                same_part = (u < self.n0) == (v < self.n0)
                if same_part and w[u][v] != 0.0:
                    raise InputError(
                        f"interaction within one part at pair ({u},{v})")

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(range(self.n0)), tuple(range(self.n0, self.n))


def energy(params: RbmParams, sigma: Sequence[int]) -> float:
    """E(sigma) = sum_{u<v} w_uv sigma_u sigma_v + sum_v theta_v sigma_v."""
    n = params.n
    if len(sigma) != n:
        raise InputError(f"configuration has {len(sigma)} entries for n={n}")
    total = 0.0
    for u in range(n):
        if sigma[u]:
            total += params.theta[u]
            for v in range(u + 1, n):
                if sigma[v]:
                    total += params.interaction[u][v]
    return total


def rbm_to_two_spin(params: RbmParams) -> TwoSpinSystem:
    """Reparameterize: lambda_v = exp(-theta_v); each nonzero w_uv becomes an
    edge with beta = 1, gamma = exp(w_uv); zero pairs produce no edge.

    The log-space fields make the map exact: log gamma_e = w_uv literally.
    """
    n = params.n
    edges, lb, lg = [], [], []
    for u in range(n):
        for v in range(u + 1, n):
            w = params.interaction[u][v]
            if w != 0.0:
                edges.append((u, v))
                lb.append(0.0)
                lg.append(float(w))
    return TwoSpinSystem(
        n=n,
        edges=tuple(edges),
        log_beta=tuple(lb),
        log_gamma=tuple(lg),
        log_lambda=tuple(-float(t) for t in params.theta),
    )


# ---------------------------------------------------------------------------
# file formats

def load_instance(path: str) -> TwoSpinSystem:
    """Instance JSON: {"n": int, "lambda": [..], "edges": [{"u","v","beta","gamma"}..]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    try:
        n = int(doc["n"])
        lam = [float(x) for x in doc["lambda"]]
        raw_edges = doc["edges"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"instance document malformed: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise InputError("instance edges must be a list of edge records")
    edges = []
    for i, rec in enumerate(raw_edges):
        try:
            edges.append((int(rec["u"]), int(rec["v"]),
                          float(rec["beta"]), float(rec["gamma"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"edge record {i} malformed: {exc}") from exc
    return TwoSpinSystem.from_params(n, lam, edges)


def load_rbm(path: str) -> RbmParams:
    """RBM JSON: {"n0": int, "n1": int, "W": [[..]], "theta": [..]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read RBM file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"RBM file {path} is not valid JSON: {exc}") from exc
    try:
        n0, n1 = int(doc["n0"]), int(doc["n1"])
        w = tuple(tuple(float(x) for x in row) for row in doc["W"])
        theta = tuple(float(x) for x in doc["theta"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"RBM document malformed: {exc}") from exc
    return RbmParams(n0=n0, n1=n1, interaction=w, theta=theta)


def instance_dict(system: TwoSpinSystem) -> dict:
    """Canonical JSON-ready form (linear parameters, repr-exact floats)."""
    return {
        "n": system.n,
        "lambda": [system.lam(v) for v in range(system.n)],
        "edges": [
            {"u": u, "v": v, "beta": system.beta(e), "gamma": system.gamma(e)}
            for e, (u, v) in enumerate(system.edges)
        ],
    }


def instance_hash(system: TwoSpinSystem) -> str:
    """Short digest of the repr-exact log parameters (the linear values of
    `instance_dict` overflow for large RBM weights)."""
    doc = {"n": system.n, "edges": system.edges,
           "log_lambda": system.log_lambda, "log_beta": system.log_beta,
           "log_gamma": system.log_gamma}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
