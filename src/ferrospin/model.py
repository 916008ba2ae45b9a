"""Two-spin systems, RBM parameters, pinnings, and parameter classes.

A two-spin system is a graph G = (V, E) with per-edge activities
(beta_e, gamma_e) and per-vertex fields lambda_v; a configuration
sigma in {0,1}^V has unnormalized weight

    prod_{sigma_v = 0} lambda_v
    * prod_{sigma_u = sigma_v = 0} beta_e
    * prod_{sigma_u = sigma_v = 1} gamma_e.

All parameters are stored in natural-log space; linear values appear only at
API boundaries (gamma_e = exp(w_uv) can overflow for large RBM weights).

A system is checked once, where its values come in from outside: the
constructor, `TwoSpinSystem.from_params` and the loaders.  Each check screens
all the values at once (types, ranges, order, repeats, positive finite
values) and walks them one by one only to name the first fault, with the
message and precedence of the per-edge rule.  The loaders read every JSON
field by one integer rule and one number rule, so a JSON string or bool is
refused where a number belongs.  Systems derived from a checked one
(`induced_subsystem`, `apply_pinning`, `tilt`, and `rbm_to_two_spin` from
checked RBM parameters) are trusted: they come through one private
constructor that checks only the values they compute, and `tilt` keeps its
parent's cached adjacency.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, NumericError


def _finite_log(value: float, what: str, *labels) -> float:
    """log(value) for a positive finite value; `what` is formatted with
    `labels` only when the value is rejected."""
    if not (value > 0.0) or math.isinf(value):
        raise InputError(f"{what.format(*labels)} must be positive and "
                         f"finite, got {value!r}")
    return math.log(value)


def _integer(value, what: str, stop: int | None = None) -> int:
    """`value` as an int if it is a Python or numpy integer, not a bool,
    and in [0, stop) when `stop` is given; else an input error naming
    `what` and the value (int() would truncate 2.5 to 2 and read True as
    1)."""
    try:
        i = operator.index(value)
    except TypeError:
        i = None
    if i is None or value.__class__ is bool:
        raise InputError(f"{what} must be an integer, got {value!r}")
    if stop is not None and not 0 <= i < stop:
        raise InputError(f"{what} {i} out of range")
    return i


@dataclass(frozen=True)
class TwoSpinSystem:
    """Immutable two-spin system over vertices 0..n-1.

    Fields hold natural logs of the parameters, and the system hands them
    out only as logs: log_lambda[v], and log_beta[e], log_gamma[e] of edge
    e.  Edges are canonical (min, max) pairs in sorted order; parallel
    arrays carry the edge activities, and `adjacency[v]` lists v's
    (neighbour, edge) pairs.  Use :meth:`from_params` with linear values.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    log_beta: tuple[float, ...]
    log_gamma: tuple[float, ...]
    log_lambda: tuple[float, ...]

    def __post_init__(self):
        _check_counts(self.n, len(self.log_lambda))
        if not len(self.edges) == len(self.log_beta) == len(self.log_gamma):
            raise InputError("edge arrays have mismatched lengths")
        _check_edges(self.n, self.edges)
        for name, arr in (("log_beta", self.log_beta),
                          ("log_gamma", self.log_gamma),
                          ("log_lambda", self.log_lambda)):
            _check_finite(name, arr)

    @classmethod
    def from_params(cls, n: int,
                    lam: Sequence[float],
                    edges: Iterable[tuple[int, int, float, float]]) -> "TwoSpinSystem":
        """Build from linear-scale parameters.

        `edges` yields (u, v, beta_e, gamma_e) tuples; orientation and order
        are normalized here.
        """
        columns = tuple(zip(*[(u, v, beta, gamma)
                              for u, v, beta, gamma in edges]))
        return _from_columns(n, tuple(lam), *(columns or ((),) * 4))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, edge index), neighbors increasing."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _neighbor_map(self) -> dict[int, tuple[int, ...]]:
        """{vertex: neighbours increasing}, the graph as `regions` reads it;
        `regions.adjacency_map` hands it out behind a read-only view."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in enumerate(nbrs)}

    @cached_property
    def _sampler_kernels(self) -> dict:
        """{schedule: compiled kernel} for the samplers' one-step calls,
        filled and bounded by `samplers._kernel`."""
        return {}


# ---------------------------------------------------------------------------
# the public route's checks, each outside value once

_INT_TYPES = frozenset({int})  # a Python int: no bool, no numpy integer
_NUMBER_TYPES = frozenset({int, float})  # what JSON decodes a number to

# the cached properties of a system that depend on n and its edges alone
_GRAPH_CACHES = ("adjacency", "_neighbor_map")


def _derived_system(n: int, edges: tuple[tuple[int, int], ...],
                    log_beta: tuple[float, ...], log_gamma: tuple[float, ...],
                    log_lambda: tuple[float, ...],
                    same_graph: TwoSpinSystem | None = None) -> TwoSpinSystem:
    """A system whose vertex count, edges and finite logs have been checked
    already, by the public route or as parts of a checked system, built
    without checking them again; it keeps the graph caches of
    `same_graph`, a system with the same n and edges."""
    system = object.__new__(TwoSpinSystem)
    caches = {} if same_graph is None else same_graph.__dict__
    system.__dict__.update(
        {name: caches[name] for name in _GRAPH_CACHES if name in caches},
        n=n, edges=edges, log_beta=log_beta, log_gamma=log_gamma,
        log_lambda=log_lambda)
    return system


def _check_counts(n, n_lambda: int) -> None:
    """An input error unless n is a vertex count and there are n fields."""
    if _integer(n, "vertex count") < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    if n_lambda != n:
        raise InputError(f"lambda has {n_lambda} entries for n={n}")


def _check_edges(n: int, edges: Sequence) -> None:
    """An input error naming the first of `edges`, in their order, that is
    not a pair of vertices below n in canonical (min, max) order, that
    repeats an earlier edge, or that comes out of sorted order.  Screens
    over all the endpoints at once clear the common case; the edges are
    walked one by one only to name a fault (or when an endpoint is an
    integer of another type, a numpy one)."""
    try:
        us, vs = zip(*edges) if edges else ((), ())
        if ({2}.issuperset(map(len, edges))
                and _INT_TYPES.issuperset(chain(map(type, us), map(type, vs)))
                and (not edges or min(us) >= 0 and max(vs) < n)
                and all(map(operator.lt, us, vs))
                and all(map(operator.lt, edges, edges[1:]))):
            return
    except (TypeError, ValueError):
        pass
    seen, last = set(), None
    for i, (u, v) in enumerate(edges):
        try:
            _integer(u, "vertex", n)
            _integer(v, "vertex", n)
        except InputError as exc:
            raise InputError(f"edge {i} ({u},{v}): {exc}") from None
        if u == v:
            raise InputError(f"edge {i} ({u},{v}): self-loop")
        if u > v:
            raise InputError(f"edge {i} ({u},{v}): not in canonical (min,max) order")
        if (u, v) in seen:
            raise InputError(f"edge {i} ({u},{v}): parallel edge")
        if last is not None and (u, v) < last:
            raise InputError(f"edge {i} ({u},{v}): out of sorted order after "
                             f"({last[0]},{last[1]})")
        last = (u, v)
        seen.add(last)


def _check_finite(name: str, values: Sequence[float]) -> None:
    """An input error naming the first entry of `values` that is NaN or
    infinite."""
    finite = list(map(math.isfinite, values))
    if not all(finite):
        raise InputError(f"{name}[{finite.index(False)}] is not finite")


def _logs(values: Sequence[float]) -> list[float] | None:
    """[math.log(x) for x in values] if every x is positive and finite, else
    None."""
    try:
        logs = list(map(math.log, values))
    except (TypeError, ValueError):
        return None
    return logs if all(map(math.isfinite, logs)) else None


def _from_columns(n, lam: Sequence[float], us: Sequence[int],
                  vs: Sequence[int], betas: Sequence[float],
                  gammas: Sequence[float]) -> TwoSpinSystem:
    """`TwoSpinSystem.from_params` on its edges as four columns: every value
    checked once, in the order and with the messages of the per-edge rule
    (beta then gamma of each edge, then each lambda, then the counts, then
    the canonical pairs in sorted order)."""
    log_beta, log_gamma = _logs(betas), _logs(gammas)
    if log_beta is None or log_gamma is None:
        log_beta, log_gamma = [], []
        for u, v, beta, gamma in zip(us, vs, betas, gammas):
            log_beta.append(_finite_log(beta, "beta of edge ({},{})", u, v))
            log_gamma.append(_finite_log(gamma, "gamma of edge ({},{})", u, v))
    log_lambda = _logs(lam)
    if log_lambda is None:
        log_lambda = [_finite_log(x, "lambda of vertex {}", i)
                      for i, x in enumerate(lam)]
    pairs = [(u, v) if u <= v else (v, u) for u, v in zip(us, vs)]
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    edges = tuple([pairs[i] for i in order])
    _check_counts(n, len(log_lambda))
    _check_edges(n, edges)
    return _derived_system(
        n, edges, tuple([log_beta[i] for i in order]),
        tuple([log_gamma[i] for i in order]), tuple(log_lambda))


# ---------------------------------------------------------------------------
# configurations

_SPINS = bytes.maketrans(b"01", b"\x00\x01")


def config_to_index(sigma: Sequence[int]) -> int:
    """Bitmask index with bit v = sigma_v, for 0/1 spins given as Python or
    numpy ints (the shifts are Python ints, so exact past bit 63)."""
    return sum([1 << v for v, s in enumerate(sigma) if s])


def _check_config(config: Sequence[int], n: int, what: str) -> None:
    """An input error naming `what` unless `config` is n spins, each 0 or 1
    by `_integer`."""
    if len(config) == n:
        try:
            for s in config:
                _integer(s, "spin", 2)
            return
        except InputError:
            pass
    raise InputError(f"{what} must be {n} spins of 0 or 1: {config!r}")


def index_to_config(idx: int, n: int) -> tuple[int, ...]:
    """The configuration of index 0 <= idx < 2^n: the binary digits of idx
    below a sentinel bit n, least significant first."""
    return tuple(bin(idx | 1 << n)[:2:-1].encode().translate(_SPINS))


# ---------------------------------------------------------------------------
# pinnings

class Pinning:
    """Partial spin assignment sigma: Lambda -> {0,1} on a vertex subset."""

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = tuple(sorted(
            (_integer(v, "pinned vertex"),
             _integer(s, f"pinned vertex {v!r}: spin", 2))
            for v, s in dict(values).items()))
        if items and items[0][0] < 0:
            raise InputError(f"pinned vertex {items[0][0]} is not a vertex index")
        object.__setattr__(self, "_items", items)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(v for v, _ in self._items)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def __getitem__(self, v: int) -> int:
        for u, s in self._items:
            if u == v:
                return s
        raise KeyError(v)

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
    """Induced system on V minus the pinned set: `induced_subsystem` on the
    survivors (renumbered in increasing order, see :func:`surviving_vertices`),
    whose fields absorb their pinned neighbours edge by edge, in edge order:

        lambda'_v = lambda_v * prod_{pinned-0 nbrs} beta_e
                             * prod_{pinned-1 nbrs} 1/gamma_e
    """
    values = {_integer(v, "pinned vertex", system.n): s for v, s in pin}
    sub, remap = induced_subsystem(system, surviving_vertices(system.n, pin))
    log_lambda = list(sub.log_lambda)
    for e, (u, v) in enumerate(system.edges):
        if (u in values) != (v in values):
            pinned, alive = (u, v) if u in values else (v, u)
            log_lambda[remap[alive]] += (-system.log_gamma[e] if values[pinned]
                                         else system.log_beta[e])
    _check_finite("log_lambda", log_lambda)  # a sum can overflow
    return _derived_system(sub.n, sub.edges, sub.log_beta, sub.log_gamma,
                           tuple(log_lambda))


def tilt(system: TwoSpinSystem, thetas: float | Sequence[float]) -> TwoSpinSystem:
    """Tilted system: lambda'_v = lambda_v * theta_v, edges unchanged.

    Its Gibbs distribution is the original one reweighted by
    prod_{sigma_v = 0} theta_v.
    """
    if np.ndim(thetas) == 0:
        thetas = [float(thetas)] * system.n
    if len(thetas) != system.n:
        raise InputError(f"theta vector has {len(thetas)} entries for n={system.n}")
    log_theta = []
    for v, th in enumerate(thetas):
        if not (0.0 < th <= 1.0):
            raise InputError(f"theta of vertex {v} must lie in (0,1], got {th!r}")
        log_theta.append(math.log(th))
    return _derived_system(
        system.n, system.edges, system.log_beta, system.log_gamma,
        tuple([ll + lt for ll, lt in zip(system.log_lambda, log_theta)]),
        same_graph=system)


def induced_subsystem(system: TwoSpinSystem,
                      vertices: Iterable[int]) -> tuple[TwoSpinSystem, dict[int, int]]:
    """Subsystem on a vertex subset (edges with both ends inside kept).

    Returns (subsystem, old->new vertex map); new numbering is increasing in
    the old one.
    """
    keep = sorted({_integer(v, "vertex", system.n) for v in vertices})
    if not keep:
        raise InputError("vertex count must be >= 1, got 0")
    remap = {v: i for i, v in enumerate(keep)}
    edges, lb, lg = [], [], []
    for e, (u, v) in enumerate(system.edges):
        if u in remap and v in remap:
            edges.append((remap[u], remap[v]))
            lb.append(system.log_beta[e])
            lg.append(system.log_gamma[e])
    sub = _derived_system(len(keep), tuple(edges), tuple(lb), tuple(lg),
                          tuple([system.log_lambda[v] for v in keep]))
    return sub, remap


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
    """Field threshold (gamma/beta)^(sqrt(beta*gamma)/(sqrt(beta*gamma)-1)),
    or math.inf past the float range (beta*gamma just above 1, beta < 1)."""
    root = math.sqrt(pc.beta * pc.gamma)
    try:
        return (pc.gamma / pc.beta) ** (root / (root - 1.0))
    except OverflowError:
        return math.inf


def _log_lambda_c(pc: ParamClass) -> float:
    """log lambda_c, finite where lambda_c passes the float range."""
    root = math.sqrt(pc.beta * pc.gamma)
    return root / (root - 1.0) * math.log(pc.gamma / pc.beta)


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
        if _integer(self.n0, "n0") < 1 or _integer(self.n1, "n1") < 1:
            raise InputError("both parts of the bipartition must be nonempty")
        n = self.n0 + self.n1
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
    log_lambda = [-float(t) for t in params.theta]
    # the pairs are canonical, in order and distinct by construction, so
    # only the values remain to be checked
    _check_finite("log_gamma", lg)
    _check_finite("log_lambda", log_lambda)
    return _derived_system(n, tuple(edges), tuple(lb), tuple(lg),
                           tuple(log_lambda))


# ---------------------------------------------------------------------------
# file formats

def _json_int(value, what: str) -> int:
    """`value` if a JSON integer; else an input error naming the field
    `what` and the value, which int() would truncate (3.9, True)."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """`value` as a float if a JSON number (an integer or a float); else an
    input error naming the field `what` and the value, which float() would
    read ("0.5", True)."""
    if type(value) is not float and type(value) is not int:
        raise InputError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _json_numbers(values, what: str) -> tuple[float, ...]:
    """The entries of the JSON list `values` as floats, each by
    `_json_number` and named as entry i of the field `what`."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        for i, x in enumerate(values):
            _json_number(x, f"{what}[{i}]")
    return tuple(map(float, values))


def _edge_columns(records: list) -> list[Sequence]:
    """The u, v, beta and gamma columns of the instance's edge records, u
    and v by `_json_int` and beta and gamma by `_json_number`; an input
    error names the first bad record, its fields read in that order."""
    try:
        rows = list(map(operator.itemgetter("u", "v", "beta", "gamma"),
                        records))
        us, vs, betas, gammas = zip(*rows) if rows else ((),) * 4
        if (_INT_TYPES.issuperset(chain(map(type, us), map(type, vs)))
                and _NUMBER_TYPES.issuperset(
                    chain(map(type, betas), map(type, gammas)))):
            return [us, vs, list(map(float, betas)), list(map(float, gammas))]
    except (KeyError, TypeError, OverflowError):
        pass
    columns = [[], [], [], []]
    for i, rec in enumerate(records):
        where = f"edge record {i} "
        try:
            row = (_json_int(rec["u"], where + '"u"'),
                   _json_int(rec["v"], where + '"v"'),
                   _json_number(rec["beta"], where + '"beta"'),
                   _json_number(rec["gamma"], where + '"gamma"'))
        except (KeyError, TypeError, OverflowError) as exc:
            raise InputError(f"edge record {i} malformed: {exc}") from exc
        for column, x in zip(columns, row):
            column.append(x)
    return columns


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
        n = _json_int(doc["n"], '"n"')
        lam = _json_numbers(doc["lambda"], '"lambda"')
        raw_edges = doc["edges"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"instance document malformed: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise InputError("instance edges must be a list of edge records")
    return _from_columns(n, lam, *_edge_columns(raw_edges))


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
        n0, n1 = _json_int(doc["n0"], '"n0"'), _json_int(doc["n1"], '"n1"')
        w = tuple(_json_numbers(row, f'"W"[{i}]')
                  for i, row in enumerate(doc["W"]))
        theta = _json_numbers(doc["theta"], '"theta"')
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"RBM document malformed: {exc}") from exc
    return RbmParams(n0=n0, n1=n1, interaction=w, theta=theta)


def _linear(log_value: float, what: str, *labels) -> float:
    """exp(log_value) for the instance file, which holds linear parameters;
    a value that is not a positive finite float is a numeric error naming
    `what` (formatted with `labels`) and its log value."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NumericError(f"{what.format(*labels)} has log value "
                           f"{log_value!r}, past the float range of a "
                           f"linear parameter")
    return value


def instance_dict(system: TwoSpinSystem) -> dict:
    """Canonical JSON-ready form (linear parameters, repr-exact floats)."""
    return {
        "n": system.n,
        "lambda": [_linear(x, "lambda of vertex {}", v)
                   for v, x in enumerate(system.log_lambda)],
        "edges": [
            {"u": u, "v": v,
             "beta": _linear(lb, "beta of edge ({},{})", u, v),
             "gamma": _linear(lg, "gamma of edge ({},{})", u, v)}
            for (u, v), lb, lg in zip(system.edges, system.log_beta,
                                      system.log_gamma)
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
