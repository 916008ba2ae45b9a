"""Exact desk-scale ground truth.

Dense 2^n enumeration: Gibbs tables, conditional marginals, influences,
transition matrices, spectral reports, and exact total-variation mixing
times.  Everything here is an oracle for the stochastic modules, so every
result is exact up to floating-point rounding: a faster route stands in for
a slower one only where it computes the same quantity, and its test checks
it against the dense route.  n is capped accordingly.

Every conditional and influence is read from one log-weight table per
system (`log_weights`, viewed as n 0/1 axes): a pinning indexes its axes,
so a sum runs over the free vertices only, and each pinned slice is shifted
by its own maximum, so a pin of tiny mass keeps its digits.  An influence
reads each pin's half of the same table, and `regions` reduces one table of
a region's induced subsystem onto (centre, boundary).  A Gibbs table is
normalised by a numpy log-sum-exp with the max terms separated
(`_logsumexp`; Blanchard, Higham and Higham, IMA J. Numer. Anal. 2021),
step for step the route of scipy's `special.logsumexp` that it replaced,
so every table and log partition function keeps its bits and the package
imports numpy only.

Every transition matrix is built from one operator, the heat bath on a
block B (resample the spins of B from their conditional given the rest;
the empty block is the identity).  Glauber, heat-bath, censored, pinned and
field kernels are mixtures of these operators with constant or per-row
weights, accumulated into one output matrix.  A scan's row depends on its
start only through the spins outside its first block, so a scan keeps one
row per sector of that block: the first block's column weights on the
sector's states, then each later block in O(4^n) (sum each row over the
block's off-block sectors, then scale by the column weights), and copies
each row to its sector.

Mixing times square the kernel until the worst-start distance falls below
eps, then bisect over the stored powers (each start's distance is
non-increasing in t while mu P = mu).  Only the starts whose distance can
still reach eps are carried: a power is formed in full only while it is
squared next (a plain square once a start has been dropped), and every
other product (the last doubling's check and the bisection steps)
multiplies the kept rows alone.
The Glauber spectrum is a full eigvalsh below constants.LANCZOS_MIN_STATES
states and a deflated Lanczos over the kernel's nonzeros from there.  The
spectrum of a scan's multiplicative reversiblization Q Q* is taken on the
quotient by identical rows of Q, a 2^|V1| x 2^|V1| matrix for an
alternating scan.

Configuration indexing: bit v of the integer index is sigma_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import constants
from .errors import CapacityError, InputError, NonconvergenceError, NumericError
from .model import Pinning, TwoSpinSystem, _integer, apply_pinning, tilt


@dataclass(frozen=True)
class DistributionTable:
    """Exact probability vector over 2^n configurations (+ log partition)."""

    n: int
    probs: np.ndarray
    log_z: float

    def __post_init__(self):
        if self.probs.shape != (2 ** self.n,):
            raise InputError("probability vector has wrong length")
        if np.any(self.probs < 0.0):
            raise NumericError("negative probability entry")
        total = float(self.probs.sum())
        # a NaN passes every comparison, but not the sum
        if not math.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(self.probs))
            if bad.size:
                raise NumericError(f"non-finite probability of state {bad[0]}")
        if abs(total - 1.0) > constants.PROB_SUM_TOL:
            raise NumericError("probabilities do not sum to 1")
        self.probs.setflags(write=False)


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense row-stochastic 2^n x 2^n chain operator."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        size = 2 ** self.n
        if self.entries.shape != (size, size):
            raise InputError("transition matrix has wrong shape")
        if np.any(self.entries < -1e-15):
            raise NumericError("negative transition probability")
        rowsum = self.entries.sum(axis=1)
        # a NaN passes every comparison, but a non-finite entry makes its
        # row sum non-finite
        for r in np.flatnonzero(~np.isfinite(rowsum)):
            if not np.isfinite(self.entries[r]).all():
                raise NumericError(f"non-finite transition probability in row {r}")
        if float(np.abs(rowsum - 1.0).max()) > constants.PROB_SUM_TOL:
            raise NumericError("rows do not sum to 1")
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class SpectralReport:
    kind: str
    gap: float
    second_eigenvalue: float
    relaxation_time: float


def _check_capacity(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"{what} needs n <= {limit}, got n = {n}")


def log_weights(system: TwoSpinSystem) -> tuple[np.ndarray, float]:
    """(log configuration weights less a shift, the shift), bit v = sigma_v;
    the largest entry is 0.

    Each factor is shifted by its largest option before summing, so it adds
    0 where it is largest: a parameter of huge magnitude cannot absorb the
    small terms of the configurations that carry the mass.  The table over
    vertices 0..v-1 doubles to 0..v with vertex v's factor and those of its
    edges to lower vertices, so each edge costs O(2^v), not O(2^n)."""
    n = system.n
    _check_capacity(n, constants.VECTOR_LIMIT, "weight enumeration")
    logw = np.zeros(1)
    shift = 0.0
    for v in range(n):
        ll = system.log_lambda[v]
        top = max(ll, 0.0)
        shift += top
        halves = np.empty((2, logw.size))  # row s: the entries with sigma_v = s
        halves[:] = [[ll - top], [-top]]
        for u, e in system.adjacency[v]:  # lower neighbours first
            if u > v:
                break
            lb, lg = system.log_beta[e], system.log_gamma[e]
            top = max(lb, lg, 0.0)
            shift += top
            # a strided view with axes (sigma_v, higher bits, sigma_u, lower
            # bits) takes the option of (sigma_v, sigma_u) in one addition:
            # (0,0) beta, (1,1) gamma
            by_u = halves.reshape(2, -1, 2, 1 << u)
            by_u += np.array([[lb - top, -top],
                              [-top, lg - top]])[:, None, :, None]
        logw = (logw + halves).ravel()
    # the factors' largest options need not meet in one configuration
    top = float(logw.max())
    return logw - top, shift + top


def _weights(system: TwoSpinSystem) -> np.ndarray:
    """Unnormalized weights rescaled so the max is 1 (safe against overflow)."""
    return np.exp(log_weights(system)[0])


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array in the steps of scipy 1.17's
    `special.logsumexp`, so it returns the same bits: the m entries at the
    max enter as log(m), the rest, scaled by exp(-max), through log1p; an
    infinite or NaN result falls back to the direct log(sum(exp(a))), as
    there."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, keepdims=True, dtype=a.dtype)
        rest = np.where(at_max, -np.inf, a)
        s = np.sum(np.exp(rest - a_max), keepdims=True, dtype=a.dtype)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def _distribution(n: int, logw: np.ndarray, shift: float) -> DistributionTable:
    log_z = _logsumexp(logw)
    return DistributionTable(n=n, probs=np.exp(logw - log_z),
                             log_z=log_z + shift)


def gibbs_distribution(system: TwoSpinSystem) -> DistributionTable:
    """probs[sigma] = weight(sigma) / Z, with log Z by a log-sum-exp of the
    `log_weights` table that separates its max terms (Blanchard, Higham and
    Higham, "Accurately computing the log-sum-exp and softmax functions",
    IMA J. Numer. Anal. 2021): bit for bit scipy's `special.logsumexp`,
    which it replaced, in numpy alone."""
    return _distribution(system.n, *log_weights(system))


def _table(system: TwoSpinSystem) -> np.ndarray:
    """log_weights as an array of n 0/1 axes: sigma_v is axis n - 1 - v."""
    return log_weights(system)[0].reshape((2,) * system.n)


def _conditional(table: np.ndarray, pin: Iterable[tuple[int, int]],
                 v: int) -> tuple[float, float]:
    """(p0, p1) of sigma_v given the (vertex, spin) pairs of `pin`, from a
    `_table`.  The pinned axes are indexed, so the sum runs over the free
    vertices only, and the slice is shifted by its own maximum: a pin of
    tiny mass loses no precision."""
    n = table.ndim
    index = [slice(None)] * n
    for u, s in pin:
        index[n - 1 - u] = slice(s, s + 1)
    part = table[tuple(index)]
    w = np.exp(part - part.max())
    index = [slice(None)] * n
    index[n - 1 - v] = 0
    w0 = float(w[tuple(index)].sum())
    index[n - 1 - v] = 1
    w1 = float(w[tuple(index)].sum())
    return w0 / (w0 + w1), w1 / (w0 + w1)


def _check_vertices(system: TwoSpinSystem, *vertices: int) -> None:
    for w in vertices:
        _integer(w, "vertex", system.n)


def conditional_marginal(system: TwoSpinSystem, pin: Pinning,
                         v: int) -> tuple[float, float]:
    """Exact (p0, p1) of sigma_v given the pinning, by summation over the
    pinned slice of the table (independent of the apply_pinning route)."""
    if v in pin:
        raise InputError(f"vertex {v} is pinned")
    _check_vertices(system, v, *pin.domain)
    return _conditional(_table(system), pin.items(), v)


def influence_pair(system: TwoSpinSystem, u: int, v: int) -> float:
    """Pr[X_v=1 | X_u=1] - Pr[X_v=1 | X_u=0], from one table."""
    if u == v:
        raise InputError("influence_pair needs two distinct vertices")
    _check_vertices(system, u, v)
    table = _table(system)
    return (_conditional(table, [(u, 1)], v)[1]
            - _conditional(table, [(u, 0)], v)[1])


def all_to_one_influence(system: TwoSpinSystem, v: int) -> float:
    """sum_{u != v} |Pr[X_v=0 | X_u=0] - Pr[X_v=0 | X_u=1]|, from one
    table: each pin reads its own half of it."""
    _check_vertices(system, v)
    return _all_to_one(_table(system), v)


def _all_to_one(table: np.ndarray, v: int) -> float:
    """`all_to_one_influence` of v read from a `_table`."""
    return sum((abs(_conditional(table, [(u, 0)], v)[0]
                    - _conditional(table, [(u, 1)], v)[0])
                for u in range(table.ndim) if u != v), 0.0)


def _gibbs_and_marginals(system: TwoSpinSystem
                         ) -> tuple[DistributionTable, list[float]]:
    """(gibbs_distribution, p1 of every vertex) from one log-weight table,
    each marginal reduced from the log weights."""
    logw, shift = log_weights(system)
    table = logw.reshape((2,) * system.n)
    return (_distribution(system.n, logw, shift),
            [_conditional(table, (), v)[1] for v in range(system.n)])


# ---------------------------------------------------------------------------
# transition matrices: mixtures and products of block heat-bath operators

def _block_mask(w: np.ndarray, block: Iterable[int]) -> int:
    """Bit mask of `block` over the states indexed by `w`."""
    n = w.shape[0].bit_length() - 1
    bm = 0
    for v in set(block):
        bm |= 1 << _integer(v, "block vertex", n)
    return bm


def _heatbath_columns(w: np.ndarray, bm: int) -> tuple[np.ndarray, np.ndarray]:
    """(off-block sector rest[s] of every state, column weights col[tau] =
    w[tau] / Z_B(rest[tau])) for the nonempty block with mask `bm`: its heat
    bath moves s to tau with probability col[tau] when rest[s] == rest[tau]."""
    rest = np.arange(w.shape[0], dtype=np.int64) & ~bm
    return rest, w / np.bincount(rest, weights=w, minlength=w.shape[0])[rest]


def _add_heatbath(out: np.ndarray, w: np.ndarray, block: Iterable[int],
                  scale: float | np.ndarray) -> None:
    """out[s] += scale[s] * (heat bath on `block` from s), in place.

    `w` holds the configuration weights; `scale` is a scalar or a per-row
    vector.  The empty block is the identity."""
    bm = _block_mask(w, block)
    idx = np.arange(w.shape[0], dtype=np.int64)
    if bm == 0:
        out[idx, idx] += scale
        return
    rest, col = _heatbath_columns(w, bm)
    sub = bm
    while True:
        tau = rest | sub
        out[idx, tau] += scale * col[tau]
        if sub == 0:
            break
        sub = (sub - 1) & bm


def _then_heatbath(A: np.ndarray, w: np.ndarray,
                   block: Iterable[int]) -> np.ndarray:
    """A @ (heat bath on `block`) in O(4^n): sum each row of A over the
    off-block sectors, then scale by the column weights."""
    bm = _block_mask(w, block)
    if bm == 0:
        return A
    rest, col = _heatbath_columns(w, bm)
    order = np.argsort(rest, kind="stable")  # columns grouped by sector
    k = 1 << bm.bit_count()  # states per sector
    sums = np.take(A, order, axis=1).reshape(A.shape[0], -1, k).sum(axis=2)
    out = np.take(sums, np.searchsorted(rest[order][::k], rest), axis=1)
    out *= col
    return out


def _mixture(system: TwoSpinSystem,
             terms: Iterable[tuple[Iterable[int], float | np.ndarray]],
             what: str) -> TransitionMatrix:
    """sum of scale * (heat bath on block) over the (block, scale) terms,
    accumulated into one output matrix."""
    _check_capacity(system.n, constants.MATRIX_LIMIT, what)
    w = _weights(system)
    out = np.zeros((w.size, w.size))
    for block, scale in terms:
        _add_heatbath(out, w, block, scale)
    return TransitionMatrix(n=system.n, entries=out)


def glauber_matrix(system: TwoSpinSystem) -> TransitionMatrix:
    """Single-site heat bath: pick v uniformly, resample from its conditional.
    Non-lazy; the diagonal only collects resamples that keep the old value."""
    n = system.n
    return _mixture(system, [((v,), 1.0 / n) for v in range(n)],
                    "Glauber matrix")


def heatbath_matrix(system: TwoSpinSystem,
                    blocks: Sequence[Iterable[int]]) -> TransitionMatrix:
    """Uniform-random-block heat bath: average of the per-block operators."""
    if not blocks:
        raise InputError("need at least one block")
    return _mixture(system, [(b, 1.0 / len(blocks)) for b in blocks],
                    "block matrix")


def censored_glauber_matrix(system: TwoSpinSystem,
                            subset: Iterable[int]) -> TransitionMatrix:
    """One-step single-site kernel censored to S: picking a vertex outside S
    leaves the state unchanged."""
    n = system.n
    S = {_integer(v, "censored vertex", n) for v in subset}
    terms = [((v,), 1.0 / n) for v in sorted(S)] + [((), (n - len(S)) / n)]
    return _mixture(system, terms, "censored Glauber matrix")


def pinned_glauber_matrix(system: TwoSpinSystem, pin: Pinning
                          ) -> tuple[TransitionMatrix, DistributionTable]:
    """Glauber on the full vertex set with `pin` frozen, restricted to its
    support: picking a pinned vertex resamples it to its pinned value, so on
    the reduced state space each free vertex has weight 1/n and the stay
    has weight k/n."""
    n, k = system.n, len(pin)
    if k >= n:
        raise InputError("pinning must leave at least one free vertex")
    reduced = apply_pinning(system, pin)
    terms = [((v,), 1.0 / n) for v in range(reduced.n)] + [((), k / n)]
    return (_mixture(reduced, terms, "pinned Glauber matrix"),
            gibbs_distribution(reduced))


def field_kernel_matrix(system: TwoSpinSystem,
                        theta: float) -> TransitionMatrix:
    """Exact field-dynamics kernel.  From sigma the resample set S holds
    every 1-vertex and each 0-vertex with probability theta, so
    P = sum_S w_S * (heat bath on S under the tilted measure), with row
    weight w_S(sigma) = theta^|S - sigma| (1-theta)^|V - S| when sigma's
    1-vertices lie in S, and 0 otherwise."""
    tilted = tilt(system, theta)  # refuses a theta outside (0, 1]
    n = system.n
    _check_capacity(n, constants.FIELD_KERNEL_LIMIT, "field kernel")
    idx = np.arange(2 ** n, dtype=np.int64)
    ones = sum((idx >> v) & 1 for v in range(n))

    def terms():
        for smask in range(2 ** n):
            k = bin(smask).count("1")
            scale = np.where((idx & ~smask) == 0,
                             theta ** (k - ones) * (1.0 - theta) ** (n - k),
                             0.0)
            yield [v for v in range(n) if (smask >> v) & 1], scale

    return _mixture(tilted, terms(), "field kernel")


def scan_matrix(system: TwoSpinSystem,
                blocks: Sequence[Iterable[int]]) -> TransitionMatrix:
    """Systematic scan: blocks resampled in list order, blocks[0] first.

    The kernel is the product of the per-block operators in that order (rows
    = source states), so applying it to a row distribution performs
    blocks[0], then blocks[1], ...  A row depends on its start only through
    the spins outside blocks[0], so one row per sector of blocks[0] is
    built: after blocks[0] it holds that block's column weights on the
    sector's states (1 on the start itself for an empty block), each later
    block follows in O(4^n), and the row is copied to its sector.
    """
    if not blocks:
        raise InputError("need at least one block")
    _check_capacity(system.n, constants.MATRIX_LIMIT, "block matrix")
    w = _weights(system)
    idx = np.arange(w.size, dtype=np.int64)
    bm = _block_mask(w, blocks[0])
    rest = idx & ~bm
    starts = idx[rest == idx]  # the state of each sector with blocks[0] at 0
    sector = np.searchsorted(starts, rest)
    rows = np.zeros((starts.size, w.size))
    rows[sector, idx] = _heatbath_columns(w, bm)[1] if bm else 1.0
    for b in blocks[1:]:
        rows = _then_heatbath(rows, w, b)
    return TransitionMatrix(n=system.n, entries=rows[sector])


def check_bipartition(system: TwoSpinSystem,
                      bipartition: tuple[Sequence[int], Sequence[int]]) -> None:
    v0, v1 = (sorted(set(part)) for part in bipartition)
    if sorted(v0 + v1) != list(range(system.n)):
        raise InputError("bipartition does not partition the vertex set")
    for part in (v0, v1):
        pset = set(part)
        for (u, v) in system.edges:
            if u in pset and v in pset:
                raise InputError(
                    f"parts not independent sets: edge ({u},{v}) inside one part")


def alternating_scan_matrix(system: TwoSpinSystem,
                            bipartition: tuple[Sequence[int], Sequence[int]]
                            ) -> TransitionMatrix:
    """Full scan of a bipartition: resample all of V0, then all of V1."""
    check_bipartition(system, bipartition)
    return scan_matrix(system, [bipartition[0], bipartition[1]])


def _checked_eigvalsh(S: np.ndarray, what: str) -> np.ndarray:
    """Ascending eigenvalues of a symmetrized chain (D^(1/2) P D^(-1/2) or
    its quotient), checked to be symmetric with top eigenvalue 1."""
    asym = float(np.abs(S - S.T).max())
    if asym > 1e-8:
        raise NumericError(f"{what}: not reversible (symmetrization residual {asym:.3e})")
    eigs = np.linalg.eigvalsh((S + S.T) / 2.0)
    if abs(eigs[-1] - 1.0) > 1e-8:
        raise NumericError(f"{what}: top eigenvalue {eigs[-1]!r} is not 1")
    return eigs


_RITZ_CHECK_STEPS = 8  # Lanczos steps between residual checks


def _lanczos_lambda2(P: np.ndarray, d: np.ndarray) -> float:
    """lambda_2 of a reversible chain P with stationary law d^2, by Lanczos
    (Paige 1972; Parlett, The Symmetric Eigenvalue Problem, 1998) on
    A = (S + S^T)/2, S = D^(1/2) P D^(-1/2), the matrix that
    `_checked_eigvalsh` diagonalizes.

    A product with A runs over the nonzeros of P (n + 1 per row for
    Glauber).  A's top eigenvector d is deflated explicitly: every Lanczos
    vector is orthogonalized twice against d and all earlier vectors, so
    the top Ritz value converges to lambda_2, which stays 1 for a reducible
    chain.  The start vector has a fixed seed, so a rerun repeats every
    bit.  The loop stops when the top Ritz pair's residual bound
    beta_k |s_k| is at most 1e-13, or when the Krylov space is exhausted,
    where the Ritz values are exact.  The guards are those of
    `_checked_eigvalsh`: S symmetric to 1e-8 over all entries (the entries
    off P's nonzeros are 0 on both sides), A d = d to 1e-8, and no Ritz
    value above 1 + 1e-8."""
    size = d.size
    flat = np.flatnonzero(P != 0.0)
    row, col = np.divmod(flat, size)
    s = d[row] * P.ravel()[flat] / d[col]
    asym = float(np.abs(s - d[col] * P[col, row] / d[row]).max())
    if asym > 1e-8:
        raise NumericError(
            f"glauber chain: not reversible (symmetrization residual {asym:.3e})")
    # A x = (S x + S^T x) / 2, both orientations of the nonzeros in one pass
    dst = np.concatenate((row, col))
    src = np.concatenate((col, row))
    half = 0.5 * np.concatenate((s, s))

    def apply(x: np.ndarray) -> np.ndarray:
        return np.bincount(dst, weights=half * x[src], minlength=size)

    drift = float(np.abs(apply(d) - d).max())
    if drift > 1e-8:
        raise NumericError(
            f"glauber chain: top eigenvalue is not 1 (sqrt(mu) moves by {drift:.3e})")
    # rows: d, then the Lanczos vectors; only the rows used are touched
    basis = np.empty((size, size))
    basis[0] = d / np.linalg.norm(d)
    q = np.random.default_rng(0).standard_normal(size)
    q -= (basis[0] @ q) * basis[0]
    alpha: list[float] = []
    beta = [float(np.linalg.norm(q))]

    def ritz() -> tuple[np.ndarray, np.ndarray]:
        off = beta[1:-1]
        return np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))

    for k in range(1, size):
        basis[k] = q / beta[-1]
        q = apply(basis[k])
        alpha.append(float(basis[k] @ q))
        for _ in range(2):
            q -= (basis[:k + 1] @ q) @ basis[:k + 1]
        beta.append(float(np.linalg.norm(q)))
        if beta[-1] <= 1e-13 or k == size - 1:
            break
        if k % _RITZ_CHECK_STEPS == 0 and beta[-1] * abs(ritz()[1][-1, -1]) <= 1e-13:
            break
    top = float(ritz()[0][-1])
    if top > 1.0 + 1e-8:
        raise NumericError(f"glauber chain: top eigenvalue {top!r} is not 1")
    return top


def _reversiblization_eigs(Q: TransitionMatrix,
                           mu: DistributionTable) -> np.ndarray:
    """Nonzero spectrum of R(Q) = Q Q* on the quotient by identical rows.

    D^(1/2) R D^(-1/2) = U K U^T with K = Qr D^-1 Qr^T over the k distinct
    rows Qr of Q and U[s, c] = sqrt(mu(s)) [row s is in class c], so its
    nonzero eigenvalues are those of the k x k matrix G^(1/2) K G^(1/2),
    G = diag(mu-mass of each class); the other 2^n - k eigenvalues are 0.
    An alternating scan's rows depend only on the second block's spins."""
    p = mu.probs
    drift = stationarity_residual(Q, mu)
    if not drift <= constants.STATIONARITY_TOL:
        raise NumericError(
            f"reversiblization: mu is not stationary (residual {drift:.3e})")
    classes: dict[bytes, int] = {}
    label = np.fromiter(
        (classes.setdefault(row.tobytes(), len(classes)) for row in Q.entries),
        dtype=np.int64, count=p.size)
    _, first = np.unique(label, return_index=True)
    B = Q.entries[first] / np.sqrt(p)[None, :]
    g = np.sqrt(np.bincount(label, weights=p))
    return _checked_eigvalsh(g[:, None] * (B @ B.T) * g[None, :],
                             "reversiblization")


def spectral_report(P: TransitionMatrix, mu: DistributionTable,
                    kind: str) -> SpectralReport:
    """Spectral gap and relaxation time; mu must be strictly positive.

    kind="glauber": reversible chain; gap = 1 - lambda_2(P), relaxation =
    1/gap.  lambda_2 comes from a full eigvalsh of D^(1/2) P D^(-1/2) below
    constants.LANCZOS_MIN_STATES states, and from Lanczos over the nonzeros
    of P, deflated by sqrt(mu), at or above it (`_lanczos_lambda2`).
    kind="alternating_scan": P is the (non-reversible) scan kernel Q, with mu
    stationary; the gap is computed on R(Q) = Q Q*, through its quotient by
    identical rows of Q, and the relaxation time is
    1 / (1 - sqrt(lambda_2(R))).
    """
    if kind not in ("glauber", "alternating_scan"):
        raise InputError(f"unknown spectral report kind {kind!r}")
    if P.n != mu.n:
        raise InputError("size mismatch")
    if np.any(mu.probs <= 0.0):
        raise InputError("spectral report needs a strictly positive measure")
    if kind == "glauber":
        d = np.sqrt(mu.probs)
        if d.size >= constants.LANCZOS_MIN_STATES:
            lam2 = _lanczos_lambda2(P.entries, d)
        else:
            lam2 = float(_checked_eigvalsh(
                (d[:, None] * P.entries) / d[None, :], "glauber chain")[-2])
        gap = 1.0 - lam2
        relax = math.inf if gap <= 0.0 else 1.0 / gap
        return SpectralReport(kind=kind, gap=gap,
                              second_eigenvalue=lam2, relaxation_time=relax)
    eigs = _reversiblization_eigs(P, mu)
    if eigs[0] < -1e-9:
        raise NumericError(
            f"reversiblization has negative eigenvalue {eigs[0]!r}")
    lam2 = min(max(float(eigs[-2]) if eigs.size > 1 else 0.0, 0.0), 1.0)
    gap = 1.0 - lam2
    root = math.sqrt(lam2)
    relax = math.inf if root >= 1.0 else 1.0 / (1.0 - root)
    return SpectralReport(kind=kind, gap=gap,
                          second_eigenvalue=lam2, relaxation_time=relax)


def stationarity_residual(P: TransitionMatrix, mu: DistributionTable) -> float:
    """||mu P - mu||_1."""
    if P.n != mu.n:
        raise InputError("size mismatch")
    return float(np.abs(mu.probs @ P.entries - mu.probs).sum())


def detailed_balance_residual(P: TransitionMatrix, mu: DistributionTable) -> float:
    """max relative asymmetry of mu(s) P(s,t) over transition pairs."""
    if P.n != mu.n:
        raise InputError("size mismatch")
    flow = mu.probs[:, None] * P.entries
    scale = np.maximum(np.maximum(flow, flow.T), 1e-300)
    rel = np.abs(flow - flow.T) / scale
    rel[(flow == 0.0) & (flow.T == 0.0)] = 0.0
    return float(rel.max())


def tv_from_start(P: TransitionMatrix, mu: DistributionTable,
                  start: int, steps: int) -> float:
    """TV(P^steps(start, .), mu) by vector powering from one start state."""
    if P.n != mu.n:
        raise InputError("size mismatch")
    _integer(start, "start state", 2 ** P.n)
    if _integer(steps, "steps") < 0:
        raise InputError(f"steps must be at least 0, got {steps}")
    nu = np.zeros(2 ** P.n)
    nu[start] = 1.0
    for _ in range(steps):
        nu = nu @ P.entries
    return 0.5 * float(np.abs(nu - mu.probs).sum())


def exact_mixing_time(P: TransitionMatrix, mu: DistributionTable, eps: float,
                      cap: int = constants.MIXING_STEP_CAP) -> int:
    """min t <= cap with max-over-starts TV(P^t(s,.), mu) < eps.

    Each start's TV d_s(t) is non-increasing in t when mu P = mu, because
    P^(t+1)(s,.) - mu = (P^t(s,.) - mu) P (Levin, Peres and Wilmer, Markov
    Chains and Mixing Times, 4.4); with a residual r = mu P - mu it rises by
    at most |r|_1 / 2 per step.  A mu whose residual exceeds
    constants.STATIONARITY_TOL is refused.  P is squared until
    d(2^k) = max_s d_s(2^k) < eps or 2^(k+1) would pass the cap, and t is
    then found by bisection over the stored powers P^(2^j).

    Only the kept starts are carried: those whose distance, plus the most
    the residual lets it rise by the last time still to be tested, is still
    at least eps; a start that is dropped stays below eps at every later
    tested time, so t is that of the search over every start.  A power is
    formed in full only while it is squared next, since every later product
    multiplies by it on the right: it is the kept rows' product when no row
    was dropped, and a full square otherwise.  Every other product, the
    check of the last doubling and the bisection steps, multiplies only the
    kept rows."""
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0,1), got {eps}")
    drift = stationarity_residual(P, mu)  # checks the sizes
    if not drift <= constants.STATIONARITY_TOL:
        raise NumericError(
            f"mixing time: mu is not stationary (residual {drift:.3e})")

    def capped(residual: float) -> NonconvergenceError:
        return NonconvergenceError(
            f"mixing time exceeded cap {cap} (last TV {residual:.3e})",
            steps=cap, residual=residual)

    def kept(low, d, steps):
        """The rows whose distance can still reach eps within `steps` more
        steps."""
        keep = d + 0.5 * drift * steps >= eps
        if keep.all():
            return low, d
        return low[keep], d[keep]

    if _integer(cap, "cap") < 1:
        raise capped(math.inf)
    size = P.entries.shape[0]
    powers = [P.entries]  # powers[j] = P^(2^j), in full
    # low holds the kept rows of P^lo, d their distances
    low, lo = P.entries, 1
    d = _row_tvs(low, mu)
    if d.max() < eps:
        return 1
    while 2 * lo <= cap:
        low, d = kept(low, d, cap - lo)
        M = low @ powers[-1]  # the kept rows of P^(2 lo)
        dM = _row_tvs(M, mu)
        if dM.max() < eps:
            break
        if 4 * lo <= cap:  # P^(2 lo) is squared next: form it in full
            powers.append(M if M.shape[0] == size
                          else powers[-1] @ powers[-1])
        low, d, lo = M, dM, 2 * lo
    M = dM = None  # the last doubling's check
    # d(lo) >= eps, and d(2 lo) < eps or 2 lo > cap: add lo's lower bits
    # from the top down, keeping lo the last step with d >= eps
    del powers[lo.bit_length() - 1:]
    for j in range(len(powers) - 1, -1, -1):
        step = powers.pop()
        if lo + 2 ** j > cap:
            continue
        low, d = kept(low, d, min(cap - lo, 2 ** (j + 1) - 1))
        M = low @ step
        dM = _row_tvs(M, mu)
        if dM.max() >= eps:
            low, d, lo = M, dM, lo + 2 ** j
        del M
    if lo == cap:
        raise capped(float(d.max()))
    return lo + 1


def _mixing_time_and_distance(P: TransitionMatrix, mu: DistributionTable,
                              eps: float, cap: int) -> tuple[int, float]:
    """(t, d(t)) for t = exact_mixing_time(P, mu, eps, cap), with d(t) the
    worst-start TV over every start, read off P^t: the search carries only
    the starts it has not yet seen mix."""
    t = exact_mixing_time(P, mu, eps, cap)
    return t, float(_row_tvs(np.linalg.matrix_power(P.entries, t), mu).max())


def _row_tvs(M: np.ndarray, mu: DistributionTable) -> np.ndarray:
    """TV(M[s, .], mu) of every row s."""
    dev = M - mu.probs[None, :]
    np.abs(dev, out=dev)
    return 0.5 * dev.sum(axis=1)
