"""Truncated bi-variate arrival lattice and its transient integrals.

Within one non-preemptive action interval the pair of accumulated arrival
counts is a bi-variate birth process.  This module builds its truncated
generator, integrates the transient probabilities with an explicit Euler
mesh, and computes the expected (optionally discounted) arrival
probabilities plus the two holding-cost components that the decision-model
builders consume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, sparse

from .distributions import Deterministic, DurationDist
from .model import ScenarioConfig, StateIndexer, Truncation

TAIL_QUANTILE = 1.0 - 1e-9  # cutoff percentile for event-duration support
NEGATIVE_TOL = -1e-12  # float noise clamped to zero; worse aborts


class MeshStabilityError(ValueError):
    """Euler step too large for the generator's fastest outflow."""


class MeshCoverageError(ValueError):
    """Mesh does not cover the required duration support."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse generator of the truncated arrival-count birth process."""

    Q: sparse.csr_matrix
    mode: Truncation
    N1: int
    N2: int
    indexer: StateIndexer
    gamma_max: float  # largest row outflow, bounds the stable Euler step

    @property
    def size(self) -> int:
        return self.indexer.size


@dataclass(frozen=True)
class TransientMesh:
    """Transient probability vectors phi(tau_k) on a fixed-step time mesh."""

    times: np.ndarray  # (K+1,)
    probs: np.ndarray  # (K+1, size)
    mode: Truncation
    N1: int
    N2: int

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def interpolate(self, t: float) -> np.ndarray:
        """Linear interpolation of the probability vector at time t."""
        if t < 0 or t > self.times[-1] + 1e-12:
            raise MeshCoverageError(f"t={t} outside mesh [0, {self.times[-1]}]")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1.0 - w) * self.probs[k] + w * self.probs[k + 1]


@dataclass(frozen=True)
class ArrivalSummary:
    """Per-event arrival probabilities and holding-cost scalars."""

    event: str
    dist: DurationDist
    P: np.ndarray  # expected arrival probabilities over the lattice
    P_beta: np.ndarray  # discounted counterpart (not a pmf)
    C_H: float  # discounted unit holding cost of customers present at entry
    C_I: float  # expected discounted holding cost of in-interval arrivals
    tail_mass: float  # duration mass beyond the mesh cutoff (diagnostic)


def _cell_rates(cfg: ScenarioConfig, a1: np.ndarray, a2: np.ndarray):
    """Arrival rates of the lattice cells (a1, a2), as two float arrays."""
    if cfg.rate_fn is None:
        return np.full(a1.shape, float(cfg.lambda1)), np.full(a1.shape, float(cfg.lambda2))
    rates = np.array([cfg.rate_fn(x, y) for x, y in zip(a1.tolist(), a2.tolist())],
                     dtype=float).reshape(-1, 2)
    negative = np.flatnonzero((rates < 0).any(axis=1))
    if negative.size:
        j = negative[0]
        raise ValueError(f"rate_fn returned negative rates at ({a1[j]}, {a2[j]})")
    return rates[:, 0], rates[:, 1]


def build_generator(cfg: ScenarioConfig) -> GeneratorMatrix:
    """Assemble the truncated generator over the (N1+1)x(N2+1) count lattice.

    Absorbing mode keeps every row conservative and funnels all overflow into
    the corner cell; unassigned-outflow mode keeps the full diagonal and
    simply drops flows past the edges, leaving boundary rows sub-conservative.
    """
    N1, N2 = cfg.N1, cfg.N2
    indexer = StateIndexer((N1, N2))
    cell = np.arange(indexer.size)
    a1, a2 = indexer.unflatten(cell)
    lam1, lam2 = _cell_rates(cfg, a1, a2)
    out1 = np.where(a1 < N1, lam1, 0.0)
    out2 = np.where(a2 < N2, lam2, 0.0)
    if cfg.truncation_mode is Truncation.ABSORBING:
        diag = -(out1 + out2)
    else:
        diag = -(lam1 + lam2)
    s1, s2 = indexer.strides
    vals = np.stack([out1, out2, diag], axis=1)
    keep = np.stack([out1 > 0, out2 > 0, diag != 0.0], axis=1)
    rows = np.broadcast_to(cell[:, None], keep.shape)[keep]
    cols = np.stack([cell + s1, cell + s2, cell], axis=1)[keep]
    Q = sparse.csr_matrix(
        (vals[keep], (rows, cols)), shape=(indexer.size, indexer.size), dtype=float
    )
    gamma_max = max(0.0, float(-diag.min()))
    return GeneratorMatrix(Q=Q, mode=cfg.truncation_mode, N1=N1, N2=N2,
                           indexer=indexer, gamma_max=gamma_max)


def default_step(gen: GeneratorMatrix, t_end: float) -> float:
    """Fixed Euler step: min(0.05 / gamma_max, t_end / 2000)."""
    if gen.gamma_max <= 0:
        return t_end / 2000.0 if t_end > 0 else 1.0
    return min(0.05 / gen.gamma_max, t_end / 2000.0)


def transient_mesh(gen: GeneratorMatrix, t_end: float, dt: float) -> TransientMesh:
    """Integrate d(phi)/dt = phi Q with explicit forward Euler steps.

    The step must satisfy dt <= 0.1 / gamma_max or the explicit scheme is
    rejected outright.
    """
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if gen.gamma_max > 0 and dt > 0.1 / gen.gamma_max + 1e-15:
        raise MeshStabilityError(
            f"dt={dt} exceeds stability bound {0.1 / gen.gamma_max:.3e} "
            f"(gamma_max={gen.gamma_max})"
        )
    K = max(int(math.ceil(t_end / dt)), 1) if t_end > 0 else 0
    times = np.arange(K + 1, dtype=float) * dt
    size = gen.size
    probs = np.empty((K + 1, size), dtype=float)
    phi = np.zeros(size, dtype=float)
    phi[0] = 1.0
    probs[0] = phi
    QT = gen.Q.T.tocsr()
    for k in range(K):
        phi = phi + dt * QT.dot(phi)
        low = phi.min()
        if low < 0:
            if low < NEGATIVE_TOL:
                raise ValueError(
                    f"transient probability went negative ({low:.3e}) at step {k + 1}"
                )
            phi = np.maximum(phi, 0.0)
        probs[k + 1] = phi
    mesh = TransientMesh(times=times, probs=probs, mode=gen.mode, N1=gen.N1, N2=gen.N2)
    _check_mass(mesh)
    return mesh


def _check_mass(mesh: TransientMesh) -> None:
    sums = mesh.probs.sum(axis=1)
    if mesh.mode is Truncation.ABSORBING:
        worst = np.abs(sums - 1.0).max()
        if worst > 1e-6:
            raise ValueError(f"absorbing mesh lost mass: |sum-1| up to {worst:.3e}")
    else:
        if sums.max() > 1.0 + 1e-9:
            raise ValueError("unassigned-outflow mesh exceeded unit mass")
        if np.any(np.diff(sums) > 1e-9):
            raise ValueError("unassigned-outflow mesh mass increased over time")


def _require_coverage(mesh: TransientMesh, f_e: DurationDist) -> float:
    """Return the duration tail mass beyond the mesh; error when material."""
    if isinstance(f_e, Deterministic):
        needed = f_e.value
        tail = 0.0 if mesh.t_end + 1e-12 >= needed else 1.0
    else:
        needed = f_e.quantile(TAIL_QUANTILE)
        tail = float(1.0 - f_e.cdf(mesh.t_end))
    if mesh.t_end + 1e-12 < needed:
        raise MeshCoverageError(
            f"mesh ends at {mesh.t_end:.6g} but event support extends to "
            f"{needed:.6g}; truncated tail mass {tail:.3e}"
        )
    return tail


def expected_arrival_probs(
    mesh: TransientMesh, f_e: DurationDist, beta: Optional[float] = None
) -> np.ndarray:
    """Expected arrival probabilities over one event, optionally discounted.

    Composite trapezoid of phi(t) * f_e(t) * exp(-beta t) on the Euler mesh;
    a deterministic duration short-circuits to point evaluation.
    """
    _require_coverage(mesh, f_e)
    if isinstance(f_e, Deterministic):
        vec = mesh.interpolate(f_e.value)
        if beta is not None:
            vec = vec * math.exp(-beta * f_e.value)
        return vec.copy()
    w = f_e.pdf(mesh.times)
    if beta is not None:
        w = w * np.exp(-beta * mesh.times)
    return np.trapezoid(w[:, None] * mesh.probs, mesh.times, axis=0)


def holding_cost_existing(f_e: DurationDist, beta: float) -> float:
    """Discounted unit holding cost over one event duration.

    Integrates f_e(t) * (1 - exp(-beta t)) / beta by adaptive quadrature; the
    caller scales by (c1 n1 + c2 n2).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if isinstance(f_e, Deterministic):
        return (1.0 - math.exp(-beta * f_e.value)) / beta
    upper = f_e.quantile(1.0 - 1e-12)
    val, _ = integrate.quad(
        lambda t: float(f_e.pdf(t)) * (1.0 - math.exp(-beta * t)) / beta,
        0.0,
        upper,
        limit=200,
    )
    return val


def holding_cost_arrivals(
    mesh: Optional[TransientMesh], f_e: DurationDist, cfg: ScenarioConfig
) -> float:
    """Expected discounted holding cost of the arrivals within one event.

    A customer arriving at time tau accrues cost from tau until the event
    completes, so the expected cost is the duration-weighted integral of
    the discounted accumulation of c1*E[a1(tau)] + c2*E[a2(tau)].  With
    homogeneous rates the expected counts grow linearly and the whole double
    integral collapses to the closed form
    (c1 l1 + c2 l2) * (1 - E[e^{-bt}] - b E[t e^{-bt}]) / b^2, which is both
    fast and free of lattice truncation error.  Non-homogeneous rates fall
    back to nested trapezoid quadrature on the mesh.
    """
    beta = cfg.beta
    if cfg.rate_fn is None:
        weight = cfg.c1 * cfg.lambda1 + cfg.c2 * cfg.lambda2
        if weight == 0.0:
            return 0.0
        return (
            weight
            * (1.0 - f_e.discount_factor(beta) - beta * f_e.discounted_mean(beta))
            / beta**2
        )
    if mesh is None:
        raise ValueError("non-homogeneous arrival costs require a transient mesh")
    _require_coverage(mesh, f_e)
    indexer = StateIndexer((mesh.N1, mesh.N2))
    a1, a2 = indexer.unflatten(np.arange(indexer.size))
    cell_cost = cfg.c1 * np.asarray(a1, dtype=float) + cfg.c2 * np.asarray(a2, dtype=float)
    rate = mesh.probs @ cell_cost  # expected cost-weighted counts at each time
    integrand = np.exp(-beta * mesh.times) * rate
    # inner accumulation G(t) = int_0^t e^{-beta tau} rate(tau) d tau
    seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(mesh.times)
    G = np.concatenate(([0.0], np.cumsum(seg)))
    if isinstance(f_e, Deterministic):
        k = int(np.searchsorted(mesh.times, f_e.value, side="right")) - 1
        k = min(max(k, 0), len(mesh.times) - 2)
        t0, t1 = mesh.times[k], mesh.times[k + 1]
        w = 0.0 if t1 == t0 else (f_e.value - t0) / (t1 - t0)
        return float((1.0 - w) * G[k] + w * G[k + 1])
    return float(np.trapezoid(f_e.pdf(mesh.times) * G, mesh.times))


def build_arrival_summaries(cfg: ScenarioConfig, dt: Optional[float] = None) -> dict:
    """Arrival summaries for the four serial events of the polling model.

    One generator and one mesh (long enough for the slowest event) are shared
    by all events.  Keys: 'serve1', 'serve2', 'switch12', 'switch21'.
    """
    events = {
        "serve1": cfg.serve1,
        "serve2": cfg.serve2,
        "switch12": cfg.switch12,
        "switch21": cfg.switch21,
    }
    gen = build_generator(cfg)
    t_end = max(
        d.value if isinstance(d, Deterministic) else d.quantile(TAIL_QUANTILE)
        for d in events.values()
    )
    t_end = max(t_end, 1e-9)
    step = default_step(gen, t_end) if dt is None else dt
    mesh = transient_mesh(gen, t_end, step)
    out = {}
    for name, dist in events.items():
        tail = _require_coverage(mesh, dist)
        P = expected_arrival_probs(mesh, dist)
        P_beta = expected_arrival_probs(mesh, dist, beta=cfg.beta)
        total = P.sum()
        if cfg.truncation_mode is Truncation.ABSORBING and total > 1.0:
            # quadrature overshoot; rescale so transition rows stay sub-stochastic
            P /= total
            P_beta /= total
        out[name] = ArrivalSummary(
            event=name,
            dist=dist,
            P=P,
            P_beta=P_beta,
            C_H=holding_cost_existing(dist, cfg.beta),
            C_I=holding_cost_arrivals(mesh, dist, cfg),
            tail_mass=tail,
        )
    return out


def pool_lattice(vec: np.ndarray, fine_dims, coarse_dims) -> np.ndarray:
    """Pool a fine-lattice vector onto a coarser lattice.

    Mass at fine cell (a1, a2) lands on (min(a1, N1), min(a2, N2)); edge and
    corner cells therefore accumulate everything beyond the coarse bounds.
    """
    Nf1, Nf2 = fine_dims
    N1, N2 = coarse_dims
    fine = StateIndexer((Nf1, Nf2))
    coarse = StateIndexer((N1, N2))
    if len(vec) != fine.size:
        raise ValueError("vector length does not match fine lattice")
    out = np.zeros(coarse.size, dtype=float)
    a1, a2 = fine.unflatten(np.arange(fine.size))
    tgt = coarse.flatten(np.minimum(a1, N1), np.minimum(a2, N2))
    np.add.at(out, tgt, vec)
    return out


def snapshot_lattice(vec: np.ndarray, fine_dims, coarse_dims) -> np.ndarray:
    """Restrict a fine-lattice vector to the cells of a coarser lattice."""
    Nf1, Nf2 = fine_dims
    N1, N2 = coarse_dims
    fine = StateIndexer((Nf1, Nf2))
    coarse = StateIndexer((N1, N2))
    out = np.zeros(coarse.size, dtype=float)
    for a1 in range(N1 + 1):
        for a2 in range(N2 + 1):
            out[coarse.flatten(a1, a2)] = vec[fine.flatten(a1, a2)]
    return out


def write_mesh_csv(mesh: TransientMesh, path, stride: int = 1) -> None:
    """Dump the mesh as rows (t, idx, n1, n2, phi) for plotting/debugging."""
    indexer = StateIndexer((mesh.N1, mesh.N2))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "idx", "n1", "n2", "phi"])
        for k in range(0, len(mesh.times), stride):
            t = mesh.times[k]
            for idx in range(indexer.size):
                a1, a2 = indexer.unflatten(idx)
                writer.writerow([repr(float(t)), idx, a1, a2, repr(float(mesh.probs[k, idx]))])
