"""Brute-force reference on the raw (m1, m2) momentum lattice.

This module deliberately shares nothing with the transformed-coordinate
pipeline beyond the configuration object: the Hamiltonian is assembled
directly from the two-rotor momentum representation (kinetic diagonal, each
cosine harmonic p hopping (m1, m2) -> (m1 + p n1, m2 - p n2)), states are
evolved by exact diagonalisation of each disconnected hopping component of
that lattice, and kicks shift the amplitude array.  A component is
diagonalised on demand: only those the ground-state search cannot rule out
by their Gershgorin bound, and those the state carries amplitude on.
Agreement with the fast pipeline is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, TruncationBreach
from .model import GearConfig

__all__ = [
    "LatticeState",
    "OracleSeries",
    "build_full_hamiltonian",
    "oracle_ground_state",
    "oracle_apply_kick",
    "oracle_run",
]

_EDGE_TOL = 1e-10


def _check_edges(config: GearConfig, cutoff: int, p: np.ndarray) -> None:
    """Raise if probability p[i1, i2, ...] sits where the fundamental hop
    (n1, -n2) would leave the lattice: |m1| > cutoff - n1 or
    |m2| > cutoff - n2.  A component stepping by n > 1 can miss the outermost
    ring entirely, so that ring alone does not detect a breach.

    This bounds probability, not the error of an observable: moments weight
    the edge by up to cutoff^2, so L2_sq can be off by far more than the
    tolerance (1.4e-9 at 2:2, 2nd-harmonic profile, V0 = 20, ell = 5,
    cutoff 20; still open in CHANGES.md)."""
    m = np.abs(np.arange(-cutoff, cutoff + 1))
    edge = (m[:, None] > cutoff - config.n1) | (m[None, :] > cutoff - config.n2)
    occ = float(np.max(p[edge].sum(axis=0), initial=0.0))
    if occ > _EDGE_TOL:
        raise TruncationBreach(
            f"probability {occ:.3e} at the lattice boundary; enlarge cutoff"
        )


@dataclass
class LatticeState:
    """Wavefunction over the square window |m1|, |m2| <= cutoff.

    amplitudes[i1, i2] is the amplitude of |m1 = i1 - cutoff, m2 = i2 - cutoff>.
    """

    config: GearConfig
    cutoff: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def check_edges(self) -> None:
        _check_edges(self.config, self.cutoff, np.abs(self.amplitudes) ** 2)


def build_full_hamiltonian(config: GearConfig, cutoff: int) -> scipy.sparse.csr_matrix:
    """Sparse two-rotor Hamiltonian on the truncated lattice."""
    import scipy.sparse as sp
    if cutoff < config.n1 + config.n2:
        raise ValueError(
            f"cutoff {cutoff} too small; need at least n1 + n2 = {config.n1 + config.n2}"
        )
    N = 2 * cutoff + 1
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    m1g, m2g = np.meshgrid(m, m, indexing="ij")
    diag = (m1g ** 2 / (2.0 * config.I1) + m2g ** 2 / (2.0 * config.I2)
            - config.V0 * config.potential.a0).ravel()

    rows = [np.arange(N * N)]
    cols = [np.arange(N * N)]
    vals = [diag]
    i1g, i2g = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    for p, a_p in config.potential.harmonics():
        if config.V0 * a_p == 0.0:
            continue
        d1, d2 = p * config.n1, -p * config.n2
        mask = ((i1g + d1 >= 0) & (i1g + d1 < N)
                & (i2g + d2 >= 0) & (i2g + d2 < N))
        src = (i1g[mask] * N + i2g[mask])
        tgt = ((i1g[mask] + d1) * N + (i2g[mask] + d2))
        strength = np.full(src.size, -config.V0 * a_p / 2.0)
        rows.extend([tgt, src])
        cols.extend([src, tgt])
        vals.extend([strength, strength])
    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * N, N * N),
    )
    return H.tocsr()


class Components:
    """The lattice Hamiltonian's hopping components, each diagonalised the
    first time it is needed.  Every harmonic hops by a multiple of (n1, -n2),
    so H is block diagonal in its connected components; each block is
    diagonalised densely on its own.  Solved blocks live as long as this
    object; the public functions build one per call unless given one."""

    def __init__(self, config: GearConfig, cutoff: int):
        from scipy.sparse.csgraph import connected_components
        H = build_full_hamiltonian(config, cutoff)
        _, labels = connected_components(H, directed=False)
        self.order = np.argsort(labels, kind="stable")
        self.H = H[self.order][:, self.order]  # each component a contiguous block
        sizes = np.bincount(labels)
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        # Gershgorin: no eigenvalue of a block lies below min_i H_ii - sum_j!=i |H_ij|
        diag = self.H.diagonal()
        radius = np.asarray(abs(self.H).sum(axis=1)).ravel() - np.abs(diag)
        self.bounds = np.minimum.reduceat(diag - radius, self.starts)
        # far above eigh's round-off; a wider margin only solves more blocks
        self.margin = 1e-8 * (1.0 + np.abs(diag).max())
        self._solved: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lattice indices, eigenvalues, eigenvectors) of component k."""
        if k not in self._solved:
            s, e = int(self.starts[k]), int(self.ends[k])
            try:
                w, v = scipy.linalg.eigh(self.H[s:e, s:e].toarray())
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"component eigensolve failed: {exc}") from exc
            self._solved[k] = (self.order[s:e], w, v)
        return self._solved[k]

    def ground(self) -> int:
        """The component with the lowest eigenvalue, the first one on a tie.
        Components are solved in ascending bound order until every bound
        left lies above the best eigenvalue found."""
        best, ground = np.inf, -1
        for k in np.argsort(self.bounds, kind="stable").tolist():
            if self.bounds[k] > best + self.margin:
                break
            lowest = self[k][1][0]
            if lowest < best or (lowest == best and k < ground):
                best, ground = lowest, k
        return ground

    def carrying(self, c: np.ndarray) -> np.ndarray:
        """Indices of the components on which c has nonzero amplitude."""
        nonzero = np.flatnonzero(c[self.order])
        return np.unique(np.searchsorted(self.ends, nonzero, side="right"))


def _propagate(components: Components, c: np.ndarray, times) -> np.ndarray:
    """exp(-iHt) c for every t in `times`, shape (c.size, len(times)).
    Components that carry no amplitude stay exactly zero and are never
    diagonalised."""
    out = np.zeros((c.size, len(times)), dtype=complex)
    for k in components.carrying(c).tolist():
        idx, w, v = components[k]
        a = v.T @ c[idx]
        out[idx] = v @ (np.exp(-1j * np.outer(w, times)) * a[:, None])
    return out


def oracle_ground_state(config: GearConfig, cutoff: int,
                        components: Components | None = None) -> LatticeState:
    """Lowest eigenpair over all hopping components, sign fixed so that the
    largest amplitude is positive."""
    if components is None:
        components = Components(config, cutoff)
    idx, _, v = components[components.ground()]
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    N = 2 * cutoff + 1
    amplitudes = np.zeros(N * N, dtype=complex)
    amplitudes[idx] = vec
    state = LatticeState(config, cutoff, amplitudes.reshape(N, N))
    state.check_edges()
    return state


def oracle_apply_kick(state: LatticeState, l1: int = 0, l2: int = 0) -> LatticeState:
    """Shift amplitudes by (l1, l2); anything pushed past the window edge
    must be negligible or the truncation is breached."""
    N = 2 * state.cutoff + 1
    new = np.zeros_like(state.amplitudes)
    src1 = slice(max(0, -l1), min(N, N - l1))
    src2 = slice(max(0, -l2), min(N, N - l2))
    dst1 = slice(max(0, l1), min(N, N + l1))
    dst2 = slice(max(0, l2), min(N, N + l2))
    new[dst1, dst2] = state.amplitudes[src1, src2]
    dropped = state.norm() - float(np.sum(np.abs(new) ** 2))
    if dropped > _EDGE_TOL:
        raise TruncationBreach(
            f"kick ({l1}, {l2}) pushed probability {dropped:.3e} off the lattice"
        )
    out = LatticeState(state.config, state.cutoff, new)
    out.check_edges()
    return out


def oracle_evolve(state: LatticeState, t: float,
                  components: Components | None = None) -> LatticeState:
    """Evolve by the spectral propagator of each hopping component."""
    if components is None:
        components = Components(state.config, state.cutoff)
    c_t = _propagate(components, state.amplitudes.ravel(), [t])[:, 0]
    return LatticeState(state.config, state.cutoff,
                        c_t.reshape(state.amplitudes.shape))


def _moments(p: np.ndarray, m: np.ndarray):
    """L1, L2, L2^2 and the gear-2 marginal of p[i1, i2, ...]."""
    p1 = p.sum(axis=1)
    p2 = p.sum(axis=0)
    return m @ p1, m @ p2, (m * m) @ p2, p2


@dataclass(frozen=True)
class OracleSeries:
    """Expectation values (and gear-2 distributions) on a time grid."""

    times: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    L2_sq: np.ndarray
    norm: np.ndarray
    m_values: np.ndarray      # gear-2 momentum axis
    gear2: np.ndarray         # shape (len(times), len(m_values))


def oracle_run(config: GearConfig, protocol, times, cutoff: int) -> OracleSeries:
    """Ground state -> kick train -> sampled evolution, all on the raw
    lattice.  `protocol` provides kick_momenta(), resolved_num_kicks() and
    delta_t with the same semantics as the pipeline's KickProtocol
    (duck-typed: this module never imports it)."""
    times = np.asarray(times, dtype=float)
    components = Components(config, cutoff)
    state = oracle_ground_state(config, cutoff, components)
    l1, l2 = protocol.kick_momenta()
    num = protocol.resolved_num_kicks()
    for i in range(num):
        state = oracle_apply_kick(state, l1, l2)
        if i < num - 1 and protocol.delta_t > 0:
            state = oracle_evolve(state, protocol.delta_t, components)

    N = 2 * cutoff + 1
    c = _propagate(components, state.amplitudes.ravel(), times)
    p = (np.abs(c) ** 2).reshape(N, N, len(times))
    _check_edges(config, cutoff, p)
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    L1, L2, L2_sq, gear2 = _moments(p, m)
    return OracleSeries(times, L1, L2, L2_sq, p.sum(axis=(0, 1)), m, gear2.T)
