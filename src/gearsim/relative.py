"""Relative-rotor Hamiltonian on the allowed momentum lattice.

In the momentum basis the relative Hamiltonian is banded: kinetic energy on
the diagonal, and each cosine harmonic p of the tooth profile couples grid
points separated by exactly p * n in mu_r.  Because those coupling steps are
a fixed multiple of the grid spacing, the matrix decouples into independent
sectors labelled by the conserved Bloch residue k = mu_r mod n; each sector
is diagonalized on its own, which keeps exactly degenerate partners from
different sectors from being mixed by the eigensolver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, gcd, isfinite

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, InternalInconsistency, UnsupportedInertiaError
from .model import (
    DerivedGeometry,
    GridSpec,
    allowed_relative_grid,
    bloch_label,
)

__all__ = [
    "BandedHamiltonian",
    "EigenSystem",
    "RotorState",
    "BandStructure",
    "build_hamiltonian",
    "eigendecompose",
    "eigensystem_for",
    "band_structure",
    "ground_state",
]

# Occupation allowed in the outer TAIL_FRACTION of any trusted grid window.
TAIL_BOUND = 1e-12
TAIL_FRACTION = 0.10
# Relative gap below which two eigenvalues are treated as one degenerate level.
DEGENERACY_TOL = 1e-9
# Every dynamical grid keeps at least this half-width.
MIN_HALF_WIDTH = 32
# No window-growth loop goes past this half-width.  Its dense eigenvector
# matrix holds (2 * 1024 + 1)^2 doubles, 34 MB; ell = 400 on 2:2 needs 242.
MAX_HALF_WIDTH = 1024
# Extra lattice steps kept beyond the occupied support of a state.
MARGIN_STEPS = 24
# |amplitude|^2 below this counts as unoccupied for support bookkeeping.
SUPPORT_EPS = 1e-28
# Eigensystems kept by eigensystem_for.  One transmission sweep point adds
# at most 22 windows and `gearsim verify` needs 26.
EIGEN_CACHE_SIZE = 64


@dataclass(frozen=True)
class BandedHamiltonian:
    """Real symmetric banded matrix over a GridSpec.

    couplings lists (step, strength): H[i, i+step] = strength for every i.
    """

    geom: DerivedGeometry
    grid: GridSpec
    diag: np.ndarray
    couplings: tuple[tuple[int, float], ...]

    @property
    def dim(self) -> int:
        return self.grid.size

    def matvec(self, c: np.ndarray) -> np.ndarray:
        out = self.diag * c
        for step, strength in self.couplings:
            out[step:] += strength * c[:-step]
            out[:-step] += strength * c[step:]
        return out


def build_hamiltonian(geom: DerivedGeometry, grid: GridSpec) -> BandedHamiltonian:
    """Relative Hamiltonian restricted to a lattice window.

    Diagonal: mu_r^2/(2 I_r) - V0 a0.  Harmonic p of the profile couples
    mu_r to mu_r +/- p*n with strength -V0 a_p / 2.
    """
    if not geom.equal_inertia:
        raise UnsupportedInertiaError("relative Hamiltonian requires I1 == I2")
    cfg = geom.config
    mu = grid.values()
    diag = mu * mu / (2.0 * geom.I_r) - cfg.V0 * cfg.potential.a0
    couplings = []
    for p, a_p in cfg.potential.harmonics():
        step_exact = Fraction(p * geom.n) / grid.spacing
        if step_exact.denominator != 1:
            # a coupling that does not hit the lattice cannot occur for
            # grids built by allowed_relative_grid; guard anyway
            raise ValueError(
                f"harmonic {p} step {p * geom.n} is not a multiple of grid spacing"
            )
        step = int(step_exact)
        if cfg.V0 * a_p != 0.0:
            couplings.append((step, -cfg.V0 * a_p / 2.0))
    max_step = max((s for s, _ in couplings), default=0)
    if grid.half_width < 2 * max_step:
        raise ValueError(
            f"half_width {grid.half_width} too small for coupling step {max_step}"
            " (need at least twice the longest step)"
        )
    return BandedHamiltonian(geom, grid, diag, tuple(couplings))


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition of a banded relative Hamiltonian.

    States are sorted by (energy, Bloch label); each eigenvector lives
    entirely inside one Bloch sector of the grid.
    """

    geom: DerivedGeometry
    grid: GridSpec
    energies: np.ndarray          # ascending
    vectors: np.ndarray           # column i is eigenvector i
    labels: tuple[Fraction, ...]  # Bloch residue of each state

    @property
    def dim(self) -> int:
        return self.grid.size

    def degenerate_groups(self, tol: float = DEGENERACY_TOL) -> list[np.ndarray]:
        """Indices grouped into (near-)degenerate energy levels."""
        groups = []
        start = 0
        e = self.energies
        for i in range(1, len(e) + 1):
            if i == len(e) or (e[i] - e[i - 1]) > tol * max(1.0, abs(e[i])):
                groups.append(np.arange(start, i))
                start = i
        return groups


def _fix_signs(vectors: np.ndarray) -> None:
    """Deterministic gauge: first entry of visible magnitude is positive.
    All-zero columns are left as they are."""
    mag = np.abs(vectors)
    visible = mag > 1e-12 * mag.max(axis=0)
    first = np.argmax(visible, axis=0)
    cols = np.arange(vectors.shape[1])
    flip = visible[first, cols] & (vectors[first, cols] < 0)
    vectors[:, flip] = -vectors[:, flip]


def eigendecompose(ham: BandedHamiltonian) -> EigenSystem:
    """Diagonalize sector by sector and merge.

    Exactly degenerate levels whose members sit in different Bloch sectors
    (e.g. +k and -k) keep their sector-pure eigenvectors this way; a dense
    solver on the full matrix would return arbitrary mixtures.
    """
    grid, geom = ham.grid, ham.geom
    dim = grid.size
    J = grid.half_width
    steps = [s for s, _ in ham.couplings]
    stride = gcd(*steps) if steps else 0

    energies = np.empty(dim)
    vectors = np.zeros((dim, dim))
    labels: list[Fraction] = [Fraction(0)] * dim

    if stride == 0:
        order = np.argsort(ham.diag, kind="stable")
        energies[:] = ham.diag[order]
        for i, src in enumerate(order):
            vectors[src, i] = 1.0
            labels[i] = bloch_label(geom, grid.value(int(src) - J))
    else:
        pos = 0
        for c in range(stride):
            idx = np.arange(c, dim, stride)
            m = idx.size
            sector_label = bloch_label(geom, grid.value(int(idx[0]) - J))
            diag_s = ham.diag[idx]
            bw = max(s // stride for s in steps)
            if bw >= m:
                bw = m - 1  # couplings longer than the sector: keep rows valid
            band = np.zeros((bw + 1, m))
            band[bw, :] = diag_s
            for s, strength in ham.couplings:
                o = s // stride
                if 0 < o <= bw:
                    band[bw - o, o:] = strength
            try:
                w, v = scipy.linalg.eig_banded(band, lower=False)
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                raise ConvergenceFailure(f"banded eigensolver failed: {exc}") from exc
            energies[pos:pos + m] = w
            vectors[np.ix_(idx, np.arange(pos, pos + m))] = v
            for i in range(pos, pos + m):
                labels[i] = sector_label
            pos += m
        order = sorted(range(dim), key=lambda i: (energies[i], float(labels[i])))
        energies = energies[order]
        vectors = vectors[:, order]
        labels = [labels[i] for i in order]

    es = EigenSystem(geom, grid, energies, vectors, tuple(labels))
    # Inside near-degenerate groups the solver's basis is arbitrary:
    # re-orthogonalize, then resolve the arbitrariness with the window's
    # exact symmetries so expectation values of odd observables are honest.
    for group in es.degenerate_groups():
        if group.size < 2:
            continue
        for a in range(1, group.size):
            v = vectors[:, group[a]]
            for b in range(a):
                u = vectors[:, group[b]]
                v = v - (u @ v) * u
            vectors[:, group[a]] = v / np.linalg.norm(v)
        _reflection_adapt(es, group)
    _fix_signs(vectors)
    return es


def _reflection_adapt(es: EigenSystem, group: np.ndarray) -> None:
    """Rotate a near-degenerate group onto the exact mu_r -> -mu_r
    eigenbasis where that symmetry is exact.

    On a window centered at mu_r = 0 the Hamiltonian commutes exactly with
    index reversal, so every simple true eigenvector is reflection-definite
    with <mu_r> = 0; a tunneling pair whose tiny splitting falls below the
    solver's resolution comes back as arbitrary (typically side-localized)
    mixtures instead.  Diagonalizing the reversal operator inside each
    near-degenerate block restores the true basis.  Only sectors mapped to
    themselves by reflection (k = 0 and k = n/2) qualify; reflection maps
    other sectors onto different ones and those pairs need no fix (mu_r has
    no matrix elements between sectors).
    """
    if es.grid.mu_r_offset != 0:
        return
    vectors = es.vectors
    n = es.geom.n
    for label in {es.labels[i] for i in group}:
        if (2 * label) % n != 0:
            continue
        block = np.array([i for i in group if es.labels[i] == label])
        if block.size < 2:
            continue
        U = vectors[:, block]
        S = U.T @ U[::-1, :]
        S = 0.5 * (S + S.T)
        _, W = np.linalg.eigh(S)
        vectors[:, block] = U @ W


@functools.lru_cache(maxsize=EIGEN_CACHE_SIZE)
def eigensystem_for(geom: DerivedGeometry, grid: GridSpec) -> EigenSystem:
    """Eigendecomposition of the window, cached by (geometry, grid) in a
    bounded LRU.  Every caller shares the result, so its arrays are
    read-only."""
    es = eigendecompose(build_hamiltonian(geom, grid))
    es.energies.flags.writeable = False
    es.vectors.flags.writeable = False
    return es


@dataclass
class RotorState:
    """Pure state of the pair: fixed exact mu_c, complex amplitudes over a
    relative-momentum window, and the accumulated center-of-mass phase."""

    geom: DerivedGeometry
    mu_c: Fraction
    grid: GridSpec
    amplitudes: np.ndarray
    com_phase: float = 0.0

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def momentum_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact integer (m1, m2) for every grid point, as int64.

        At fixed mu_c the map is affine in the grid index, so the first two
        points are solved exactly, the rest extended in integers, and the
        last point solved exactly again as a check.  If two consecutive
        points have integer preimages every point does, so this raises
        NonPhysicalError exactly when some grid point has none, which would
        mean kick bookkeeping has drifted off the physical lattice.
        """
        from .model import collective_to_momenta

        J = self.grid.half_width
        first = collective_to_momenta(self.geom, self.mu_c, self.grid.value(-J))
        if J == 0:
            return np.array([first[0]], np.int64), np.array([first[1]], np.int64)
        second = collective_to_momenta(self.geom, self.mu_c, self.grid.value(1 - J))
        j = np.arange(self.grid.size, dtype=np.int64)
        m1 = first[0] + (second[0] - first[0]) * j
        m2 = first[1] + (second[1] - first[1]) * j
        last = collective_to_momenta(self.geom, self.mu_c, self.grid.value(J))
        if (int(m1[-1]), int(m2[-1])) != last:
            raise InternalInconsistency(
                f"affine momentum map ends at ({m1[-1]}, {m2[-1]}), "
                f"exact solve gives {last}"
            )
        return m1, m2

    def copy(self) -> "RotorState":
        return replace(self, amplitudes=self.amplitudes.copy())


def _edges(size: int) -> tuple[slice, slice]:
    """Low and high edge rows of a window of `size` states: together the
    outer TAIL_FRACTION of it, at least one row on each side."""
    per_side = max(1, ceil(0.5 * TAIL_FRACTION * size))
    return slice(None, per_side), slice(-per_side, None)


def tail_mass(amplitudes: np.ndarray) -> float:
    """Probability in the outer TAIL_FRACTION of the window (both edges)."""
    low, high = _edges(len(amplitudes))
    p = np.abs(amplitudes) ** 2
    return float(p[low].sum() + p[high].sum())


def _wider(grid: GridSpec) -> GridSpec:
    """`grid` grown by half (at least one step), but not past MAX_HALF_WIDTH
    unless it is already there."""
    J = grid.half_width
    new_J = max(J + 1, min(ceil(J * 1.5), MAX_HALF_WIDTH))
    return GridSpec(grid.mu_r_offset, grid.spacing, new_J)


def _check_growth(grid: GridSpec, tail: float) -> None:
    """Stop a window-growth loop whose window still leaves `tail` at its
    edges: at MAX_HALF_WIDTH, or at once when the tail is not finite."""
    if grid.half_width >= MAX_HALF_WIDTH or not isfinite(tail):
        raise ConvergenceFailure(
            f"window tail {tail:.3e} (bound {TAIL_BOUND:g}) at half-width "
            f"{grid.half_width}; growth stops at {MAX_HALF_WIDTH}"
        )


def widen(state: RotorState) -> RotorState:
    """Same state on the window `_wider` grows its window to (same offset
    and spacing)."""
    J = state.grid.half_width
    new_grid = _wider(state.grid)
    new_J = new_grid.half_width
    amps = np.zeros(new_grid.size, dtype=complex)
    amps[new_J - J:new_J + J + 1] = state.amplitudes
    return RotorState(state.geom, state.mu_c, new_grid, amps, state.com_phase)


def ground_state(geom: DerivedGeometry) -> RotorState:
    """Interlocked ground state: lowest eigenstate on the mu_c = 0 lattice.

    The window grows until the edge occupation passes the tail bound, up to
    MAX_HALF_WIDTH.  The global phase is fixed by making the
    largest-magnitude amplitude real positive.
    """
    grid = allowed_relative_grid(geom, 0, half_width=MIN_HALF_WIDTH)
    while True:
        es = eigensystem_for(geom, grid)
        v0 = es.vectors[:, 0]
        tail = tail_mass(v0)
        if tail < TAIL_BOUND:
            break
        _check_growth(grid, tail)
        grid = _wider(grid)
    if es.labels[0] != 0:
        raise ConvergenceFailure(
            f"ground state found in sector k={es.labels[0]}, expected k=0"
        )
    amps = v0.astype(complex)
    peak = int(np.argmax(np.abs(amps)))
    if amps[peak].real < 0:
        amps = -amps
    return RotorState(geom, Fraction(0), grid, amps, com_phase=0.0)


def ground_energy(geom: DerivedGeometry) -> float:
    """Energy of the interlocked ground state (relative part)."""
    state = ground_state(geom)
    es = eigensystem_for(geom, state.grid)
    return float(es.energies[0])


@dataclass(frozen=True)
class BandStructure:
    """Energies of the lowest bands at every Bloch residue.

    ks are the exact residues in (-n/2, n/2], ascending; energies has shape
    (num_bands, len(ks)) with band index 1 stored in row 0.
    """

    geom: DerivedGeometry
    ks: tuple[Fraction, ...]
    energies: np.ndarray

    @property
    def num_bands(self) -> int:
        return self.energies.shape[0]


def band_structure(geom: DerivedGeometry, num_bands: int = 3) -> BandStructure:
    """Diagonalize each Bloch sector mu_r = k + n*m over the physical
    residues k and collect the lowest `num_bands` energies."""
    if not geom.equal_inertia:
        raise UnsupportedInertiaError("band structure requires I1 == I2")
    if num_bands < 1:
        raise ValueError("num_bands must be >= 1")
    # physical mu_r values over all mu_c form the lattice (1/nu) * Z
    step = 1 / geom.nu
    count = Fraction(geom.n) / step
    assert count.denominator == 1
    residues = sorted({bloch_label(geom, step * t) for t in range(int(count))})
    Js = max(16, num_bands + 12)
    energies = np.empty((num_bands, len(residues)))
    for col, k in enumerate(residues):
        grid = GridSpec(mu_r_offset=k, spacing=Fraction(geom.n), half_width=Js)
        es = eigensystem_for(geom, grid)
        energies[:, col] = es.energies[:num_bands]
    return BandStructure(geom, tuple(residues), energies)
