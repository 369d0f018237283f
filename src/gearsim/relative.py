"""Relative-rotor Hamiltonian on the allowed momentum lattice.

In the momentum basis the relative Hamiltonian is banded: kinetic energy on
the diagonal, and each cosine harmonic p of the tooth profile couples grid
points separated by exactly p * n in mu_r.  Because those coupling steps are
a fixed multiple of the grid spacing, the matrix decouples into independent
sectors, each carrying one conserved Bloch residue k = mu_r mod n; each
sector is diagonalized on its own, which keeps exactly degenerate partners
from different sectors from being mixed by the eigensolver.  Every window on
a lattice that mu_r -> -mu_r maps onto itself is mirror-symmetric (see
GridSpec.mirrored), and a sector that the reflection maps onto itself
(k = 0 or k = n/2) is diagonalized in its even and odd parts, so its
eigenvectors are reflection-definite by construction.  Eigenvector signs
are arbitrary: every consumer pairs v^T c with its own v or squares it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, gcd, isfinite

import numpy as np
import scipy.linalg

from .errors import (ConvergenceFailure, InternalInconsistency, NonPhysicalError,
                     UnsupportedInertiaError)
from .model import DerivedGeometry, GridSpec, _centred_divmod, _lattice_momenta

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
# Bloch residues (bloch_period_u) band_structure solves at most, one window
# each.  Binary float inertias such as 0.7 and 1.3 give ~1e16, which would
# never finish; equal inertias give (n1^2 + n2^2)/g, below this for all
# n1, n2 <= 256.
MAX_BAND_RESIDUES = 2 * 256**2


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
        """H c, for one vector or for every row of a (T, dim) matrix."""
        out = self.diag * c
        for step, strength in self.couplings:
            out[..., step:] += strength * c[..., :-step]
            out[..., :-step] += strength * c[..., step:]
        return out


def build_hamiltonian(geom: DerivedGeometry, grid: GridSpec) -> BandedHamiltonian:
    """Relative Hamiltonian restricted to a lattice window.

    Diagonal: mu_r^2/(2 I_r) - V0 a0.  Harmonic p of the profile couples
    mu_r to mu_r +/- p*n with strength -V0 a_p / 2.
    """
    cfg = geom.config
    mu = grid.values()
    diag = mu * mu / (2.0 * geom.I_r) - cfg.V0 * cfg.potential.a0
    couplings = []
    for p, a_p in cfg.potential.harmonics():
        step, rem = divmod(p * geom.bloch_period_u, grid.spacing)
        if rem:
            # cannot occur on the grids the library builds; guard anyway
            raise NonPhysicalError(
                f"harmonic {p} step {p * geom.n} is not a multiple of grid spacing")
        if cfg.V0 * a_p != 0.0:
            couplings.append((step, -cfg.V0 * a_p / 2.0))
    max_step = max((s for s, _ in couplings), default=0)
    if grid.half_width < 2 * max_step:
        raise NonPhysicalError(
            f"half_width {grid.half_width} too small for coupling step {max_step}"
            " (need at least twice the longest step)"
        )
    return BandedHamiltonian(geom, grid, diag, tuple(couplings))


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition of a banded relative Hamiltonian.

    States are sorted by (energy, Bloch label); each eigenvector lives in
    one index sector of the grid and, in a sector that mu_r -> -mu_r maps
    onto itself, is even or odd under that reflection.  Eigenvector signs
    are arbitrary.  labels hold each state's Bloch residue k in (-n/2, n/2]
    as k/mu_r_unit: int64 where the Bloch period bounds them, Python ints
    (object dtype) otherwise.
    """

    geom: DerivedGeometry
    grid: GridSpec
    energies: np.ndarray     # ascending
    vectors: np.ndarray      # column i is eigenvector i
    labels: np.ndarray       # Bloch residue of each state, in units of mu_r_unit
    edge_norms: np.ndarray   # norm of each v_i over the `_edges` rows

    @property
    def dim(self) -> int:
        return self.grid.size


def _band(diag: np.ndarray, couplings, bw: int) -> np.ndarray:
    """Upper banded storage of the matrix with `diag` on the diagonal and
    H[i, i+o] = s for every (o, s) in couplings (o <= bw)."""
    band = np.zeros((bw + 1, diag.size))
    band[bw] = diag
    for o, s in couplings:
        band[bw - o, o:] = s
    return band


def _eig(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return scipy.linalg.eig_banded(band, lower=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"banded eigensolver failed: {exc}") from exc


def _parity_eig(diag: np.ndarray, couplings, bw: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a sector that reflection (point q -> m - 1 - q) maps
    onto itself, from its even and odd parts, even first.

    Row a of a part stands for point start + a and its mirror, so a
    coupling of o steps also joins rows a and t - a, t = o + m - 1 - 2 start,
    with the part's sign.  The centre of an odd-sized sector is in the even
    part only and couples to each pair with sqrt(2) times the strength.
    """
    m = diag.size
    h, c = divmod(m, 2)
    energies, vectors = [], []
    for sign, centre in ((1.0, c), (-1.0, 0)):
        start = h + c - centre
        band = _band(diag[start:], couplings, bw)
        if centre:
            o = np.arange(1, bw + 1)
            band[bw - o, o] *= np.sqrt(2.0)
        for o, s in couplings:
            t = o + m - 1 - 2 * start
            a = np.arange(centre, t // 2 + 1)
            band[bw + 2 * a - t, t - a] += sign * s
        w, v = _eig(band)
        lift = np.zeros((m, w.size))
        lift[start:] = v
        lift[h + c:] *= np.sqrt(0.5)
        lift[:h] = sign * lift[h + c:][::-1]
        energies.append(w)
        vectors.append(lift)
    return np.concatenate(energies), np.hstack(vectors)


def eigendecompose(ham: BandedHamiltonian) -> EigenSystem:
    """Diagonalize index sector by index sector and merge.

    Harmonics only couple points a multiple of the stride (the gcd of the
    coupling steps) apart, and without couplings every point is its own
    sector.  Exactly degenerate levels in different sectors (e.g. +k and -k)
    keep sector-pure eigenvectors, which a dense solve would mix.  A sector
    that reflection maps onto itself is solved in its even and odd parts,
    so a tunnelling pair comes out reflection-definite however small its
    splitting.
    """
    grid, geom = ham.grid, ham.geom
    dim = grid.size
    steps = [s for s, _ in ham.couplings]
    stride = gcd(*steps) if steps else dim
    bw = max(steps, default=0) // stride
    couplings = [(s // stride, strength) for s, strength in ham.couplings]

    period = geom.bloch_period_u
    energies = np.empty(dim)
    vectors = np.zeros((dim, dim))
    sector_of = np.empty(dim, dtype=np.intp)
    sector_labels = []
    pos = 0
    for c in range(stride):
        idx = np.arange(c, dim, stride)
        m = idx.size
        diag = ham.diag[idx]
        if grid.mirrored and m > 1 and idx[0] + idx[-1] == dim - 1:
            w, v = _parity_eig(diag, couplings, bw)
        else:
            w, v = _eig(_band(diag, couplings, bw))
        energies[pos:pos + m] = w
        vectors[idx, pos:pos + m] = v
        sector_of[pos:pos + m] = c
        b = grid.offset + grid.spacing * (c + grid.lo)
        sector_labels.append(_centred_divmod(b, period)[1])
        pos += m
    sector_labels = np.array(sector_labels,
                             dtype=np.int64 if period // 2 < 2**63 else object)
    order = np.lexsort((sector_labels[sector_of], energies))
    vectors = vectors[:, order]
    low, high = _edges(dim)
    edge_norms = np.sqrt(np.sum(vectors[low, :] ** 2, axis=0)
                         + np.sum(vectors[high, :] ** 2, axis=0))
    return EigenSystem(geom, grid, energies[order], vectors,
                       sector_labels[sector_of[order]], edge_norms)


@functools.lru_cache(maxsize=EIGEN_CACHE_SIZE)
def eigensystem_for(geom: DerivedGeometry, grid: GridSpec) -> EigenSystem:
    """Eigendecomposition of the window, cached by (geometry, grid) in a
    bounded LRU.  Every caller shares the result, so its arrays are
    read-only."""
    es = eigendecompose(build_hamiltonian(geom, grid))
    for array in (es.energies, es.vectors, es.labels, es.edge_norms):
        array.flags.writeable = False
    return es


@dataclass
class RotorState:
    """Pure state of the pair: a fixed mu_c = _mu_c_factor * A, held as the
    integer A = n2 m1 + n1 m2, and complex amplitudes over a
    relative-momentum window.  The center-of-mass phase is global and not
    carried (revivals: dynamics.revival_phase_defect)."""

    geom: DerivedGeometry
    A: int
    grid: GridSpec
    amplitudes: np.ndarray

    def momentum_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact integer (m1, m2) for every grid point, as int64.

        At fixed mu_c the map is affine in the grid index, so the first two
        points are solved exactly, the rest extended in integers, and the
        last point solved exactly again as a check.  If two consecutive
        points have integer preimages every point does, so this raises
        NonPhysicalError exactly when some grid point has none, which would
        mean kick bookkeeping has drifted off the physical lattice.
        """
        geom, grid, A = self.geom, self.grid, self.A
        b = grid.offset + grid.spacing * grid.lo   # mu_r/u of the first point
        first = _lattice_momenta(geom, A, b)
        second = _lattice_momenta(geom, A, b + grid.spacing)
        j = np.arange(grid.size, dtype=np.int64)
        m1 = first[0] + (second[0] - first[0]) * j
        m2 = first[1] + (second[1] - first[1]) * j
        last = _lattice_momenta(geom, A, grid.offset + grid.spacing * grid.half_width)
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


def _wider(grid: GridSpec) -> GridSpec:
    """`grid` grown by half (at least one step), but not past MAX_HALF_WIDTH
    unless it is already there."""
    J = grid.half_width
    new_J = max(J + 1, min(ceil(J * 1.5), MAX_HALF_WIDTH))
    return replace(grid, half_width=new_J)


def _check_growth(grid: GridSpec, tail: float) -> None:
    """Stop a window-growth loop whose window still leaves `tail` at its
    edges: at MAX_HALF_WIDTH, or at once when the tail is not finite."""
    if grid.half_width >= MAX_HALF_WIDTH or not isfinite(tail):
        raise ConvergenceFailure(
            f"window tail {tail:.3e} (bound {TAIL_BOUND:g}) at half-width "
            f"{grid.half_width}; growth stops at {MAX_HALF_WIDTH}"
        )


def _start_half_width(geom: DerivedGeometry, spacing: int, floor: int) -> int:
    """Half-width a new window of this spacing (in mu_r_unit) starts at:
    `floor`, or twice the longest coupling step (p_max n / spacing grid
    steps) if that is more.  Raises ConvergenceFailure, before any
    eigensolve, when that is past MAX_HALF_WIDTH."""
    cfg = geom.config
    p_max = max((p for p, _ in cfg.potential.harmonics()), default=0) if cfg.V0 else 0
    need = 2 * p_max * geom.bloch_period_u // spacing
    if need > MAX_HALF_WIDTH:
        raise ConvergenceFailure(
            f"harmonic {p_max} needs a window of half-width {need} (twice its "
            f"coupling step); windows stop at {MAX_HALF_WIDTH}")
    return max(floor, need)


def widen(state: RotorState) -> RotorState:
    """Same state on the window `_wider` grows its window to (same offset
    and spacing)."""
    new_grid = _wider(state.grid)
    start = state.grid.lo - new_grid.lo
    amps = np.zeros(new_grid.size, dtype=complex)
    amps[start:start + state.grid.size] = state.amplitudes
    return RotorState(state.geom, state.A, new_grid, amps)


def _fitted(geom: DerivedGeometry, grid: GridSpec, count: int) -> EigenSystem:
    """Eigensystem of the first window, `grid` grown by `_wider`, on which
    each of the lowest `count` eigenstates has edge occupation below the
    tail bound.  Growth stops at MAX_HALF_WIDTH (`_check_growth`)."""
    while True:
        es = eigensystem_for(geom, grid)
        tail = float(np.max(es.edge_norms[:count])) ** 2
        if tail < TAIL_BOUND:
            return es
        _check_growth(grid, tail)
        grid = _wider(grid)


def ground_state(geom: DerivedGeometry) -> RotorState:
    """Interlocked ground state: lowest eigenstate on the mu_c = 0 lattice,
    on the first window (`_fitted`) that holds it.  The global phase is
    fixed by making the largest-magnitude amplitude real positive.
    """
    start = _start_half_width(geom, geom.grid_spacing_u, MIN_HALF_WIDTH)
    # the mu_c = 0 lattice holds m1 = m2 = 0, so mu_r = 0 is its offset
    es = _fitted(geom, GridSpec(0, geom.grid_spacing_u, start, geom.mu_r_unit), 1)
    if es.labels[0] != 0:
        raise ConvergenceFailure(
            f"ground state found in sector k={int(es.labels[0]) * geom.mu_r_unit}, "
            "expected k=0")
    amps = es.vectors[:, 0].astype(complex)
    peak = int(np.argmax(np.abs(amps)))
    if amps[peak].real < 0:
        amps = -amps
    return RotorState(geom, 0, es.grid, amps)


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
    residues k, on the first window (`_fitted`) that holds its lowest
    `num_bands` states, and collect their energies.  Inertias that give
    more than MAX_BAND_RESIDUES residues raise UnsupportedInertiaError
    before any eigensolve."""
    if num_bands < 1:
        raise ValueError("num_bands must be >= 1")
    # physical mu_r are the multiples of u, so the residues mod n = P u are
    # the ints in (-P/2, P/2], times u
    period = geom.bloch_period_u
    if period > MAX_BAND_RESIDUES:
        raise UnsupportedInertiaError(
            f"I1={geom.config.I1!r}, I2={geom.config.I2!r} give {period} Bloch "
            f"residues; band structure solves at most {MAX_BAND_RESIDUES}")
    residues = range(-((period - 1) // 2), period // 2 + 1)
    Js = _start_half_width(geom, period, max(16, num_bands + 12))
    energies = np.empty((num_bands, period))
    for col, k in enumerate(residues):
        es = _fitted(geom, GridSpec(k, period, Js, geom.mu_r_unit), num_bands)
        energies[:, col] = es.energies[:num_bands]
    return BandStructure(geom, tuple(k * geom.mu_r_unit for k in residues), energies)
