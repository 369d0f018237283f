"""Gear pair geometry and exact momentum-lattice arithmetic.

Two planar rotors with tooth counts (n1, n2) couple through an even,
2*pi-periodic tooth profile u(x) evaluated at x = n1*theta1 - n2*theta2.
Everything downstream of this module works in center-of-mass / relative
coordinates; here lives the exact bookkeeping between the integer angular
momenta (m1, m2) and the collective pair (mu_c, mu_r), plus every derived
constant of the pair.

Units: hbar = 1 and the reference moment of inertia is 1, so energies are in
hbar^2/I_ref, times in I_ref/hbar, and angular momenta in hbar.

The lattice is integer: mu_c is _mu_c_factor times A = n2 m1 + n1 m2, and
mu_r, the Bloch period n and the grid spacing n/g are integer multiples of
one unit per geometry, mu_r_unit.  Grids, kicks, Bloch labels and the
momentum map run on Python ints (binary-float inertias give the unit a
54-bit denominator).  They share the rules kept here: `_lattice_point`,
its inverse `_lattice_momenta` and `_centred_divmod`.  The windows are
built by `relative.ground_state` and `dynamics.apply_kick`, the Bloch
labels by `relative.eigendecompose`.  `fractions.Fraction` is kept where
exactness is checked against outside input: building the geometry and the
public transforms.  Floats are taken from exact values by correct rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import _lapack
from .errors import ConfigError, ConvergenceFailure, NonPhysicalError

__all__ = [
    "PotentialSpec",
    "GearConfig",
    "DerivedGeometry",
    "CollectiveMomentum",
    "GridSpec",
    "derive_geometry",
    "momenta_to_collective",
    "collective_to_momenta",
    "angular_momentum_split",
]


def _as_fraction(x, what: str) -> Fraction:
    """Coerce an exact rational input (int, Fraction, float) to Fraction.

    Floats are converted by their exact binary value, which is what the
    caller supplied; no rounding or snapping happens here.
    """
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ConfigError(f"{what} must be finite, got {x!r}")
        return Fraction(x)
    raise ConfigError(f"{what} must be a rational number, got {type(x).__name__}")


def _real(x, what: str) -> float:
    """float(x); ConfigError when x has no float value."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a real number, got {x!r}") from None


def _int(x, what: str) -> int:
    """x if it is an int, not a bool; ConfigError otherwise."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ConfigError(f"{what} must be an integer, got {x!r}")
    return x


def _whole(x, what: str) -> int:
    """int(x) for a whole number x (2 or 2.0, not True); ConfigError
    otherwise: nothing is truncated."""
    try:
        whole = not isinstance(x, (bool, np.bool_)) and int(x) == x
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{what} must be a whole number, got {x!r}")
    return int(x)


def _sample_times(times) -> np.ndarray:
    """times as a 1-D float array; ConfigError unless it is one and each
    time is finite and >= 0."""
    try:
        times = np.asarray(times, dtype=float)
    except (TypeError, ValueError):
        times = None
    if (times is None or times.ndim != 1
            or not np.all((times >= 0) & np.isfinite(times))):
        raise ConfigError("times must be a flat list, each finite and >= 0")
    return times


def _exact_float(i: int, q: Fraction) -> float:
    """i * q correctly rounded, the same float as float(Fraction(i) * q),
    without building a Fraction (int true division rounds correctly)."""
    return i * q.numerator / q.denominator


def _centred_divmod(x: int, step: int) -> tuple[int, int]:
    """Centred integer division: x = q * step + r with r in (-step/2, step/2].

    The one rule that reduces a lattice value, in units of mu_r_unit, to its
    representative: grid offsets, the index shift of a kick and Bloch labels
    all come from it.
    """
    q, r = divmod(x, step)
    if 2 * r > step:
        return q + 1, r - step
    return q, r


@dataclass(frozen=True)
class PotentialSpec:
    """Even 2*pi-periodic tooth profile u(x) = a0 + sum_p a_p cos(p x).

    `fourier` lists (harmonic index p, coefficient a_p) pairs.  The default
    is the raised cosine u(x) = (1 + cos x)/2, whose minimum value is 0.
    """

    fourier: tuple[tuple[int, float], ...] = ((0, 0.5), (1, 0.5))

    def __post_init__(self):
        try:
            pairs = [(p, a) for p, a in self.fourier]
        except (TypeError, ValueError):
            raise ConfigError("fourier must list (harmonic, coefficient) pairs, "
                              f"got {self.fourier!r}") from None
        clean = []
        seen = set()
        for p, a in pairs:
            p = _whole(p, "harmonic index")
            if p < 0:
                raise ConfigError(f"harmonic index must be >= 0, got {p}")
            if p in seen:
                raise ConfigError(f"duplicate harmonic index {p}")
            a = _real(a, f"coefficient of harmonic {p}")
            if not math.isfinite(a):
                raise ConfigError(f"non-finite coefficient for harmonic {p}")
            seen.add(p)
            clean.append((p, a))
        object.__setattr__(self, "fourier", tuple(clean))
        # value and derivative run inside the classical limit's event
        # searches and quadrature, so their terms are built once here
        object.__setattr__(self, "_a0", dict(self.fourier).get(0, 0.0))
        object.__setattr__(self, "_harmonics", tuple(
            (p, a) for p, a in self.fourier if p >= 1 and a != 0.0))

    @property
    def a0(self) -> float:
        return self._a0

    def harmonics(self) -> tuple[tuple[int, float], ...]:
        """The p >= 1 terms with nonzero coefficient."""
        return self._harmonics

    def value(self, x: float) -> float:
        """u(x)."""
        u = self.a0
        for p, a in self.harmonics():
            u += a * math.cos(p * x)
        return u

    def derivative(self, x: float) -> float:
        """u'(x)."""
        du = 0.0
        for p, a in self.harmonics():
            du -= p * a * math.sin(p * x)
        return du

    def curvature_at_origin(self) -> float:
        """-u''(0) ... sum_p p^2 a_p; the well curvature when x=0 is a maximum."""
        return sum(p * p * a for p, a in self.harmonics())

    def min_value(self) -> float:
        """Minimum of u over a period, found on the first call and kept.

        u(x) = P(cos x) for a polynomial P, and P'(cos x) = sum_p p a_p
        U_{p-1}(cos x), U_k the Chebyshev polynomials of the second kind.
        So the minimum is u at x = 0, at x = pi, or at x = arccos(c) for a
        root c of P' in [-1, 1].  The roots are the eigenvalues of the
        colleague matrix of P' in the U basis (from c U_k = (U_{k-1} +
        U_{k+1}) / 2), which stays accurate on [-1, 1] at high harmonics,
        where power-basis coefficients grow as 2^p.  Each candidate is
        evaluated with `value`, and the real part of every eigenvalue is
        tried: a complex one adds a harmless candidate, and a near-double
        real root that round-off made complex is not lost."""
        if "_min_value" in self.__dict__:
            return self._min_value
        # A harmonic below sqrt(eps) of the profile moves the minimiser by
        # about that much, and so the minimum by its square; as the top
        # term it would put its inverse into the matrix, and eps times that
        # into every root.
        floor = math.sqrt(np.finfo(float).eps) * sum(abs(a) for _, a in self.harmonics())
        kept = {p: a for p, a in self.harmonics() if abs(a) > floor}
        # P' = sum_k b_k U_k, k = 0 .. n
        b = np.array([(k + 1) * kept.get(k + 1, 0.0) for k in range(max(kept, default=1))])
        n = b.size - 1
        colleague = (np.eye(n, k=1) + np.eye(n, k=-1)) / 2.0
        colleague[-1:] -= b[:-1] / (2.0 * b[-1])
        # LAPACK dgeev from the module the banded solver comes from, so
        # that numpy's own LAPACK is not started for one small matrix; it
        # refuses a 0 x 0 one, which has no roots to give
        c = np.empty(0)
        if n:
            c, _, _, _, info = _lapack.dgeev(colleague, compute_vl=0, compute_vr=0)
            if info != 0:
                raise ConvergenceFailure(
                    f"potential minimum eigensolver failed (LAPACK dgeev info={info})")
        xs = [0.0, math.pi, *np.arccos(c[np.abs(c) <= 1.0]).tolist()]
        object.__setattr__(self, "_min_value", min(self.value(x) for x in xs))
        return self._min_value


@dataclass(frozen=True)
class GearConfig:
    """Physical parameters of a gear pair.

    n1, n2 : tooth counts (positive integers)
    I1, I2 : moments of inertia (in units of the reference inertia)
    V0     : coupling strength multiplying the tooth profile
    """

    n1: int
    n2: int
    I1: float = 1.0
    I2: float = 1.0
    V0: float = 0.0
    potential: PotentialSpec = PotentialSpec()

    def __post_init__(self):
        for name in ("n1", "n2"):
            v = _int(getattr(self, name), name)
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        for name in ("I1", "I2"):
            v = _real(getattr(self, name), name)
            if not math.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        v0 = _real(self.V0, "V0")
        if not math.isfinite(v0) or v0 < 0:
            raise ConfigError(f"V0 must be >= 0 and finite, got {v0!r}")
        object.__setattr__(self, "V0", v0)
        if not isinstance(self.potential, PotentialSpec):
            raise ConfigError("potential must be a PotentialSpec")


@dataclass(frozen=True)
class CollectiveMomentum:
    """Exact center-of-mass / relative momentum pair."""

    mu_c: Fraction
    mu_r: Fraction


@dataclass(frozen=True)
class GridSpec:
    """Window of the allowed relative-momentum lattice.

    Grid points are mu_r = (offset + spacing * j) * unit for j in
    [lo, half_width]: offset and spacing are ints in units of the geometry's
    mu_r_unit, which takes no part in equality.  lo, size and mirrored are
    fixed when the window is built.  mirrored means mu_r -> -mu_r maps
    the window onto itself, which holds exactly when the offset is 0 or half
    a step: lo is -half_width - 1 when it is half a step and -half_width
    otherwise, so every window on a lattice that the reflection maps onto
    itself is mirror-symmetric.
    """

    offset: int
    spacing: int
    half_width: int
    unit: Fraction = field(compare=False)
    lo: int = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)
    mirrored: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not all(type(v) is int for v in (self.offset, self.spacing, self.half_width)):
            raise ConfigError("grid offset, spacing and half_width must be ints")
        if self.spacing <= 0 or self.half_width < 0:
            raise ConfigError("grid spacing must be positive, half_width >= 0")
        half_step = 2 * self.offset == self.spacing
        lo = -self.half_width - 1 if half_step else -self.half_width
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "size", self.half_width - lo + 1)
        object.__setattr__(self, "mirrored", half_step or self.offset == 0)

    def values(self) -> np.ndarray:
        """All grid mu_r values, ascending: float(offset) + float(spacing) * j."""
        j = np.arange(self.lo, self.half_width + 1, dtype=float)
        return (_exact_float(self.offset, self.unit)
                + _exact_float(self.spacing, self.unit) * j)


@dataclass(frozen=True, eq=False)
class DerivedGeometry:
    """Every derived constant of a gear pair, computed once by
    `derive_geometry`.  Every field is a function of `config`, so a geometry
    compares and hashes by `config` alone.

    Public floats are for numerics; the underscore Fractions are the exact
    transform coefficients of the public transforms.
    """

    config: GearConfig
    n: int                 # n1 + n2
    g: int                 # gcd(n1, n2)
    M1: int                # n2/g  (integers entering the revival identity)
    M2: int                # n1/g
    I_c: float             # center-of-mass moment of inertia
    I_r: float             # relative moment of inertia
    nu: Fraction           # (M1^2 I1 + M2^2 I2) / ((M1 + M2) I), exact
    grid_spacing: int      # M1 + M2 = n/g, relative-lattice step at fixed mu_c
    r_cl: Fraction         # equal-inertia classical ratio n1 n2/(n1^2+n2^2); for
                           # I1 != I2 see classical_transmission
    tau_c: float           # center-of-mass revival time 4 pi (M1^2 I1 + M2^2 I2)
    omega0: float          # n sqrt(V0/I_r)
    omega0_harmonic: float  # small-oscillation frequency in the actual well
    L_r_threshold: float   # sqrt(2 I_r V0): classical interlock edge in L_r
    ell_threshold: float   # same edge expressed as a kick on gear 1
    # the integer lattice
    mu_r_unit: Fraction    # u = gcd(mu_r(1, 0), mu_r(0, 1)); 1/nu if I1 == I2
    bloch_period_u: int    # n/u, the Bloch period
    grid_spacing_u: int    # (n/g)/u, the spacing of a fixed-mu_c lattice
    _mu_r_coeffs: tuple[int, int]  # (c1, c2): mu_r = u*(c1 m1 + c2 m2)
    # exact transform coefficients
    _mu_c_factor: Fraction  # I_c/(n I):    mu_c = _mu_c_factor*(n2 m1 + n1 m2)
    _lc_to_l1: Fraction     # n2 I1/(n I):  L1 = _lc_to_l1*L_c + (n1/n) L_r
    _lc_to_l2: Fraction     # n1 I2/(n I):  L2 = _lc_to_l2*L_c - (n2/n) L_r

    def __eq__(self, other):
        return isinstance(other, DerivedGeometry) and self.config == other.config

    def __hash__(self):
        return hash(self.config)


def derive_geometry(config: GearConfig) -> DerivedGeometry:
    """Compute all derived constants for a gear pair."""
    n1, n2 = config.n1, config.n2
    I1 = _as_fraction(config.I1, "I1")
    I2 = _as_fraction(config.I2, "I2")
    n = n1 + n2
    g = math.gcd(n1, n2)
    M1 = n2 // g
    M2 = n1 // g
    I = (I1 + I2) / 2
    denom = n1 * n1 * I2 + n2 * n2 * I1
    I_c = Fraction(n * n) * I * I / denom
    I_r = Fraction(n * n) * I1 * I2 / denom
    nu = (M1 * M1 * I1 + M2 * M2 * I2) / ((M1 + M2) * I)
    # mu_r of a unit of m1 and of m2, and their exact gcd u; the hop
    # (n1, -n2) moves mu_r by n and the chain step (M2, -M1) by n/g
    r1, r2 = Fraction(n * n1) * I2 / denom, -Fraction(n * n2) * I1 / denom
    den = math.lcm(r1.denominator, r2.denominator)
    u = Fraction(math.gcd(int(r1 * den), int(r2 * den)), den)
    c1, c2 = int(r1 / u), int(r2 / u)
    V0 = config.V0
    I_r_f = float(I_r)
    omega0 = n * math.sqrt(V0 / I_r_f)
    curvature = config.potential.curvature_at_origin()
    if V0 * curvature < 0:
        raise NonPhysicalError(f"tooth profile {config.potential.fourier} has curvature "
                               f"{curvature:g} < 0 at x = 0, which is then not a well")
    omega0_harm = n * math.sqrt(V0 * curvature / I_r_f)
    # well depth seen by a state started at the aligned configuration x=0
    depth = V0 * max(0.0, config.potential.value(0.0) - config.potential.min_value())
    L_r_star = math.sqrt(2.0 * I_r_f * depth)
    # a kick ell on gear 1 delivers d mu_r = ell * r1; the threshold kick
    # solves |d mu_r| = L_r_star
    ell_star = L_r_star / float(r1) if V0 > 0 else 0.0
    return DerivedGeometry(
        config=config, n=n, g=g, M1=M1, M2=M2, I_c=float(I_c), I_r=I_r_f, nu=nu,
        grid_spacing=M1 + M2, r_cl=Fraction(n1 * n2, n1 * n1 + n2 * n2),
        tau_c=4.0 * math.pi * float(M1 * M1 * I1 + M2 * M2 * I2),
        omega0=omega0, omega0_harmonic=omega0_harm,
        L_r_threshold=L_r_star, ell_threshold=ell_star,
        mu_r_unit=u, bloch_period_u=c1 * n1 - c2 * n2,
        grid_spacing_u=c1 * M2 - c2 * M1, _mu_r_coeffs=(c1, c2),
        _mu_c_factor=n * I / denom,
        _lc_to_l1=n2 * I1 / (n * I), _lc_to_l2=n1 * I2 / (n * I),
    )


def _lattice_point(geom: DerivedGeometry, m1, m2):
    """(A, mu_r/u) of (m1, m2): ints for integer momenta.  The map is
    linear, so it doubles as the shift of a kick (m1, m2)."""
    c1, c2 = geom._mu_r_coeffs
    return geom.config.n2 * m1 + geom.config.n1 * m2, c1 * m1 + c2 * m2


def _lattice_momenta(geom: DerivedGeometry, A, b) -> tuple[int, int]:
    """Inverse of `_lattice_point` by Cramer's rule (the determinant is
    minus the Bloch period), exact on ints and Fractions alike;
    NonPhysicalError when (A, b) has no integer preimage."""
    n1, n2 = geom.config.n1, geom.config.n2
    c1, c2 = geom._mu_r_coeffs
    m1, rem1 = divmod(n1 * b - c2 * A, geom.bloch_period_u)
    m2, rem2 = divmod(c1 * A - n2 * b, geom.bloch_period_u)
    if rem1 or rem2:
        raise NonPhysicalError(f"(mu_c={geom._mu_c_factor * A}, mu_r="
                               f"{geom.mu_r_unit * b}) has no integer momentum preimage")
    return m1, m2


def momenta_to_collective(geom: DerivedGeometry, m1, m2) -> CollectiveMomentum:
    """Exact (m1, m2) -> (mu_c, mu_r).  The map is linear, so it doubles as
    the shift rule for kicks: feeding (l1, l2) gives (d mu_c, d mu_r)."""
    A, b = _lattice_point(geom, _as_fraction(m1, "m1"), _as_fraction(m2, "m2"))
    return CollectiveMomentum(geom._mu_c_factor * A, geom.mu_r_unit * b)


def collective_to_momenta(geom: DerivedGeometry, mu_c, mu_r) -> tuple[int, int]:
    """Exact inverse transform.  Raises NonPhysicalError when the pair does
    not come from integer (m1, m2)."""
    return _lattice_momenta(geom, _as_fraction(mu_c, "mu_c") / geom._mu_c_factor,
                            _as_fraction(mu_r, "mu_r") / geom.mu_r_unit)


def _integer_A(geom: DerivedGeometry, mu_c) -> int:
    """mu_c expressed as the integer A = n2 m1 + n1 m2; NonPhysicalError if
    mu_c is not realizable."""
    A = _as_fraction(mu_c, "mu_c") / geom._mu_c_factor
    if A.denominator != 1 or int(A) % geom.g != 0:
        raise NonPhysicalError(f"mu_c={mu_c} is not realizable by integer momenta")
    return int(A)


def angular_momentum_split(geom: DerivedGeometry, L_c: float, L_r: float) -> tuple[float, float]:
    """Per-gear expectation values from collective ones (floats)."""
    n1, n2 = geom.config.n1, geom.config.n2
    L1 = float(geom._lc_to_l1) * L_c + (n1 / geom.n) * L_r
    L2 = float(geom._lc_to_l2) * L_c - (n2 / geom.n) * L_r
    return L1, L2
