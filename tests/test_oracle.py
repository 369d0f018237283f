"""Independent raw-lattice reference: it must agree with the fast pipeline
while sharing none of its machinery."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gearsim import dynamics, oracle
from gearsim.dynamics import (
    KickProtocol,
    run_protocol,
    time_series,
)
from gearsim.errors import ConfigError, TruncationBreach
from gearsim.model import GearConfig, PotentialSpec, derive_geometry
from gearsim.oracle import (
    Components,
    LatticeState,
    build_full_hamiltonian,
    oracle_apply_kick,
    oracle_evolve,
    oracle_ground_state,
    oracle_run,
)
from gearsim.relative import eigensystem_for, ground_state

CUTOFF = 16
SECOND = PotentialSpec(((0, 0.5), (1, 0.4), (2, 0.1)))
THIRD = PotentialSpec(((0, 0.5), (1, 0.45), (3, 0.05)))


def moments(state):
    """norm, L1, L2 and L2^2 read off a lattice state's amplitudes."""
    p = np.abs(state.amplitudes) ** 2
    m = np.arange(-state.cutoff, state.cutoff + 1, dtype=float)
    p2 = p.sum(axis=0)
    return {"norm": p.sum(), "L1": m @ p.sum(axis=1), "L2": m @ p2,
            "L2_sq": (m * m) @ p2}


def sparse_hamiltonian(config, cutoff):
    """The full lattice Hamiltonian as a scipy CSR matrix, assembled from
    build_full_hamiltonian's diagonal and hop list, each hop both ways."""
    diag, src, tgt, strength = build_full_hamiltonian(config, cutoff)
    sites = np.arange(diag.size)
    H = scipy.sparse.coo_matrix(
        (np.concatenate([diag, strength, strength]),
         (np.concatenate([sites, tgt, src]), np.concatenate([sites, src, tgt]))),
        shape=(diag.size, diag.size))
    return H.tocsr()


def ground_energy_of(config, cutoff):
    """<gs|H|gs> of the oracle ground state, H the full lattice Hamiltonian."""
    c = oracle_ground_state(config, cutoff).amplitudes.ravel()
    return float(np.real(np.vdot(c, sparse_hamiltonian(config, cutoff) @ c)))


def test_hamiltonian_is_hermitian(cfg22):
    H = sparse_hamiltonian(cfg22, 10)
    assert (H - H.T).nnz == 0
    # each hop is listed once, in one direction, and none is a diagonal entry
    _, src, tgt, _ = build_full_hamiltonian(cfg22, 10)
    pairs = {(int(i), int(j)) for i, j in zip(src, tgt)}
    assert len(pairs) == src.size and not any((j, i) in pairs for i, j in pairs)
    assert np.all(src != tgt)


def test_hamiltonian_couples_only_tooth_multiples(cfg42):
    H = sparse_hamiltonian(cfg42, 8).tocoo()
    dim = 2 * 8 + 1
    for i, j in zip(H.row, H.col):
        m1_i, m2_i = divmod(int(i), dim)
        m1_j, m2_j = divmod(int(j), dim)
        d1, d2 = m1_i - m1_j, m2_i - m2_j
        if (d1, d2) == (0, 0):
            continue
        # one potential quantum moves n1 units of gear 1 against n2 of gear 2
        assert d1 % 4 == 0 and d2 == -d1 // 4 * 2


def test_ground_energy_matches_banded_solver(cfg22, geom22, cfg42, geom42):
    assert ground_energy_of(cfg22, CUTOFF) == pytest.approx(
        eigensystem_for(geom22, ground_state(geom22).grid).energies[0], abs=1e-8)
    assert ground_energy_of(cfg42, CUTOFF) == pytest.approx(
        eigensystem_for(geom42, ground_state(geom42).grid).energies[0], abs=1e-8)


def brute_force_ground_amplitudes(config, cutoff):
    """Every hopping component diagonalised, the lowest eigenvalue taken by
    min() (first component on a tie), sign fixed as the oracle fixes it."""
    from scipy.sparse.csgraph import connected_components
    H = sparse_hamiltonian(config, cutoff)
    _, labels = connected_components(H, directed=False)
    order = np.argsort(labels, kind="stable")
    H = H[order][:, order]
    blocks, start = [], 0
    for end in np.cumsum(np.bincount(labels)).tolist():
        w, v = scipy.linalg.eigh(H[start:end, start:end].toarray())
        blocks.append((order[start:end], w, v))
        start = end
    idx, _, v = min(blocks, key=lambda block: block[1][0])
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    amplitudes = np.zeros(H.shape[0], dtype=complex)
    amplitudes[idx] = vec
    return amplitudes


@pytest.mark.parametrize("config,cutoff", [
    pytest.param(GearConfig(2, 2, V0=10.0), CUTOFF, id="22"),
    pytest.param(GearConfig(4, 2, V0=10.0, potential=SECOND), 20, id="42-second"),
    pytest.param(GearConfig(1, 3, V0=10.0, potential=THIRD), 26, id="13-third"),
    # every lattice site is its own component
    pytest.param(GearConfig(2, 3, V0=0.0), 10, id="23-free"),
    # no p = 1 term: the p = 2 hops split each p = 1 component in two
    pytest.param(GearConfig(2, 2, V0=10.0, potential=PotentialSpec(((0, 0.5), (2, 0.5)))),
                 20, id="22-even-only"),
])
def test_pruned_ground_search_matches_brute_force(config, cutoff):
    want = brute_force_ground_amplitudes(config, cutoff)
    got = oracle_ground_state(config, cutoff).amplitudes.ravel()
    assert np.array_equal(got, want)


def test_oracle_run_solves_only_the_components_it_needs(monkeypatch):
    config, cutoff = GearConfig(2, 2, V0=10.0), 24
    total = Components(config, cutoff).ends.size
    solves = []
    eigh = oracle._eigh

    def counting_eigh(a):
        solves.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(oracle, "_eigh", counting_eigh)
    oracle_run(config, KickProtocol(ell=3, num_kicks=1), np.linspace(0.0, 5.0, 11),
               cutoff=cutoff)
    assert total == 192
    assert 0 < len(solves) < total / 4


def test_ground_state_is_stationary(cfg22):
    gs = oracle_ground_state(cfg22, CUTOFF)
    obs = moments(gs)
    assert obs["norm"] == pytest.approx(1.0, abs=1e-10)
    assert obs["L1"] == pytest.approx(0.0, abs=1e-10)
    assert obs["L2"] == pytest.approx(0.0, abs=1e-10)
    later = moments(oracle_evolve(gs, 3.0))
    assert later["L2_sq"] == pytest.approx(obs["L2_sq"], abs=1e-10)


def test_evolution_is_unitary_and_conserves_drive(cfg22):
    state = oracle_apply_kick(oracle_ground_state(cfg22, CUTOFF), l1=2)
    drive = []
    for t in (0.0, 1.3, 4.0):
        obs = moments(oracle_evolve(state, t))
        assert obs["norm"] == pytest.approx(1.0, abs=1e-12)
        drive.append(cfg22.n2 * obs["L1"] + cfg22.n1 * obs["L2"])
    assert np.ptp(drive) < 1e-10


def test_kick_shifts_momentum_exactly(cfg22):
    state = oracle_apply_kick(oracle_ground_state(cfg22, CUTOFF), l1=3, l2=-1)
    obs = moments(state)
    assert obs["L1"] == pytest.approx(3.0, abs=1e-10)
    assert obs["L2"] == pytest.approx(-1.0, abs=1e-10)


def test_small_lattice_breaches_truncation(cfg22):
    with pytest.raises(TruncationBreach):
        oracle_ground_state(cfg22, 8)


def test_kick_near_edge_breaches_truncation(cfg22):
    state = oracle_ground_state(cfg22, CUTOFF)
    with pytest.raises(TruncationBreach):
        for _ in range(4):
            state = oracle_apply_kick(state, l1=CUTOFF // 2)


@pytest.mark.parametrize("config,protocol,cutoff", [
    pytest.param(GearConfig(2, 2, V0=10.0), KickProtocol(ell=1, num_kicks=1),
                 CUTOFF, id="22-kick1-c16"),
    # kick trains: each kick moves the state into other hopping components
    pytest.param(GearConfig(2, 2, V0=10.0),
                 KickProtocol(ell=4, num_kicks=4, delta_t=1.0), 24,
                 id="22-train4x1-c24"),
    pytest.param(GearConfig(4, 2, V0=10.0),
                 KickProtocol(ell=6, num_kicks=3, delta_t=0.5), 30,
                 id="42-train3x2-c30"),
    # a lattice of 14641 states, far beyond a dense eigensolve of the whole
    pytest.param(GearConfig(2, 2, V0=10.0), KickProtocol(ell=40, num_kicks=1),
                 60, id="22-kick40-c60"),
])
def test_agrees_with_banded_pipeline(config, protocol, cutoff):
    times = np.array([0.0, 2.5, 5.0])
    series = oracle_run(config, protocol, times, cutoff=cutoff)
    state = run_protocol(derive_geometry(config), protocol)
    for i, t in enumerate(times):
        fast = time_series(state, [t])
        assert series.L1[i] == pytest.approx(fast.L1[0], abs=1e-8)
        assert series.L2[i] == pytest.approx(fast.L2[0], abs=1e-8)
        assert series.L2_sq[i] == pytest.approx(fast.L2_sq[0], abs=1e-8)


def test_time_series_agrees_at_large_ell():
    config, protocol = GearConfig(2, 2, V0=10.0), KickProtocol(ell=100, num_kicks=1)
    times = np.linspace(0.0, 5.0, 11)
    series = oracle_run(config, protocol, times, cutoff=130)
    fast = time_series(run_protocol(derive_geometry(config), protocol), times)
    for name in ("L1", "L2", "L2_sq"):
        np.testing.assert_allclose(getattr(series, name), getattr(fast, name),
                                   rtol=0, atol=1e-8, err_msg=name)


PROFILES = [PotentialSpec(), SECOND, THIRD, PotentialSpec(((0, 0.5), (2, 0.5)))]
INERTIAS = [0.5, 0.7, 1.0, 1.3, 1.5, 2.0]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       inertia=st.tuples(st.sampled_from(INERTIAS), st.sampled_from(INERTIAS)),
       V0=st.sampled_from([0.0, 4.0, 10.0, 20.0]),
       profile=st.sampled_from(PROFILES),
       train=st.tuples(st.integers(-3, 3), st.integers(1, 3),
                       st.sampled_from([0.0, 0.4, 1.3]), st.sampled_from([1, 2])))
@example(n=(2, 1), inertia=(0.7, 1.3), V0=10.0, profile=SECOND, train=(2, 2, 0.4, 1))
@example(n=(3, 2), inertia=(1.0, 2.0), V0=0.0, profile=PROFILES[0], train=(3, 1, 0.0, 1))
@example(n=(1, 3), inertia=(1.5, 0.5), V0=20.0, profile=THIRD, train=(-2, 3, 1.3, 2))
def test_pipeline_matches_oracle(n, inertia, V0, profile, train):
    """time_series L1, L2, L2^2 and the gear-2 distribution of the kernel
    against the raw lattice, for any inertias.  The oracle cutoff is the
    largest |m| the fast state occupies (|c|^2 > 1e-16 at some sample)
    plus 2 (n1 + n2) + 4."""
    (n1, n2), (I1, I2), (per, num, delta_t, gear) = n, inertia, train
    config = GearConfig(n1, n2, I1=I1, I2=I2, V0=V0, potential=profile)
    protocol = KickProtocol(ell=per * num, num_kicks=num, delta_t=delta_t,
                            target_gear=gear)
    times = np.array([0.0, 0.9, 2.5, 7.0])
    state = run_protocol(derive_geometry(config), protocol)
    window, _, C = dynamics._amplitudes(state, times)
    m1, m2 = window.momentum_pairs()
    P = np.abs(C) ** 2
    seen = P.max(axis=0) > 1e-16
    reach = max(np.abs(m1[seen]).max(), np.abs(m2[seen]).max())
    cutoff = int(reach) + 2 * (n1 + n2) + 4
    series = oracle_run(config, protocol, times, cutoff=cutoff)
    fast = time_series(state, times)
    for name in ("L1", "L2", "L2_sq"):
        np.testing.assert_allclose(getattr(series, name), getattr(fast, name),
                                   rtol=0, atol=1e-8, err_msg=name)
    gear2 = P @ (m2[:, None] == series.m_values[None, :])
    np.testing.assert_allclose(series.gear2, gear2, rtol=0, atol=1e-8)


P23 = PotentialSpec(((2, 0.3), (3, 0.2)))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(n=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       V0=st.sampled_from([0.0, 4.0, 10.0]),
       profile=st.sampled_from(PROFILES + [P23]),
       extra=st.integers(0, 12))
# every lattice site is its own component
@example(n=(2, 3), V0=0.0, profile=PROFILES[0], extra=5)
# no p = 1 term: the p = 2 hops split each p = 1 component in two
@example(n=(2, 2), V0=10.0, profile=PROFILES[3], extra=16)
# p = 2 and 3 alone: one component per line, reached only through both hops
@example(n=(1, 1), V0=10.0, profile=P23, extra=14)
@example(n=(2, 3), V0=10.0, profile=P23, extra=7)
# the smallest lattice allowed
@example(n=(3, 2), V0=10.0, profile=SECOND, extra=0)
def test_components_match_scipy_connected_components(n, V0, profile, extra):
    """Components' labelling against scipy.sparse.csgraph on the same
    lattice: the same components, numbered by their smallest lattice index,
    each listed in ascending lattice order; and each Gershgorin bound at or
    below its block's lowest eigenvalue, up to the eigensolver's round-off."""
    from scipy.sparse.csgraph import connected_components
    config = GearConfig(*n, V0=V0, potential=profile)
    cutoff = sum(n) + extra
    _, labels = connected_components(sparse_hamiltonian(config, cutoff), directed=False)
    components = Components(config, cutoff)
    sizes = np.bincount(labels)
    np.testing.assert_array_equal(components.order, np.argsort(labels, kind="stable"))
    np.testing.assert_array_equal(components.ends, np.cumsum(sizes))
    np.testing.assert_array_equal(components.starts, np.cumsum(sizes) - sizes)
    # Gershgorin holds exactly; the eigensolver can return an eigenvalue an
    # ulp below it (a one-site block), far inside the margin ground() allows
    for k in range(sizes.size):
        assert components.bounds[k] <= components[k][1][0] + 1e-4 * components.margin


@pytest.mark.parametrize("config,cutoff,kick", [
    pytest.param(GearConfig(1, 3, V0=6.0, potential=THIRD), 18, (2, 0),
                 id="13-third-c18"),
    pytest.param(GearConfig(2, 2, V0=6.0, potential=SECOND), 14, (2, 0),
                 id="22-second-c14"),
    pytest.param(GearConfig(4, 2, V0=6.0), 16, (0, 2), id="42-c16"),
])
def test_component_split_matches_dense_eigensolve(config, cutoff, kick):
    w, v = scipy.linalg.eigh(sparse_hamiltonian(config, cutoff).toarray())
    assert ground_energy_of(config, cutoff) == pytest.approx(w[0], abs=1e-12)
    kicked = oracle_apply_kick(oracle_ground_state(config, cutoff), *kick)
    # a faint admixture puts weight on every component, so none may be skipped
    c = (kicked.amplitudes.ravel()
         + 1e-9 * np.random.default_rng(1).standard_normal(w.size))
    state = LatticeState(config, cutoff, c.reshape(kicked.amplitudes.shape))
    for t in (0.7, 3.0):
        dense = v @ (np.exp(-1j * w * t) * (v.T @ c))
        split = oracle_evolve(state, t).amplitudes.ravel()
        assert np.max(np.abs(split - dense)) <= 1e-12


@pytest.mark.parametrize("config,ell", [
    pytest.param(GearConfig(1, 3, V0=27.83, potential=THIRD), 2, id="13-ell2"),
    pytest.param(GearConfig(2, 1, V0=20.0, potential=THIRD), 5, id="21-ell5"),
])
def test_breach_inside_the_outer_ring_is_caught(config, ell):
    # these components step by n > 1 and never reach |m| = cutoff, yet the
    # state leaks through the ring their hops cross
    times = np.linspace(0.0, 30.0, 41)
    protocol = KickProtocol(ell=ell, num_kicks=1)
    with pytest.raises(TruncationBreach):
        oracle_run(config, protocol, times, cutoff=20)
    oracle_run(config, protocol, times, cutoff=26)


def test_gear2_marginal_is_a_distribution(cfg22):
    times = np.array([0.0, 1.0])
    series = oracle_run(cfg22, KickProtocol(ell=1, num_kicks=1), times, cutoff=CUTOFF)
    for snapshot in series.gear2:
        probs = np.asarray(snapshot)
        assert np.all(probs >= -1e-14)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("t", [np.nan, -1.0, np.inf])
def test_oracle_run_refuses_the_times_the_pipeline_refuses(cfg22, geom22, t):
    """The oracle refuses the times `time_series` refuses: a NaN time would
    give NaN moments with no error, and a negative one would run backwards."""
    protocol = KickProtocol(ell=2, num_kicks=1)
    with pytest.raises(ConfigError, match="finite"):
        time_series(run_protocol(geom22, protocol), [t, 1.0])
    with pytest.raises(ConfigError, match="finite"):
        oracle_run(cfg22, protocol, [t, 1.0], cutoff=CUTOFF)


def test_edge_checks_fail_on_nan(cfg22):
    """NaN probability is not below the edge tolerance: both checks raise."""
    N = 2 * CUTOFF + 1
    with pytest.raises(TruncationBreach):
        oracle._check_edges(cfg22, CUTOFF, np.full((N, N), np.nan))
    state = oracle_ground_state(cfg22, CUTOFF)
    state.amplitudes[CUTOFF, CUTOFF] = np.nan
    with pytest.raises(TruncationBreach):
        oracle_apply_kick(state, l1=1)
