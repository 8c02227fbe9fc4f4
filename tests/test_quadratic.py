import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from glekit import matrixkit as mk
from glekit import quadratic as qa
from glekit import limits, thermo
from glekit.config import load_config
from glekit.errors import ShapeMismatch, SingularCovariance, UnsupportedPotential
from glekit.model import Kind, MemorySpec, ModelSpec, Quadratic, validate
from glekit.particles import InitPoint, init_ensemble, make_stepper, empirical_moments

from conftest import quadratic_gmv, quadratic_omv, quadratic_umv, random_quadratic

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def multisets_match(a, b, tol=1e-10):
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    if a.shape != b.shape:
        return False
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_overdamped_two_particles():
    dd = qa.assemble(quadratic_omv(omega2=1.0, eta2=1.0), N=2)
    assert np.allclose(dd.B, [[-1.5, 0.5], [0.5, -1.5]], atol=1e-15)
    assert np.array_equal(dd.D, np.eye(2))


def test_assemble_underdamped_single_particle():
    dd = qa.assemble(quadratic_umv(omega2=1.0, eta2=0.0, gamma=2.0), N=1)
    assert np.allclose(dd.B, [[0.0, 1.0], [-1.0, -2.0]], atol=1e-15)
    assert np.allclose(dd.D, np.diag([0.0, 2.0]), atol=1e-15)


def test_assemble_generalized_single_particle():
    dd = qa.assemble(quadratic_gmv(eta2=0.0), N=1)
    assert np.allclose(dd.B, [[0, 1, 0], [-1, 0, 1], [0, -1, -1]], atol=1e-15)
    assert np.allclose(dd.D, np.diag([0.0, 0.0, 1.0]), atol=1e-15)


def test_assemble_rejects_nonquadratic():
    from conftest import doublewell_gmv

    with pytest.raises(UnsupportedPotential):
        qa.assemble(doublewell_gmv(), N=1)


# ---------------------------------------------------------------------------
# base_spectrum
# ---------------------------------------------------------------------------


def test_base_spectrum_overdamped():
    assert np.allclose(qa.base_spectrum(quadratic_omv(1.0, 1.0)), [-2.0, -1.0])


def test_base_spectrum_underdamped_printed_formulas():
    w = qa.base_spectrum(quadratic_umv(omega2=1.0, eta2=1.0, gamma=2.0))
    assert multisets_match(w, [-1.0, -1.0, -1.0 + 1j, -1.0 - 1j])


def test_base_spectrum_generalized_decoupled_mode():
    w = qa.base_spectrum(quadratic_gmv(omega2=1.0, eta2=0.0, lambdas=(0.0,), alphas=(1.0,)))
    assert w.shape == (6,)  # both branches, duplicated when eta2 = 0
    uniq = np.unique(np.round(w, 10))
    assert multisets_match(uniq, [-1.0, -1j, 1j])


def test_base_spectrum_matches_two_particle_drift(rng):
    # the two-particle drift carries each branch exactly once
    for kind in (Kind.OVERDAMPED, Kind.UNDERDAMPED, Kind.GENERALIZED):
        for m in (1, 2, 3):
            for _ in range(7):
                model = random_quadratic(kind, rng, m=m)
                base = qa.base_spectrum(model)
                eigs = mk.eig(qa.assemble(model, 2).B)
                assert multisets_match(base, eigs), f"kind={kind}, m={m}"


def test_base_spectrum_subset_of_larger_systems(rng):
    for kind in (Kind.OVERDAMPED, Kind.UNDERDAMPED, Kind.GENERALIZED):
        model = random_quadratic(kind, rng)
        base = qa.base_spectrum(model)
        for N in (3, 5):
            eigs = mk.eig(qa.assemble(model, N).B)
            for lam in base:
                assert np.min(np.abs(eigs - lam)) <= 1e-8, f"{lam} missing for N={N}"


def test_single_particle_drift_equals_noninteracting_branch(rng):
    # with one particle the empirical mean is the particle itself: eta2 drops out
    model = random_quadratic(Kind.GENERALIZED, rng)
    free = quadratic_gmv(
        omega2=model.omega2,
        eta2=0.0,
        beta=model.beta,
        lambdas=model.memory.diagonal_rates()[0],
        alphas=model.memory.diagonal_rates()[1],
    )
    eigs = mk.eig(qa.assemble(model, 1).B)
    base_free = qa.base_spectrum(free)
    # the free branch carries each root twice; the N=1 drift once
    uniq = np.unique(np.round(base_free, 10))
    assert multisets_match(np.sort_complex(eigs), np.sort_complex(uniq), tol=1e-8)


def _gmv(d, memory):
    spec = ModelSpec(d=d, beta=1.0, potential=Quadratic(1.3), eta2=0.6,
                     memory=memory, kind=Kind.GENERALIZED)
    return validate(spec)


@pytest.mark.parametrize(
    "d, lam, A",
    [
        (1, [[1.0]], [[2.0]]),
        (2, np.kron([[1.0], [-0.5]], np.eye(2)), np.kron(np.diag([2.0, 0.7]), np.eye(2))),
    ],
    ids=["m=1 d=1", "m=2 d=2"],
)
def test_base_spectrum_reads_the_rates_from_lam_and_A(d, lam, A):
    # a memory built without the diagonal constructor: the rates come from lam and A
    model = _gmv(d, MemorySpec(lam=np.asarray(lam), A=np.asarray(A)))
    B, K, _ = qa.split_BK(model)
    drift = np.concatenate([mk.eig(B), mk.eig(B + K)])
    assert multisets_match(np.repeat(qa.base_spectrum(model), d), drift)


@pytest.mark.parametrize(
    "lam, A",
    [
        (np.ones((2, 1)), [[2.0, 0.5], [0.5, 1.0]]),
        (np.diag([1.0, 3.0]), np.eye(2)),
    ],
    ids=["A not diagonal", "lam not a multiple of I"],
)
def test_base_spectrum_rejects_a_memory_off_the_diagonal_form(lam, A):
    d = lam.shape[1]
    model = _gmv(d, MemorySpec(lam=lam, A=np.asarray(A)))
    with pytest.raises(UnsupportedPotential):
        qa.base_spectrum(model)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def _recursive_lattice(base, cap):
    """The lattice enumerated one multi-index at a time, by recursion: the oracle.

    Every multi-index is a tuple with its point acc + k_j * base[j], added in
    order from complex zero; all are sorted by (total degree, multi-index) and
    the first of each 1e-12 key is kept.
    """
    base = np.asarray(base, dtype=complex)
    entries = []

    def rec(j, remaining, k, acc):
        if j == base.size:
            entries.append((sum(k), tuple(k), acc))
            return
        for kj in range(remaining + 1):
            rec(j + 1, remaining - kj, k + [kj], acc + kj * base[j])

    rec(0, cap, [], 0.0 + 0.0j)
    entries.sort(key=lambda e: (e[0], e[1]))
    seen, points, indices = set(), [], []
    for _, k, val in entries:
        key = (round(val.real / qa.DEDUP_TOL), round(val.imag / qa.DEDUP_TOL))
        if key not in seen:
            seen.add(key)
            points.append(val)
            indices.append(k)
    return np.asarray(points, dtype=complex), np.asarray(indices, dtype=int).reshape(-1, base.size)


def _lattice_cases():
    """(id, base, caps): model spectra with r = 2, 4, 6 and 8, and made-up bases with r = 1..8."""
    rng = np.random.default_rng(34)
    cases = [
        ("overdamped", qa.base_spectrum(quadratic_omv(1.3, 0.7)), range(13)),
        ("underdamped", qa.base_spectrum(quadratic_umv(1.0, 1.0, gamma=0.5)), range(13)),
        ("memory-1", qa.base_spectrum(quadratic_gmv(lambdas=(1.5,), alphas=(0.5,))), [0, 1, 4, 7, 12]),
        ("memory-2", qa.base_spectrum(quadratic_gmv(lambdas=(1.0, 0.6), alphas=(0.5, 2.0))),
         [0, 1, 3, 6]),
    ]
    for r in range(1, 9):
        caps = [c for c in range(13) if math.comb(c + r, r) <= 3000]
        reals = -np.round(rng.uniform(0.1, 3.0, r), 1)  # one decimal: many coinciding sums
        reals[r // 2 :] = reals[: r - r // 2]  # and repeated values
        cases.append((f"coinciding-r{r}", reals.astype(complex), caps))
        pairs = -rng.uniform(0.1, 2.0, r) + 1j * rng.uniform(0.1, 2.0, r)
        pairs[1::2] = pairs[0::2][: r // 2].conj()
        cases.append((f"pairs-r{r}", pairs, caps))
    return cases


@pytest.mark.parametrize("base, caps", [c[1:] for c in _lattice_cases()],
                         ids=[c[0] for c in _lattice_cases()])
def test_lattice_equals_the_recursive_enumeration_to_the_bit(base, caps):
    for cap in caps:
        points, indices = _recursive_lattice(base, cap)
        rep = qa.spectrum_lattice(base, cap)
        assert rep.lattice.tobytes() == points.tobytes()
        assert rep.multi_indices.dtype.kind == "i"
        assert np.array_equal(rep.multi_indices, indices)


def test_lattice_order_and_kept_multi_indices_by_hand():
    # (2, 0) gives -2 again, after (0, 1) in degree order, and is dropped
    rep = qa.spectrum_lattice([-1.0, -2.0], cap=2)
    assert rep.lattice.tolist() == [0.0, -2.0, -1.0, -4.0, -3.0]
    assert rep.multi_indices.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1]]


def test_lattice_two_reals():
    rep = qa.spectrum_lattice([-1.0, -2.0], cap=2)
    assert multisets_match(rep.lattice, [0.0, -1.0, -2.0, -3.0, -4.0])


def test_lattice_single_value():
    rep = qa.spectrum_lattice([-1.0], cap=3)
    assert multisets_match(rep.lattice, [0.0, -1.0, -2.0, -3.0])


def test_lattice_rejects_negative_cap():
    with pytest.raises(ShapeMismatch):
        qa.spectrum_lattice([-1.0], cap=-1)


def test_lattice_complex_pair():
    rep = qa.spectrum_lattice([-1.0 + 1j, -1.0 - 1j], cap=1)
    assert multisets_match(rep.lattice, [0.0, -1.0 + 1j, -1.0 - 1j])


@settings(deadline=None, max_examples=25)
@given(
    re=st.lists(st.floats(min_value=-3.0, max_value=-0.1), min_size=1, max_size=3),
    cap=st.integers(min_value=1, max_value=4),
)
def test_lattice_contains_zero_and_is_closed(re, cap):
    base = np.asarray(re, dtype=complex)
    rep = qa.spectrum_lattice(base, cap=cap)
    assert np.min(np.abs(rep.lattice)) <= 1e-12
    for pt, k in zip(rep.lattice, rep.multi_indices):
        if sum(k) < cap:
            for lam in base:
                shifted = pt + lam
                assert np.min(np.abs(rep.lattice - shifted)) <= 1e-9
    # the gap read from the drift eigenvalues is the lattice's, to the bit
    nonzero = rep.lattice[np.abs(rep.lattice) > 1e-12]
    assert qa.spectral_gap(base) == -np.max(nonzero.real) >= 0.1 - 1e-9


def test_spectrum_report_and_gap():
    rep = qa.spectrum_report(quadratic_omv(1.0, 1.0), cap=4)
    assert qa.spectral_gap(rep.base_eigenvalues) == pytest.approx(1.0)


def test_lattice_ceiling_admits_cap_20_of_one_memory_mode_and_no_more():
    assert math.comb(20 + 6, 6) <= qa.MAX_LATTICE_ENTRIES < math.comb(21 + 6, 6)
    base = qa.base_spectrum(load_config(CONFIGS / "quadratic_gmv.conf").model())
    rep = qa.spectrum_lattice(base, cap=20)
    k = rep.multi_indices
    assert k.shape == (rep.lattice.size, 6)
    assert k.min() >= 0 and np.all(np.diff(k.sum(axis=1)) >= 0) and k.sum(axis=1)[-1] <= 20
    assert np.allclose(rep.lattice, k @ base, rtol=0.0, atol=1e-12 * 20 * np.abs(base).max())
    keys = np.round(np.column_stack([rep.lattice.real, rep.lattice.imag]) / qa.DEDUP_TOL)
    assert len(np.unique(keys, axis=0)) == rep.lattice.size


def test_a_lattice_of_exactly_the_ceiling_is_built_and_one_more_entry_is_refused(monkeypatch):
    base = [-1.0, -2.5 + 1j, -2.5 - 1j]
    monkeypatch.setattr(qa, "MAX_LATTICE_ENTRIES", math.comb(4 + 3, 3))
    assert len(qa.spectrum_lattice(base, cap=4).lattice) > 1
    with pytest.raises(ShapeMismatch, match="lattice cap 5 over 3 drift eigenvalues needs 56"):
        qa.spectrum_lattice(base, cap=5)


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------


def test_ou_fundamental_point_value():
    val = qa.ou_fundamental(np.zeros((1, 1)), np.eye(1), 1.0, [0.3], [0.3])
    assert val == pytest.approx((4 * np.pi) ** -0.5, rel=1e-12)


def test_ou_fundamental_long_time_variance():
    # scalar stable drift relaxes to variance 2 * D_inf = 1; the printed
    # displacement e^{-tB} y diverges for stable B, so the invariant profile
    # is read off at y = 0 (the stationary-density formula carries no y)
    for x in (-1.0, 0.0, 0.7):
        val = qa.ou_fundamental(np.array([[-1.0]]), np.eye(1), 50.0, [x], [0.0])
        ref = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        assert val == pytest.approx(ref, rel=1e-10)
    d_inf = mk.gram_integral(np.array([[-1.0]]), np.eye(1), 50.0)[0, 0]
    assert 2.0 * d_inf == pytest.approx(1.0, rel=1e-12)


def test_ou_fundamental_normalizes_for_memory_block():
    model = quadratic_gmv(eta2=0.0)
    dd = qa.assemble(model, 1)
    D = model.beta_inv * dd.D
    t = 1.0
    y = np.array([0.5, 0.0, -0.2])
    axes = [np.linspace(-8.0, 8.0, 129)] * 3
    qg, pg, zg = np.meshgrid(*axes, indexing="ij")
    h = axes[0][1] - axes[0][0]
    Dt = mk.gram_integral(dd.B, D, t)
    prec = np.linalg.inv(Dt)
    mean = mk.expm(-t * dd.B) @ y
    dx = np.stack([qg - mean[0], pg - mean[1], zg - mean[2]], axis=-1)
    quad = np.einsum("...i,ij,...j->...", dx, prec, dx)
    dens = np.exp(-0.25 * quad) / ((4 * np.pi) ** 1.5 * np.sqrt(np.linalg.det(Dt)))
    # spot-check the vectorized field against the scalar entry point
    assert dens[64, 64, 64] == pytest.approx(
        qa.ou_fundamental(dd.B, D, t, [0.0, 0.0, 0.0], y), rel=1e-12
    )
    total = dens.sum() * h**3
    assert total == pytest.approx(1.0, abs=1e-6)


def test_ou_fundamental_raises_on_degenerate_pair():
    with pytest.raises(SingularCovariance):
        qa.ou_fundamental(np.zeros((2, 2)), np.diag([1.0, 0.0]), 1.0, [0, 0], [0, 0])


def test_fundamental_kernel_convention_reported():
    # the kernel's displacement uses the reversed drift: in x it is the N(e^{-tB} y, 2 D_t)
    # density, while the exact forward law from y has mean e^{tB} y and covariance 2 D_t
    B = np.array([[-1.0, 0.5], [0.0, -2.0]])
    D = np.eye(2)
    t, y = 0.8, np.array([1.0, -1.0])
    cov = 2.0 * mk.gram_integral(B, D, t)
    peak = mk.expm(-t * B) @ y
    forward = qa.propagate_gaussian(B, np.zeros((2, 2)), D, t, qa.GaussianLaw(y, np.zeros((2, 2))))
    assert np.allclose(forward.mean, mk.expm(t * B) @ y, rtol=1e-12, atol=0.0)
    assert np.allclose(forward.cov, cov, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(forward.mean - peak)) > 1.0  # the two conventions differ

    prec = np.linalg.inv(cov)
    norm = 2.0 * np.pi * np.sqrt(np.linalg.det(cov))
    top = qa.ou_fundamental(B, D, t, peak, y)
    for dx in np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, -1e-3], [0.3, -0.2], forward.mean - peak]):
        x = peak + dx
        kernel = qa.ou_fundamental(B, D, t, x, y)
        assert kernel == pytest.approx(np.exp(-0.5 * dx @ prec @ dx) / norm, rel=1e-12)
        assert kernel < top or np.array_equal(x, peak)


# ---------------------------------------------------------------------------
# the time grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, dt",
    [(1, -0.1), (-1, 0.1), (0, 0.1), (1e-12, 1e-3), (1, math.inf), (math.inf, 1),
     (math.nan, 0.1), (1, math.nan), (1, 0), (1.0, 0.3)],
)
def test_whole_steps_rejects_a_horizon_of_no_whole_number_of_steps(t, dt):
    # (1, -0.1) gave -10 steps, and (1e-12, 1e-3) and (1, inf) gave 0: runs that end at t = 0
    with pytest.raises(ShapeMismatch, match=re.escape(f"t={t} is not a positive whole number of "
                                                      f"steps dt={dt}")):
        qa.whole_steps(t, dt)


@pytest.mark.parametrize("t, dt, k", [(1.0, 0.1, 10), (0.5, 0.5, 1), (1.0 + 1e-10, 0.1, 10)])
def test_whole_steps_counts_the_steps_of_a_horizon(t, dt, k):
    assert qa.whole_steps(t, dt) == k


# ---------------------------------------------------------------------------
# mean-field Gaussian law
# ---------------------------------------------------------------------------


def test_meanfield_green_scalar_closed_form():
    for t in (0.3, 1.0, 4.0):
        law = qa.meanfield_green([[-1.0]], [[-1.0]], [[1.0]], t, [1.0])
        assert law.mean[0] == pytest.approx(np.exp(-t), rel=1e-12)
        assert law.cov[0, 0] == pytest.approx((1 - np.exp(-4 * t)) / 2, rel=1e-11)
    late = qa.meanfield_green([[-1.0]], [[-1.0]], [[1.0]], 40.0, [1.0])
    assert late.cov[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_meanfield_green_time_zero():
    law = qa.meanfield_green(np.eye(2), np.zeros((2, 2)), np.eye(2), 0.0, [1.0, 2.0])
    assert np.array_equal(law.mean, [1.0, 2.0])
    assert np.array_equal(law.cov, np.zeros((2, 2)))


def test_riccati_covariance_satisfies_printed_ode(rng):
    # dQ/dt = 2 [D + (B+K) Q], checked by centered differences
    for _ in range(5):
        n = int(rng.integers(1, 4))
        B = rng.uniform(-1, 1, (n, n)) - 2.0 * np.eye(n)
        K = rng.uniform(-0.5, 0.5, (n, n))
        R = rng.uniform(-1, 1, (n, n))
        D = R @ R.T
        for t in rng.uniform(0.1, 2.0, 3):
            Q = qa.riccati_covariance(B, K, D, t)
            h = 1e-5
            fd = (qa.riccati_covariance(B, K, D, t + h) - qa.riccati_covariance(B, K, D, t - h)) / (
                2 * h
            )
            rhs = 2.0 * (D + (B + K) @ Q)
            assert np.max(np.abs(fd - rhs)) <= 1e-6 * max(1.0, np.max(np.abs(rhs)))


def test_riccati_equals_gram_in_one_dimension(rng):
    for _ in range(10):
        b, k = rng.uniform(-2, -0.1), rng.uniform(-1, 1)
        d = rng.uniform(0.1, 2)
        t = rng.uniform(0.1, 3)
        Q = qa.riccati_covariance([[b]], [[k]], [[d]], t)[0, 0]
        G = qa.meanfield_green([[b]], [[k]], [[d]], t, [0.0]).cov[0, 0]
        assert Q == pytest.approx(G, rel=1e-10)


def test_meanfield_green_covariance_psd_along_time(rng):
    for _ in range(5):
        model = random_quadratic(Kind.GENERALIZED, rng)
        B, K, D = qa.split_BK(model)
        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            law = qa.meanfield_green(B, K, D, t, np.zeros(B.shape[0]))
            w = np.linalg.eigvalsh(law.cov)
            assert w[0] >= -1e-10 * max(1.0, w[-1])


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: sign bits of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _hand_built_split(model):
    """(B, K, D) written out block by block in the [q, p, z] layout."""
    d, w2, e2, bi = model.d, model.omega2, model.eta2, model.beta_inv
    eye = np.eye(d)
    if model.kind is Kind.OVERDAMPED:
        return -w2 * eye, -e2 * eye, bi * eye
    if model.kind is Kind.UNDERDAMPED:
        Z = np.zeros((d, d))
        B = np.block([[Z, eye], [-w2 * eye, -model.gamma * eye]])
        K = np.zeros((2 * d, 2 * d))
        K[d:, :d] = -e2 * eye
        D = np.zeros((2 * d, 2 * d))
        D[d:, d:] = model.gamma * bi * eye
        return B, K, D
    lam, A = np.asarray(model.memory.lam, float), np.asarray(model.memory.A, float)
    n = 2 * d + lam.shape[0]
    B, K, D = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    B[:d, d : 2 * d] = eye
    B[d : 2 * d, :d] = -w2 * eye
    B[d : 2 * d, 2 * d :] = lam.T
    B[2 * d :, d : 2 * d] = -lam
    B[2 * d :, 2 * d :] = -A
    K[d : 2 * d, :d] = -e2 * eye
    D[2 * d :, 2 * d :] = bi * A
    return B, K, D


def _spec(kind, d, **kw):
    return validate(
        ModelSpec(d=d, potential=Quadratic(1.5), eta2=0.7, kind=kind, **kw)
    )


def test_split_bk_examples():
    B, K, D = qa.split_BK(quadratic_omv(1.0, 1.0, beta=1.0))
    assert (B[0, 0], K[0, 0], D[0, 0]) == (-1.0, -1.0, 1.0)

    B, K, D = qa.split_BK(quadratic_umv(1.0, 1.0, beta=1.0, gamma=1.0))
    assert np.allclose(B, [[0, 1], [-1, -1]])
    assert np.allclose(K, [[0, 0], [-1, 0]])
    assert np.allclose(D, np.diag([0.0, 1.0]))

    B, K, D = qa.split_BK(quadratic_gmv())
    assert np.allclose(B, [[0, 1, 0], [-1, 0, 1], [0, -1, -1]])
    expected_K = np.zeros((3, 3))
    expected_K[1, 0] = -1.0
    assert np.allclose(K, expected_K)
    assert np.allclose(D, np.diag([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "model",
    [
        _spec(
            Kind.GENERALIZED, 2, beta=2.0,
            memory=MemorySpec(
                lam=np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.0], [0.75, -1.0]]),
                A=np.array([[3.0, 0.5, -0.25, 0.0], [0.5, 2.0, 0.5, -0.5],
                            [-0.25, 0.5, 2.5, 0.25], [0.0, -0.5, 0.25, 1.5]]),
            ),
        ),
        _spec(Kind.OVERDAMPED, 3, beta=2.0),
        _spec(Kind.UNDERDAMPED, 3, beta=2.0, gamma=1.25),
    ],
    ids=["generalized d=2 m=2 full", "overdamped d=3", "underdamped d=3"],
)
def test_split_bk_matches_hand_built_blocks_bitwise(model):
    for got, want in zip(qa.split_BK(model), _hand_built_split(model)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("conf", ["quadratic_gmv.conf", "quadratic_umv.conf"])
def test_meanfield_green_is_expm_mean_and_gram_covariance_bitwise(conf):
    model = load_config(CONFIGS / conf).model()
    B, K, D = qa.split_BK(model)
    x0 = np.eye(B.shape[0])[0]
    for t in (0.5, 1.0, 2.0):
        law = qa.meanfield_green(B, K, D, t, x0)
        assert _same_bits(law.mean, mk.expm(t * B) @ x0)
        assert _same_bits(law.cov, mk.gram_integral(B + K, 2.0 * D, t))


@pytest.mark.parametrize(
    "B, K, law",
    [
        (np.eye(3), np.zeros((3, 3)), qa.GaussianLaw(mean=[1.0, 0.0], cov=np.eye(2))),
        (np.eye(2), np.zeros((3, 3)), qa.GaussianLaw(mean=[1.0, 0.0], cov=np.eye(2))),
    ],
    ids=["B wider than the law", "K wider than B"],
)
def test_propagate_gaussian_rejects_inconsistent_shapes(B, K, law):
    with pytest.raises(ShapeMismatch):
        qa.propagate_gaussian(-B, K, np.eye(B.shape[0]), 0.5, law)


@pytest.mark.parametrize(
    "B, K, D, t, x0",
    [
        (-np.eye(2), np.zeros((3, 3)), np.eye(2), 0.5, [1.0, 0.0]),
        (-np.eye(2), np.zeros((2, 2)), np.eye(3), 0.5, [1.0, 0.0]),
        (-np.eye(2), np.zeros((2, 2)), np.eye(2), 0.5, [1.0, 0.0, 0.0]),
        (-np.eye(2), np.zeros((2, 2)), np.eye(2), -0.1, [1.0, 0.0]),
    ],
    ids=["K wider than B", "D wider than B", "x0 longer than B", "negative t"],
)
def test_meanfield_green_rejects_inconsistent_inputs(B, K, D, t, x0):
    with pytest.raises(ShapeMismatch):
        qa.meanfield_green(B, K, D, t, x0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: qa.riccati_covariance(-np.eye(2), np.zeros((3, 3)), np.eye(2), 0.5),
        lambda: qa.riccati_covariance(-np.eye(2), np.zeros((2, 2)), np.eye(3), 0.5),
        lambda: qa.riccati_covariance(-np.eye(2), np.zeros((2, 2)), np.eye(2), -0.1),
    ],
    ids=["riccati K wider than B", "riccati D wider than B", "riccati negative t"],
)
def test_riccati_and_mc_discrepancy_reject_inconsistent_inputs(call):
    with pytest.raises(ShapeMismatch):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_flows_reject_a_time_that_is_not_finite(t):
    B, K, D = -np.eye(2), np.zeros((2, 2)), np.eye(2)
    for call in (lambda: qa.meanfield_green(B, K, D, t, [1.0, 0.0]),
                 lambda: qa.riccati_covariance(B, K, D, t)):
        with pytest.raises(ShapeMismatch, match="t must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gaussian_law_rejects_a_nonfinite_covariance(bad):
    with pytest.raises(ShapeMismatch, match="non-finite"):
        qa.GaussianLaw(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ShapeMismatch, match="non-finite"):
        qa.check_covariances(np.stack([np.eye(2), np.full((2, 2), bad)]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gaussian_law_rejects_a_nonfinite_mean(bad):
    # a law started at a non-finite point is no law, not a table of nan or inf
    with pytest.raises(ShapeMismatch, match="mean has non-finite"):
        qa.GaussianLaw(mean=[0.0, bad], cov=np.eye(2))
    with pytest.raises(ShapeMismatch, match="mean has non-finite"):
        qa.meanfield_green(-np.eye(2), np.zeros((2, 2)), np.eye(2), 1.0, [bad, 0.0])


def test_generalized_models_are_hypoelliptic(rng):
    # positive definite A and nonzero coupling propagate noise everywhere
    for _ in range(20):
        model = random_quadratic(Kind.GENERALIZED, rng, m=int(rng.integers(1, 3)))
        dd = qa.assemble(model, 1)
        _, hypo = mk.kalman_rank(dd.B, dd.D)
        assert hypo


def test_meanfield_green_matches_particle_moments():
    # interacting ensemble from a point start tracks the Gaussian law
    model = quadratic_gmv()
    N, dt, T = 4000, 1e-3, 1.0
    ens = init_ensemble(model, N, seed=5, init=InitPoint([1.0, 0.0, 0.0]))
    stepper = make_stepper(model, dt)
    for _ in range(int(T / dt)):
        stepper.step(ens)
    mean, cov, se = empirical_moments(ens)
    law = qa.meanfield_law(model, T, [1.0, 0.0, 0.0])
    assert np.all(np.abs(mean - law.mean) <= 4.0 * se)
    from glekit.particles import covariance_se

    cse = covariance_se(cov, N)
    assert np.all(np.abs(cov - law.cov) <= 4.0 * cse)


# ---------------------------------------------------------------------------
# integrator-law oracle
# ---------------------------------------------------------------------------


def stepper_bias(model, dt, x0, T=1.0):
    """Max entrywise distance of the stepper's exact law at T from the true law."""
    n = len(x0)
    law = qa.stepper_law(make_stepper(model, dt), x0, np.zeros((n, n)), int(round(T / dt)))
    ref = qa.meanfield_law(model, T, x0)
    return max(np.max(np.abs(law.mean - ref.mean)), np.max(np.abs(law.cov - ref.cov)))


@pytest.mark.parametrize(
    "label, model, x0, lo, hi",
    [
        ("overdamped", quadratic_omv(), [1.0], 1.8, 2.2),
        ("underdamped", quadratic_umv(gamma=1.5), [1.0, 0.0], 3.5, 4.5),
        ("generalized m=2", quadratic_gmv(lambdas=(1.0, 0.5), alphas=(1.0, 3.0)),
         [1.0, 0.0, 0.0, 0.0], 3.5, 4.5),
    ]
    + [
        (f"generalized eps={eps}", limits.scaled_spec(quadratic_gmv(), eps), [1.0, 0.0, 0.0],
         3.5, 4.5)
        for eps in (1.0, 1 / 8, 1 / 32)
    ]
    + [
        ("overdamped d=3", quadratic_omv(d=3), [1.0, -0.5, 0.25], 1.8, 2.2),
        ("underdamped d=3", quadratic_umv(gamma=1.5, d=3), [1.0, -0.5, 0.25, 0.0, 0.3, 0.0],
         3.5, 4.5),
        ("generalized m=2 d=3", quadratic_gmv(lambdas=(1.0, 0.5), alphas=(1.0, 3.0), d=3),
         [1.0, -0.5, 0.25] + [0.0] * 9, 3.5, 4.5),
    ],
)
def test_stepper_law_bias_order(label, model, x0, lo, hi):
    # Euler-Maruyama is first order in dt, the B-A-O-A-B splittings second
    fine = stepper_bias(model, 1e-3, x0)
    ratio = stepper_bias(model, 2e-3, x0) / fine
    assert lo <= ratio <= hi, f"{label}: bias ratio {ratio}"
    if model.kind is Kind.GENERALIZED:
        # bounded uniformly in eps: the exact (p, z) step needs no smaller dt
        assert fine <= 1e-5, f"{label}: bias {fine}"


def _sequential_laws(Phi, Phi_t, Q, mean, cov, n_steps):
    """The law recursion one step at a time, each covariance symmetrized as (c + c^T) / 2."""
    means, covs = [np.asarray(mean, dtype=float)], [np.asarray(cov, dtype=float)]
    for _ in range(n_steps):
        means.append(Phi @ means[-1])
        c = Phi_t @ covs[-1] @ Phi_t.T + Q
        covs.append(0.5 * (c + c.T))
    return np.array(means), np.array(covs)


_B = qa._LAW_BLOCK


@pytest.mark.parametrize("n_steps", [0, 1, _B - 1, _B, _B + 1, 2 * _B, 3 * _B + 5])
def test_block_laws_equal_the_sequential_loop(n_steps):
    rng = np.random.default_rng(7)
    n = 3
    # non-normal one-step maps near the identity, Phi != Phi~, and a full-rank Q
    M = -np.eye(n) + np.triu(rng.uniform(-2.0, 2.0, (n, n)), 1)
    Phi = np.eye(n) + 0.01 * M
    Phi_t = np.eye(n) + 0.01 * (M - np.diag([0.5, 0.2, 0.1]))
    R = rng.uniform(-1.0, 1.0, (n, n))
    Q = 0.01 * (R @ R.T)
    mean = np.array([1.0, -0.5, 0.25])
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]])
    means, covs = qa.affine_laws(Phi, Phi_t, Q, mean, cov, n_steps)
    want_means, want_covs = _sequential_laws(Phi, Phi_t, Q, mean, cov, n_steps)
    assert means.shape == (n_steps + 1, n) and covs.shape == (n_steps + 1, n, n)
    assert np.array_equal(covs, np.swapaxes(covs, 1, 2))
    if n_steps <= _B:
        assert _same_bits(means, want_means) and _same_bits(covs, want_covs)
    for got, want in ((means, want_means), (covs, want_covs)):
        err = np.max(np.abs(got - want).reshape(n_steps + 1, -1), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(want).reshape(n_steps + 1, -1), axis=1))


def test_block_laws_are_no_less_accurate_than_the_loop_against_the_exact_law():
    # thermo's maps and start: T = 5 at dt = 1e-3 from the stationary law, z variance doubled
    model = load_config(CONFIGS / "quadratic_gmv.conf").model()
    B, K, D = qa.split_BK(model)
    law0 = thermo.stationary_law(model)
    cov = law0.cov.copy()
    cov[2:, 2:] *= 2.0
    dt, n_steps = 1e-3, 5000
    maps = qa.flow_maps(B, K, D, dt)
    _, covs = qa.affine_laws(*maps, law0.mean, cov, n_steps)
    _, loop_covs = _sequential_laws(*maps, law0.mean, cov, n_steps)
    ks = range(500, n_steps + 1, 500)
    exact = [qa.propagate_gaussian(B, K, D, k * dt, qa.GaussianLaw(law0.mean, cov)).cov for k in ks]
    block_err = max(np.max(np.abs(covs[k] - ref)) for k, ref in zip(ks, exact))
    loop_err = max(np.max(np.abs(loop_covs[k] - ref)) for k, ref in zip(ks, exact))
    assert block_err <= loop_err


@pytest.mark.parametrize(
    "model", [quadratic_omv(), quadratic_umv(gamma=1.5),
              quadratic_gmv(lambdas=(1.0, 0.5), alphas=(1.0, 3.0))]
)
def test_chained_stepper_laws_equal_one_multi_step_law_bitwise(model):
    stepper = make_stepper(model, 1e-2)
    n = model.state_dim()
    mean, cov = np.linspace(1.0, -0.5, n), 0.1 * np.eye(n)
    law = qa.GaussianLaw(mean=mean, cov=cov)
    for _ in range(7):
        law = qa.stepper_law(stepper, law.mean, law.cov, 1)
    whole = qa.stepper_law(stepper, mean, cov, 7)
    assert _same_bits(law.mean, whole.mean)
    assert _same_bits(law.cov, whole.cov)


@pytest.mark.parametrize(
    "model, x0",
    [
        (quadratic_omv(beta=np.inf, eta2=2.0), [0.3]),
        (quadratic_umv(beta=np.inf, eta2=2.0, gamma=1.5), [0.3, -0.2]),
        (quadratic_gmv(beta=np.inf, eta2=2.0, lambdas=(1.0, 0.5), alphas=(1.0, 3.0)),
         [0.3, -0.2, 0.1, 0.4]),
    ],
)
def test_stepper_law_follows_a_noise_free_particle_pair(model, x0):
    # two particles at mu +/- delta: the mean moves with Phi, delta with Phi~
    dt, n_steps = 1e-2, 150
    delta = np.array([0.5, 0.1, -0.3, 0.2])[: len(x0)]
    mean0 = np.array([1.0, 0.0, 0.5, -0.5])[: len(x0)]
    ens = init_ensemble(model, 2, seed=0, init=InitPoint(x0))
    X = np.vstack([mean0 + delta, mean0 - delta])
    d = model.d
    ens.q = X[:, :d].copy()
    if ens.p is not None:
        ens.p = X[:, d : 2 * d].copy()
    if ens.z is not None:
        ens.z = X[:, 2 * d :].copy()
    stepper = make_stepper(model, dt)
    for _ in range(n_steps):
        stepper.step(ens)
    law = qa.stepper_law(stepper, mean0, np.outer(delta, delta), n_steps)
    Y = ens.X.T
    assert np.allclose(Y.mean(axis=0), law.mean, rtol=0, atol=1e-12)
    assert np.allclose(np.cov(Y.T, ddof=0), law.cov, rtol=0, atol=1e-12)
