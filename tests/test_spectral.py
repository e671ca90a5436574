"""Degenerate Sturm-Liouville eigenbasis: -(x^beta v')' = lambda v."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from degenfrac import spectral
from degenfrac.errors import (DegeneracyError, DomainError, ResolutionError,
                              SolverError)
from degenfrac.spectral import (
    _assemble_p1,
    _gauss_rule,
    _Projector,
    _mesh,
    _rule,
    _rule_basis,
    _shift_invert_lanczos,
    bc_requirements,
    bessel_eigen,
    flux_limit_check,
    grading_exponent,
    orthogonality_report,
    solve_eigen,
)

# first three eigenvalues from the closed-form route
# lambda_k = ((2-beta) j_{nu,k} / 2)^2, nu = |1-beta|/(2-beta)  (frozen)
_LAMBDA_REF = {
    0.3: (6.570921403113259, 27.33603134644005, 62.3612015066717),
    0.5: (4.739066397843349, 20.47164584453372, 47.30523332325972),
    0.9: (1.957309668361825, 9.696309005614308, 23.40341516857641),
    1.1: (1.341883777532092, 6.562811607312073, 15.77900396451581),
    1.5: (0.9176231651327602, 3.076153520105971, 6.468715868445781),
    1.9: (0.4458433531040613, 0.7431492006939084, 1.082333094261804),
}

# lambda_1..lambda_8 at the default mesh, frozen from the ARPACK shift-invert
# solve through scipy's sparse eigensolver, which the Lanczos solver replaced;
# the two differ by rounding only: about 1e-12 relative, 2.5e-11 at beta 1.7
_LAMBDA_ARPACK = {
    0.2: (7.5970384777308455, 31.137411979908517, 70.66556638374142,
          126.1824647025643, 197.688366177116, 285.18347257501597,
          388.6680015398642, 508.1422015483386),
    0.5: (4.739067191190383, 20.47166064792766, 47.30531236488038,
          85.24199641946079, 134.28207325979636, 194.42572754390062,
          265.67312478968927, 348.0244427181348),
    0.8: (2.542441279200973, 12.02095635916467, 28.602643770676085,
          52.29004819439318, 83.08355747848996, 120.98332625745971,
          165.98947162191135, 218.10211108084513),
    1.2: (1.2373339790733555, 5.5812077209381545, 13.08237610004676,
          23.74169031188182, 37.559290855607294, 54.53524009658027,
          74.66958896124973, 97.96239005339515),
    1.5: (0.9176236695975907, 3.076159132756328, 6.468738453069646,
          11.095109506828065, 16.955239057156525, 24.04912987236363,
          32.376795928516174, 41.9382568493199),
    1.7: (0.6944446172228775, 1.7704385474728388, 3.2887294562578737,
          5.250707834218513, 7.656669979119293, 10.506716213178965,
          13.80089255205644, 17.539226193226895),
}


def test_bc_requirements_by_regime():
    left = bc_requirements(0.5)
    assert left.left_condition == "dirichlet_at_zero"
    right = bc_requirements(1.5)
    assert right.left_condition == "none_at_zero"
    assert right.right_condition == "dirichlet_at_one"


def test_bc_requirements_rejects_degenerate_exponents():
    with pytest.raises(DegeneracyError):
        bc_requirements(1.0)
    for bad in (0.0, -0.3, 2.0, 2.5):
        with pytest.raises(DomainError):
            bc_requirements(bad)


@pytest.mark.parametrize("beta", ["0.5", None, [0.5], math.inf])
@pytest.mark.parametrize("call", [
    bc_requirements,
    lambda beta: solve_eigen(beta, 4),
    lambda beta: bessel_eigen(beta, 4),
], ids=["bc_requirements", "solve_eigen", "bessel_eigen"])
def test_a_non_number_beta_is_a_domain_error(call, beta):
    # a string or None once failed with "'<' not supported" (TypeError)
    with pytest.raises(DomainError, match="beta must lie in"):
        call(beta)


def test_grading_exponent():
    assert grading_exponent(1.0e-6) == pytest.approx(1.0, rel=1e-5)
    assert grading_exponent(1.5) == pytest.approx(4.0)
    assert grading_exponent(0.5) == pytest.approx(4.0 / 3.0)


def test_eigenvalues_match_closed_form():
    for beta, ref in _LAMBDA_REF.items():
        sys = solve_eigen(beta, 3)
        for k in range(3):
            assert sys.lambdas[k] == pytest.approx(ref[k], rel=2e-4), (beta, k)


def test_lambdas_ascending_and_simple(eig):
    for beta in (0.5, 1.5):
        sys = eig(beta, 10)
        d = np.diff(sys.lambdas)
        assert np.all(d > 0.0)
        # gaps are O(lambda) here, nowhere near clustering
        assert np.min(d / sys.lambdas[:-1]) > 0.05


def test_orthonormality(eig):
    for beta in (0.4, 1.6):
        rep = orthogonality_report(eig(beta, 8))
        assert rep.max_offdiag_l2 <= 1e-8
        assert np.max(np.abs(np.diag(rep.gram_l2) - 1.0)) <= 1e-8


def test_weighted_gram_diagonal_is_lambda(eig):
    for beta in (0.4, 1.6):
        sys = eig(beta, 8)
        rep = orthogonality_report(sys)
        rel = np.abs(np.diag(rep.gram_weighted) - sys.lambdas) / sys.lambdas
        assert np.max(rel) <= 1e-5


def test_positive_definiteness_bound(eig):
    # lambda_1 >= 2 - beta, with the constant from the double integral
    for beta in (0.25, 0.75, 1.25, 1.75):
        sys = eig(beta, 2, 1024)
        assert sys.lambdas[0] >= 2.0 - beta


def test_double_integral_identity():
    # int_0^1 int_x^1 t^-beta dt dx = 1/(2-beta), quadrature vs closed form
    for beta in (0.3, 0.5, 1.3, 1.7):
        if beta < 1.0:
            inner = lambda x: (1.0 - x ** (1.0 - beta)) / (1.0 - beta)
        else:
            inner = lambda x: (x ** (1.0 - beta) - 1.0) / (beta - 1.0)
        val, _ = integrate.quad(inner, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(val - 1.0 / (2.0 - beta)) <= 1e-10


def test_beta_to_zero_limit_is_sine_basis():
    sys = solve_eigen(1e-3, 5)
    for k in range(1, 6):
        ref = (k * math.pi) ** 2
        assert abs(sys.lambdas[k - 1] - ref) / ref <= 1e-2


def test_cross_oracle_agreement(eig, beig):
    for beta in (0.5, 1.5):
        gal = eig(beta, 8)
        bes = beig(beta, 8)
        rel = np.abs(gal.lambdas - bes.lambdas) / bes.lambdas
        assert np.max(rel) <= 1e-4, (beta, rel)


def test_eigenfunctions_match_closed_form(eig, beig):
    xs = np.linspace(0.02, 0.98, 49)
    for beta in (0.5, 1.5):
        gal, bes = eig(beta, 4), beig(beta, 4)
        for k in (1, 2, 4):
            vg = gal.eigen_eval(k, xs)[0]
            vb = bes.eigen_eval(k, xs)[0]
            scale = np.max(np.abs(vb))
            assert np.max(np.abs(vg - vb)) <= 2e-4 * scale, (beta, k)


@pytest.mark.parametrize("beta", [0.5, 1.8])
def test_bessel_modes_vanish_at_one_and_are_orthogonal(beig, beta):
    # with each zero within one double, v_k(1) = 0 and the L2 Gram matrix
    # under the projection rule hold to roundoff up to K = 64
    sys = beig(beta, 64)
    assert np.max(np.abs(sys.basis_matrix(np.array([1.0])))) <= 1e-13
    assert orthogonality_report(sys).max_offdiag_l2 <= 5e-14


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.5, 1.8, 1.95])
def test_bessel_modes_solve_the_ode(beig, beta):
    # -(x^beta v')' = lambda v by central differences of the evaluator's
    # values on [0.1, 0.9]: bessel_eigen itself checks only v(1) = 0.
    # 1.0e-6 at most; an order nu moved by 1% + 0.01 leaves 8.6e-3 or more
    sys, h = beig(beta, 8), 1e-4
    x = np.linspace(0.1, 0.9, 81)
    V = sys.basis_matrix(x + h * np.array([-1.0, 0.0, 1.0])[:, None])
    vm, v, vp = V.transpose(1, 0, 2)  # (K, 81) each
    lhs = -((x + 0.5 * h) ** beta * (vp - v)
            - (x - 0.5 * h) ** beta * (v - vm)) / h ** 2
    rel = (np.max(np.abs(lhs - sys.lambdas[:, None] * v), axis=1)
           / (sys.lambdas * np.max(np.abs(v), axis=1)))
    assert np.max(rel) <= 1e-5, rel


@pytest.mark.parametrize("k", [1, 7, 16])
def test_bessel_eigen_refuses_a_candidate_off_its_zero(monkeypatch, k):
    # with lambda = (q jz)^2 the ODE holds for any jz: the v(1) check
    # finds the zero moved by 1e-3 and names its k
    zeros = spectral._bessel_j_zeros

    def moved(order, n):
        z = zeros(order, n)
        z[k - 1] += 1e-3
        return z

    monkeypatch.setattr(spectral, "_bessel_j_zeros", moved)
    with pytest.raises(ResolutionError, match=rf"k={k}\)"):
        bessel_eigen(0.5, 16)


def test_flux_limit_vanishes_only_for_beta_above_one(eig):
    weak = eig(1.5, 2)
    rep = flux_limit_check(weak.mode(1), 1.5)
    assert rep.vanishes and rep.converged
    classical = eig(0.5, 2)
    rep2 = flux_limit_check(classical.mode(1), 0.5)
    assert not rep2.vanishes
    # the nonzero limit agrees with the closed-form route
    rep3 = flux_limit_check(bessel_eigen(0.5, 2).mode(1), 0.5)
    assert rep2.limit == pytest.approx(rep3.limit, rel=1e-3)


def test_flux_limit_check_takes_pair_evaluators_only(eig):
    for v in (lambda x: x ** 0.5, lambda x: (x, x, x)):
        with pytest.raises(DomainError):
            flux_limit_check(v, 0.5)


def test_eigen_eval_validation(eig):
    sys = eig(0.5, 3)
    with pytest.raises(DomainError):
        sys.eigen_eval(0, 0.5)
    with pytest.raises(DomainError):
        sys.eigen_eval(4, 0.5)
    with pytest.raises(DomainError):
        sys.eigen_eval(1, 1.5)
    with pytest.raises(DomainError):
        sys.eigen_eval(1, -0.1)


def test_eigen_eval_dirichlet_values(eig):
    for beta in (0.5, 1.5):
        sys = eig(beta, 3)
        for k in (1, 2, 3):
            assert abs(sys.eigen_eval(k, 1.0)[0]) <= 1e-12
        if beta < 1.0:
            assert abs(sys.eigen_eval(1, 0.0)[0]) <= 1e-12
        else:
            # bounded free value at the degenerate endpoint
            assert abs(sys.eigen_eval(1, 0.0)[0]) > 0.1


def test_basis_matrix_shape(eig):
    sys = eig(0.5, 4)
    B = sys.basis_matrix(np.linspace(0.1, 0.9, 7))
    assert B.shape == (4, 7)
    assert np.allclose(B[0], sys.eigen_eval(1, np.linspace(0.1, 0.9, 7))[0])


@pytest.mark.parametrize("route", ["galerkin", "bessel"])
@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_basis_matrix_matches_stacked_eigen_eval(eig, beig, route, beta):
    gal = eig(beta, 6)
    sys = gal if route == "galerkin" else beig(beta, 6)
    rng = np.random.default_rng(5)
    # every 97th node of the Galerkin system's own mesh, in x = y^(1/e)
    e, ynodes = gal._payload[:2]
    x = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 200),
                        (ynodes ** (1.0 / e))[::97]))
    B = sys.basis_matrix(x)
    assert B.shape == (6, x.size)
    ref = np.vstack([sys.eigen_eval(k, x)[0] for k in range(1, 7)])
    np.testing.assert_allclose(B, ref, rtol=1e-14, atol=0.0)
    if route == "galerkin":
        # the P1 element is np.interp's linear interpolation in y = x^e
        e, ynodes, vecs, _ = sys._payload
        ref = np.vstack([np.interp(x ** e, ynodes, v) for v in vecs])
        np.testing.assert_allclose(B, ref, rtol=1e-14, atol=0.0)
    with pytest.raises(DomainError):
        sys.eigen_eval(1, np.array([0.5, np.nan]))


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.95, 1.5, 1.95])
@pytest.mark.parametrize("K", [1, 8, 16, 64])
def test_rule_basis_is_the_searched_basis_bit_for_bit(eig, beta, K):
    # cell j of a Galerkin mesh holds the rule's nodes 8j..8j+7, so the
    # broadcast evaluation must give what the search of the mesh gives;
    # beta 0.95 resolves K > 8 on the finest mesh only
    sys = eig(beta, K, 16384 if beta == 0.95 else 2048)
    X, _ = _gauss_rule(sys)
    ref = sys.basis_matrix(X)
    assert np.array_equal(_rule_basis(sys, slice(K)), ref)
    assert np.array_equal(_rule_basis(sys, slice(K - 1, K)), ref[K - 1:])


def test_rule_basis_of_the_closed_form_route_is_its_basis(beig):
    sys = beig(0.5, 4)
    X, _ = _gauss_rule(sys)
    assert np.array_equal(_rule_basis(sys, slice(4)), sys.basis_matrix(X))


@pytest.mark.parametrize("beta, K, mesh", [
    (0.2, 16, 2048), (0.5, 16, 2048), (0.8, 16, 2048), (1.2, 16, 2048),
    (1.5, 16, 2048), (1.95, 16, 2048), (0.95, 64, 16384)])
def test_modes_are_orthonormal_under_the_projection_rule(eig, beig, beta, K,
                                                          mesh):
    # the Galerkin mass is the hats' Gram matrix under the rule, so the
    # Galerkin modes are orthonormal under it to roundoff; the closed-form
    # modes are, to the rule's accuracy
    def worst(sys):
        X, W = _gauss_rule(sys)
        V = sys.basis_matrix(X)
        return np.max(np.abs((V * W) @ V.T - np.eye(K)))

    assert worst(eig(beta, K, mesh)) <= 1e-13
    assert worst(beig(beta, K)) <= 1e-12


#: functions a projection test projects: smooth, with the eigenfunctions'
#: endpoint behaviour, and with a kink in the middle of a cell
_PROJECTED = (lambda x: x * (1.0 - x),
              lambda x: np.sqrt(x) * np.cos(5.0 * x),
              lambda x: np.abs(x - 0.3) * np.exp(x))


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.5, 1.95])
@pytest.mark.parametrize("K", [1, 16, 64])
def test_the_projector_matches_the_tabulated_modes(eig, beta, K):
    # the hat-coefficient projector against the table of every mode at
    # every node of the rule, which it replaces
    sys = eig(beta, K)
    X, W = _gauss_rule(sys)
    table = sys.basis_matrix(X)
    proj = _Projector(sys, slice(K))
    for g in _PROJECTED:
        vals = g(X)
        ref = table @ (W * vals)
        c = proj.coeffs(vals)
        assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref_defect = math.sqrt(np.dot(W, (vals - ref @ table) ** 2))
        assert abs(proj.defect(vals, c) - ref_defect) <= 1e-12 * ref_defect
    # one mode alone, as fourier_coeff asks for it
    one = _Projector(sys, slice(K - 1, K)).coeffs(vals)
    assert one.shape == (1,)
    assert abs(one[0] - c[-1]) <= 1e-13 * np.max(np.abs(ref))


def test_the_closed_form_projector_keeps_its_table(beig):
    sys = beig(0.5, 4)
    X, W = _gauss_rule(sys)
    table = _rule_basis(sys, slice(4))
    proj = _Projector(sys, slice(4))
    vals = _PROJECTED[1](X)
    c = proj.coeffs(vals)
    assert np.array_equal(c, table @ (W * vals))
    res = vals - c @ table
    assert proj.defect(vals, c) == math.sqrt(float(np.dot(W, res * res)))


def _exact_mass(beta, ynodes, c):
    """(ll, lr, rr): int phi_a phi_b dx over cell c for its two hats, linear
    in y = x^e, as moments of dx = y^sigma dy / e at 60 digits."""
    with mpmath.workdps(60):
        e = 1 - mpmath.mpf(beta)
        s = 1 / e  # sigma + 1
        yl, yr = mpmath.mpf(ynodes[c]), mpmath.mpf(ynodes[c + 1])
        m0, m1, m2 = ((yr ** (s + k) - yl ** (s + k)) / (s + k)
                      for k in range(3))
        den = e * (yr - yl) ** 2
        return ((yr * yr * m0 - 2 * yr * m1 + m2) / den,
                ((yl + yr) * m1 - yl * yr * m0 - m2) / den,
                (m2 - 2 * yl * m1 + yl * yl * m0) / den)


@pytest.mark.parametrize("n", [2048, 16384])
@pytest.mark.parametrize("beta", [0.5, 0.95])
def test_mass_bands_match_the_exact_cell_integrals(beta, n):
    # the moments of y^sigma cancel to O(dy^3) from O(dy) terms, which cost
    # the closed-form mass 1.6e-5 (beta 0.5, 2,048 cells) to 0.13 (beta
    # 0.95, 16,384 cells) relative in double precision
    ynodes = _mesh(beta, n)
    T, _, W = _rule(beta, ynodes)
    _, (m, m_off) = _assemble_p1(beta, ynodes, T, W)
    cell = lambda c: _exact_mass(beta, ynodes, c) if 0 <= c < n else (0, 0, 0)
    for c in (0, n // 2, n - 1):
        pairs = ((m_off[c], cell(c)[1]),
                 (m[c], cell(c - 1)[2] + cell(c)[0]),
                 (m[c + 1], cell(c)[2] + cell(c + 1)[0]))
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-13 * abs(ref), (c, got, ref)


def test_solve_eigen_doubles_the_mesh_for_unresolved_modes():
    # on the 2,048-cell mesh lambda_64 is not resolved for beta 0.55-0.95;
    # with no mesh given solve_eigen doubles it (here to 4,096 cells)
    sys = solve_eigen(0.6, 64)
    assert sys.count == 64
    assert sys.lambdas.tolist() == solve_eigen(0.6, 64, 4096).lambdas.tolist()
    # a K the default mesh resolves keeps the default mesh's system
    assert solve_eigen(0.5, 8).lambdas.tolist() == \
        solve_eigen(0.5, 8, 2048).lambdas.tolist()
    # the library call refused while only the CLI doubled
    assert solve_eigen(0.95, 16).count == 16


def test_solve_eigen_doubles_only_for_an_unresolved_lambda_k(monkeypatch):
    real, meshes = spectral._galerkin, []

    def recorded(beta, K, n):
        meshes.append(n)
        return real(beta, K, n)

    def unresolved(beta, K, n):
        meshes.append(n)
        raise ResolutionError(f"lambda_{K} not resolved on this mesh; "
                              "increase the mesh parameter")

    # K > 256 fails the default mesh's 8 K cells guard: no doubling
    monkeypatch.setattr(spectral, "_galerkin", recorded)
    with pytest.raises(ResolutionError, match="2048 cells too coarse for K=300"):
        solve_eigen(0.5, 300)
    assert meshes == [2048]
    # an unresolved lambda_K doubles up to 16,384 cells, and past that the
    # advice names a setting every caller has
    monkeypatch.setattr(spectral, "_galerkin", unresolved)
    meshes.clear()
    with pytest.raises(ResolutionError) as exc:
        solve_eigen(0.5, 64)
    assert meshes == [2048, 4096, 8192, 16384]
    err = str(exc.value)
    assert "16384 cells; use fewer modes" in err and "mesh parameter" not in err
    # an explicit mesh is solved as given
    meshes.clear()
    with pytest.raises(ResolutionError, match="increase the mesh parameter"):
        solve_eigen(0.5, 64, 2048)
    assert meshes == [2048]


def test_resolution_guard_fires_on_coarse_mesh():
    with pytest.raises(ResolutionError):
        solve_eigen(0.5, 40, mesh=64)


def test_solve_eigen_validation():
    with pytest.raises(DegeneracyError):
        solve_eigen(1.0, 4)
    with pytest.raises(DomainError):
        solve_eigen(0.5, 0)


def test_sign_convention_derivative_negative_at_one(eig, beig):
    # normalization fixes v_k'(1) < 0 in both routes
    for beta in (0.5, 1.5):
        for k in (1, 2, 3):
            assert eig(beta, 3).eigen_eval(k, 1.0)[1] < 0.0
            assert beig(beta, 3).eigen_eval(k, 1.0)[1] < 0.0


def _band_product(diag, off, v):
    """Tridiagonal (diag, off) times each row of v."""
    y = diag * v
    y[:, :-1] += off * v[:, 1:]
    y[:, 1:] += off * v[:, :-1]
    return y


@pytest.mark.parametrize("beta", [0.3, 0.8, 1.2, 1.7, 1.95])
def test_galerkin_eigenpairs_have_small_componentwise_residual(eig, beta):
    # |S v - lambda M v| / (|S||v| + lambda |M||v|) on every unknown: the
    # graded mesh makes the first rows ill-conditioned for beta > 1, and a
    # solve that is not backward stable there shows it (4e-7 at beta = 1.7)
    sys = eig(beta, 16)
    e, ynodes, vecs, _ = sys._payload
    T, _, W = _rule(beta, ynodes)
    (s, s_off), (m, m_off) = _assemble_p1(beta, ynodes, T, W)
    lam = sys.lambdas[:, None]
    res = np.abs(_band_product(s, s_off, vecs)
                 - lam * _band_product(m, m_off, vecs))
    scale = (_band_product(np.abs(s), np.abs(s_off), np.abs(vecs))
             + lam * _band_product(np.abs(m), np.abs(m_off), np.abs(vecs)))
    rows = slice(1 if beta < 1.0 else 0, -1)  # the Dirichlet rows drop out
    assert np.max(res[:, rows] / scale[:, rows]) <= 1e-10


def test_solve_eigen_repeats_bit_for_bit_and_keeps_the_parent_eigenvalues():
    for beta, ref in _LAMBDA_ARPACK.items():
        one, two = solve_eigen(beta, 8), solve_eigen(beta, 8)
        assert np.array_equal(one.lambdas, two.lambdas)
        assert one._payload[0] == two._payload[0]
        for a, b in zip(one._payload[1:], two._payload[1:]):
            assert np.array_equal(a, b)
        np.testing.assert_allclose(one.lambdas, ref, rtol=1e-9, atol=0.0)


def test_lanczos_raises_rather_than_return_unconverged_pairs():
    zeros = np.zeros
    # exact on a pencil it exhausts: the Krylov space is the whole space
    lam, _ = _shift_invert_lanczos(np.full(3, 2.0), -np.ones(2), np.ones(3),
                                   zeros(2), 3)
    np.testing.assert_allclose(lam, [2.0 - math.sqrt(2.0), 2.0,
                                     2.0 + math.sqrt(2.0)], rtol=1e-14)
    with pytest.raises(SolverError, match="positive definite"):
        _shift_invert_lanczos(np.array([1.0, -1.0, 1.0]), zeros(2),
                              np.ones(3), zeros(2), 1)
    # the start vector spans an invariant subspace of dimension 1 < K
    with pytest.raises(SolverError, match="broke down"):
        _shift_invert_lanczos(np.ones(5), zeros(4), np.ones(5), zeros(4), 2)
    # 200 eigenvalues within 2e-8 of each other: no Ritz value separates
    n = 200
    with pytest.raises(SolverError, match="not converged"):
        _shift_invert_lanczos(1.0 + 1e-10 * np.arange(n), zeros(n - 1),
                              np.ones(n), zeros(n - 1), 1)


def _pencil(beta, n):
    """The bands (a, a_off, m, m_off) of the Galerkin pencil on n cells,
    Dirichlet rows dropped, as _galerkin hands them to the Lanczos."""
    ynodes = _mesh(beta, n)
    T, _, W = _rule(beta, ynodes)
    (s, s_off), (m, m_off) = _assemble_p1(beta, ynodes, T, W)
    lo = 1 if beta < 1.0 else 0
    return s[lo:n], s_off[lo:n - 1], m[lo:n], m_off[lo:n - 1]


def _bisected_eigenvalues(a, a_off, m, m_off, K):
    """The lowest K eigenvalues of the tridiagonal pencil by bisection on
    the inertia of A - s M (Sylvester), its LDL^T pivots taken in long
    double: a reference good to about 1e-16 relative, where a dense
    solver is not (below)."""
    a, a_off, m, m_off = (np.asarray(v, dtype=np.longdouble)
                          for v in (a, a_off, m, m_off))
    wanted = np.arange(1, K + 1)

    def below(s):  # the number of eigenvalues below each shift
        d = a[0] - s * m[0]
        count = (d < 0.0).astype(int)
        for i in range(1, a.size):
            off = a_off[i - 1] - s * m_off[i - 1]
            d = a[i] - s * m[i] - off * off / d
            count += d < 0.0
        return count

    lo, hi = np.zeros(K, dtype=np.longdouble), np.ones(K, dtype=np.longdouble)
    while np.any(below(hi) < wanted):
        hi *= 2.0
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        up = below(mid) >= wanted
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("beta", [0.3, 0.95, 1.5, 1.95])
def test_lanczos_eigenvalues_match_an_exact_reference_on_512_cells(beta):
    # a dense scipy.linalg.eigh of the pencil is itself up to 6.7e-13 (of
    # (M, A)) or 3.4e-11 (of (A, M)) off this reference on 512 cells, so it
    # cannot referee the Lanczos; the Lanczos is within 1.8e-13 at every
    # K, the conditioning of the factored stiffness
    bands = _pencil(beta, 512)
    ref = _bisected_eigenvalues(*bands, 32)
    lam, _ = _shift_invert_lanczos(*bands, 32)
    assert np.max(np.abs((lam - ref) / ref)) <= 3e-13


@pytest.mark.parametrize("beta, K, mesh", [
    (0.95, 64, 16384), (0.3, 64, 2048), (1.7, 128, 2048), (1.95, 32, 2048)])
def test_lanczos_ritz_vectors_are_m_orthonormal(beta, K, mesh):
    # one classical Gram-Schmidt pass per step after the three-term step
    # keeps the Krylov basis M-orthonormal to roundoff
    a, a_off, m, m_off = _pencil(beta, mesh)
    _, V = _shift_invert_lanczos(a, a_off, m, m_off, K)
    gram = V @ _band_product(m, m_off, V).T
    assert np.max(np.abs(gram - np.eye(K))) <= 1e-13
