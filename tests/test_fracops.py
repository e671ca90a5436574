"""Time-fractional operator layer: warp, L1 Caputo rule, hyper-Bessel
derivative."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from degenfrac import fracops
from degenfrac.errors import DomainError
from degenfrac.fracops import (
    SampledFunction,
    TimeWarp,
    _Pchip,
    _l1_cells,
    _l1_moments,
    _l1_rows,
    graded_grid,
    hb_caputo,
    warp_forward,
    warp_inverse,
)
from degenfrac.oraclefd import _BLOCK
from degenfrac.special import ml_eval_many


def test_warp_basics():
    w = TimeWarp(0.3, 0.5)
    assert w.p == pytest.approx(0.7)
    assert warp_forward(w, 0.5) == 0.0
    s = warp_forward(w, 1.7)
    assert s == pytest.approx(1.7 ** 0.7 - 0.5 ** 0.7, rel=1e-15)
    assert warp_inverse(w, s) == pytest.approx(1.7, rel=1e-14)


@given(theta=st.floats(min_value=-2.0, max_value=0.95),
       a=st.floats(min_value=0.0, max_value=3.0),
       dt=st.floats(min_value=1e-6, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_warp_roundtrip_and_monotonicity(theta, a, dt):
    w = TimeWarp(theta, a)
    t = a + dt
    s = warp_forward(w, t)
    assert s > 0.0
    assert warp_inverse(w, s) == pytest.approx(t, rel=1e-9, abs=1e-9)


def test_warp_rejects_bad_parameters():
    with pytest.raises(DomainError):
        TimeWarp(1.0, 0.0)
    with pytest.raises(DomainError):
        TimeWarp(1.5, 0.0)
    with pytest.raises(DomainError):
        TimeWarp(0.5, -1.0)
    with pytest.raises(DomainError):
        warp_forward(TimeWarp(0.5, 1.0), 0.5)
    with pytest.raises(DomainError):
        warp_inverse(TimeWarp(0.5, 1.0), -0.1)
    with pytest.raises(DomainError):
        warp_inverse(TimeWarp(0.5, 1.0), np.array([0.2, -0.1]))


def test_warp_maps_take_arrays():
    # numpy's vector pow may differ from the scalar C pow in the last bit
    w = TimeWarp(0.3, 0.4)
    t = np.linspace(0.4, 2.5, 301)
    s = warp_forward(w, t)
    assert s[0] == 0.0
    ref = np.array([warp_forward(w, float(v)) for v in t])
    assert np.max(np.abs(s - ref)) <= 4.5e-16 * np.max(np.abs(ref))
    for theta, a in ((0.3, 0.2), (0.3, 0.4), (-0.5, 1.3), (0.7, 0.37)):
        assert np.all(warp_forward(TimeWarp(theta, a), np.full(3, a)) == 0.0)
    back = warp_inverse(w, s)
    ref = np.array([warp_inverse(w, float(v)) for v in s])
    assert np.max(np.abs(back - ref)) <= 4.5e-16 * 2.5
    assert np.max(np.abs(back - t)) <= 1e-15 * 2.5


def test_graded_grid():
    g = graded_grid(2.0, 8, 3.0)
    assert g[0] == 0.0 and g[-1] == pytest.approx(2.0)
    assert np.all(np.diff(g) > 0.0)
    # clustering: first cell much smaller than last
    assert g[1] / (g[-1] - g[-2]) < 1e-2
    with pytest.raises(DomainError):
        graded_grid(-1.0, 8, 2.0)


def test_sampled_function_table_and_domain():
    nodes = np.linspace(0.0, 1.0, 30)
    sf = SampledFunction.from_table(nodes, np.sin(nodes))
    assert sf(0.5) == pytest.approx(math.sin(0.5), abs=2e-6)
    with pytest.raises(DomainError):
        sf(1.5)
    with pytest.raises(DomainError):
        SampledFunction.from_table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    # a (K, n) table holds K curves, each the same as its own 1-d table
    rows = np.stack([np.sin(nodes), np.cos(3.0 * nodes), nodes ** 2])
    many = SampledFunction.from_table(nodes, rows)
    tq = np.array([[0.0, 0.21], [0.5, 1.0]])
    assert many(tq).shape == (3, 2, 2) and many(0.5).shape == (3,)
    for k in range(3):
        one = SampledFunction.from_table(nodes, rows[k])
        assert np.array_equal(many(tq)[k], one(tq))
    with pytest.raises(DomainError):
        many(np.array([0.5, 1.5]))
    for bad in (rows[:, :-1], rows[None], np.where(rows > 0.9, np.nan, rows)):
        with pytest.raises(DomainError):
            SampledFunction.from_table(nodes, bad)


def _pchip_cases():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0.0, 2.0, 40))
    steps = np.repeat([0.0, 1.0, 1.0, 3.0, -2.0], 8).astype(float)
    return {
        "2-d random": (x, rng.normal(size=(5, 40))),
        "1-d monotone": (x, np.cumsum(rng.uniform(0.0, 1.0, 40))),
        "flat runs and steps": (x, np.stack([steps, np.zeros(40)])),
        "sign-changing": (x, np.stack([np.sin(5.0 * x), x - 1.0])),
        "two nodes": (x[[3, 17]], rng.normal(size=(3, 2))),
        "three nodes": (x[[3, 17, 30]], rng.normal(size=(2, 3))),
        "graded nodes": (2.0 * np.linspace(0.0, 1.0, 65) ** 5,
                         np.stack([np.cos(np.linspace(0.0, 4.0, 65)),
                                   np.linspace(0.0, 1.0, 65) ** 0.3])),
    }


@pytest.mark.parametrize("case", sorted(_pchip_cases()))
def test_pchip_matches_scipy_reference(case):
    x, y = _pchip_cases()[case]
    # nodes, cell midpoints, and extrapolation past both ends
    xp = np.concatenate((x, 0.5 * (x[1:] + x[:-1]),
                         x[0] - np.array([0.5, 1e-3]),
                         x[-1] + np.array([1e-3, 0.5])))
    got = _Pchip(x, y)(xp)
    assert got.shape == y.shape[:-1] + xp.shape
    for row, ref_y in zip(got.reshape(-1, xp.size), y.reshape(-1, x.size)):
        ref = PchipInterpolator(x, ref_y, extrapolate=True)(xp)
        np.testing.assert_allclose(row, ref, rtol=1e-14, atol=0.0)
    assert np.ndim(_Pchip(x, y)(float(x[1]))) == y.ndim - 1


def test_pchip_on_tiny_secants_warns_nothing():
    # secants near 1e-310 overflow the harmonic mean's reciprocals; the
    # slope is still SciPy's, and no numpy warning escapes.  SciPy warns
    # on the same data, so its values are taken outside the filter.
    x = np.linspace(0.0, 1.0, 6)
    y = np.array([0.0, 1.0, 3.0, 2.0, 5.0, 6.0]) * 1e-310
    xp = np.concatenate((x, 0.5 * (x[1:] + x[:-1])))
    with np.errstate(all="ignore"):
        ref = PchipInterpolator(x, y)(xp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _Pchip(x, y)(xp)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_sampled_function_table_matches_scipy_reference():
    nodes = np.linspace(0.0, 1.0, 30) ** 2
    vals = np.sin(7.0 * nodes)
    sf = SampledFunction.from_table(nodes, vals)
    tq = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(sf(tq), PchipInterpolator(nodes, vals)(tq),
                               rtol=1e-14, atol=0.0)
    assert isinstance(sf(0.3), float)


def _l1_apply(alpha, s, gv):
    """The L1 derivative at every node of s, one block of _l1_rows at a
    time, as the FD march applies them; 0 at the first node."""
    dg = np.diff(gv)
    out = np.zeros(s.size)
    for n0 in range(1, s.size, _BLOCK):
        n1 = min(n0 + _BLOCK, s.size)
        out[n0:n1] = _l1_rows(alpha, s, n0, n1) @ dg[:n1 - 1]
    return out


def test_caputo_l1_power_function():
    # Caputo^alpha of s: s^(1-alpha)/Gamma(2-alpha); frozen alpha=0.5 value
    # at s=1 is 1/Gamma(1.5) = 1.1283791670955126 (analytic)
    s = graded_grid(1.0, 2048, 4.0)
    out = _l1_apply(0.5, s, s)
    assert out[-1] == pytest.approx(1.1283791670955126, rel=1e-6)
    ref = s[1:] ** 0.5 / math.gamma(1.5)
    assert np.max(np.abs(out[1:] - ref) / ref) <= 5e-4


def test_caputo_l1_quadratic():
    # Caputo^alpha of s^2: 2 s^(2-alpha)/Gamma(3-alpha)
    s = graded_grid(2.0, 4096, 6.0)
    al = 0.3
    out = _l1_apply(al, s, s * s)
    ref = 2.0 / math.gamma(3.0 - al) * s[1:] ** (2.0 - al)
    assert np.max(np.abs(out[1:] - ref) / np.max(ref)) <= 1e-5


def test_caputo_l1_matches_per_node_sums():
    # two full blocks of _l1_rows and a partial one, against the L1 sum
    # written out node by node
    al = 0.4
    s = graded_grid(1.0, 2 * _BLOCK + 5, 2.5)
    gv = s ** 1.3 + np.sin(s)
    ref = [0.0]
    for i in range(1, s.size):
        ref.append(sum(((s[i] - s[j]) ** (1 - al) - (s[i] - s[j + 1]) ** (1 - al))
                       * (gv[j + 1] - gv[j]) / (s[j + 1] - s[j])
                       for j in range(i)) / math.gamma(2 - al))
    np.testing.assert_allclose(_l1_apply(al, s, gv), ref, rtol=1e-12, atol=0.0)


def test_caputo_l1_constant_is_zero():
    # a constant has zero increments, and its derivative is 0 exactly
    s = np.linspace(0.0, 1.0, 100)
    out = _l1_apply(0.7, s, np.full(s.size, 3.0))
    assert np.max(np.abs(out)) == 0.0


@pytest.mark.parametrize("n0,n1", [(1, 9), (5, 12)])
def test_l1_rows_at_alpha_one_are_backward_differences(n0, n1):
    # the limit of the L1 rule at alpha = 1: row n weighs only the last
    # increment, by 1/ds_{n-1}, bit for bit
    s = graded_grid(1.3, 16, 2.0)
    ref = np.zeros((n1 - n0, n1 - 1))
    for r in range(n1 - n0):
        ref[r, n0 - 1 + r] = 1.0 / (s[n0 + r] - s[n0 - 1 + r])
    assert np.array_equal(_l1_rows(1.0, s, n0, n1), ref)


@pytest.mark.parametrize("alpha", [0.02, 0.05, 0.6, 1.0])
def test_l1_last_rows_are_the_last_l1_rows_bit_for_bit(alpha):
    # hb_caputo's grids S_j (i/n)^(2/alpha), stacked as _l1_moments stacks
    # them (below alpha ~ 0.0206 their first nodes underflow onto 0): one
    # call on the stack gives each grid's own rows, and each last row is
    # the row of its grid with the repeated nodes dropped, as hb_caputo
    # drops them, with weight 0 on the zero-length cells
    S = np.array([3.4e-14, 0.37, 1.3])
    s = S[:, None] * graded_grid(1.0, 2048, 2.0 / alpha)
    m = s.shape[-1]
    assert np.any(np.diff(s) == 0.0) == (alpha < 0.0206)
    for n0, n1 in ((m - 1, m), (m - _BLOCK - 3, m - 3)):
        w = _l1_rows(alpha, s, n0, n1)
        assert w.shape == (S.size, n1 - n0, n1 - 1)
        assert np.all(np.isfinite(w))
        for wj, sj in zip(w, s):
            assert np.array_equal(wj, _l1_rows(alpha, sj, n0, n1))
    for wj, sj in zip(_l1_rows(alpha, s, m - 1, m)[:, 0], s):
        step = np.diff(sj) > 0.0
        kept = sj[np.concatenate(([True], step))]
        assert np.array_equal(wj[step],
                              _l1_rows(alpha, kept, kept.size - 1,
                                       kept.size)[0])
        assert np.all(wj[~step] == 0.0)


@pytest.mark.parametrize("alpha", [0.02, 0.05, 0.6, 1.0])
def test_l1_block_rows_are_the_last_rows_of_their_prefix_grids(alpha):
    # the FD march's blocks, 32 full ones and a partial one: row n is the
    # last row of the grid s[:n + 1] bit for bit, with zeros beyond.  At
    # alpha = 0.02 the first nodes underflow onto 0
    s = graded_grid(3.4e-14, 32 * _BLOCK + 5, 2.0 / alpha)
    assert np.any(np.diff(s) == 0.0) == (alpha < 0.0206)
    for n0 in range(1, s.size, _BLOCK):
        n1 = min(n0 + _BLOCK, s.size)
        G = _l1_rows(alpha, s, n0, n1)
        for row, n in zip(G, range(n0, n1)):
            assert np.array_equal(row[:n],
                                  _l1_rows(alpha, s[:n + 1], n, n + 1)[0])
            assert not row[n:].any()


def test_hb_caputo_monomial_in_s():
    """D^alpha (t^p - a^p)^m = p^alpha Gamma(m+1)/Gamma(m+1-alpha)
    (t^p-a^p)^(m-alpha)."""
    for theta, a in ((0.3, 0.0), (0.3, 0.5), (-0.5, 1.0)):
        w = TimeWarp(theta, a)
        for al in (0.4, 0.8):
            for t in (a + 0.3, a + 1.2):
                m = 2.0
                s = warp_forward(w, t)
                ref = (w.p ** al * math.gamma(m + 1.0)
                       / math.gamma(m + 1.0 - al) * s ** (m - al))
                got = hb_caputo(lambda tt: warp_forward(w, tt) ** m
                                if np.isscalar(tt)
                                else (tt ** w.p - a ** w.p) ** m,
                                al, w, t)
                # L1 is O(n^-(2-alpha)) at best; 2048 nodes leave ~1e-4
                assert got == pytest.approx(ref, rel=5e-4), (theta, a, al, t)


def test_hb_caputo_warped_input_equivalent():
    w = TimeWarp(0.4, 0.7)
    t = 1.9
    direct = hb_caputo(lambda tt: np.sin(tt ** w.p - 0.7 ** w.p), 0.6, w, t)
    warped = hb_caputo(lambda s: np.sin(s), 0.6, w, t, warped=True)
    assert warped == pytest.approx(direct, rel=1e-7)


def test_hb_caputo_alpha_one_is_first_order():
    # at alpha = 1 the operator is t^theta d/dt, i.e. p d/ds in warped time
    w = TimeWarp(0.25, 0.0)
    t = 1.3
    got = hb_caputo(lambda s: s ** 3, 1.0, w, t, warped=True)
    S = warp_forward(w, t)
    assert got == pytest.approx(w.p * 3.0 * S * S, rel=1e-3)


@pytest.mark.parametrize("alpha", [0.02, 0.01, 1e-3])
def test_hb_caputo_survives_nodes_that_underflow_onto_zero(alpha):
    # S (i/2048)^(2/alpha) underflows onto 0 below alpha ~ 0.0206 (49
    # repeated nodes at 0.01), and a zero cell once made the result NaN.
    # L1 is exact for data linear in s: p^alpha S^(1-alpha)/Gamma(2-alpha)
    w = TimeWarp(0.3)
    t = 0.5
    S = warp_forward(w, t)
    ref = w.p ** alpha * S ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert hb_caputo(lambda s: s, alpha, w, t, warped=True) == pytest.approx(
        ref, rel=1e-12)
    assert hb_caputo(lambda tt: tt ** w.p, alpha, w, t) == pytest.approx(
        ref, rel=1e-12)
    assert math.isfinite(hb_caputo(np.sin, alpha, w, t))


def test_hb_caputo_relaxation_spot_check():
    """The scaled ML kernel solves the eigen-relaxation equation:
    D^alpha E_{al,1}(lam* s^al) = lam* p^al E_{al,1}(lam* s^al)."""
    al, lam = 0.6, 3.0
    w = TimeWarp(0.2, 0.5)
    lam_star = -lam / w.p ** al
    fn = lambda s: ml_eval_many(al, 1.0, lam_star * np.asarray(s) ** al)
    for t in (0.9, 1.6):
        s = warp_forward(w, t)
        lhs = hb_caputo(fn, al, w, t, warped=True)
        rhs = -lam * float(ml_eval_many(al, 1.0, np.array([lam_star * s ** al]))[0])
        assert lhs == pytest.approx(rhs, rel=2e-5)


@pytest.mark.parametrize("alpha", [0.4, 1.0])
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_hb_caputo_leading_axes_match_one_curve_calls(alpha, a):
    # f with values of shape (3, nodes): one grid and one L1 row serve all
    w = TimeWarp(0.3, a)
    curves = (lambda s: np.sin(3.0 * s), lambda s: s ** 1.5,
              lambda s: np.exp(-2.0 * s))
    for warped in (True, False):
        for t in (a + 0.2, a + 1.3):
            got = hb_caputo(lambda v: np.stack([c(v) for c in curves]),
                            alpha, w, t, n=512, warped=warped)
            ref = np.array([hb_caputo(c, alpha, w, t, n=512, warped=warped)
                            for c in curves])
            assert got.shape == (3,)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_hb_caputo_validation():
    w = TimeWarp(0.3, 0.5)
    with pytest.raises(DomainError):
        hb_caputo(lambda s: s, 0.5, w, 0.4)
    with pytest.raises(DomainError):
        hb_caputo(lambda s: s, 1.2, w, 1.0)


def test_l1_moments_are_cached_read_only_and_change_no_bit():
    # the moments depend on the table's nodes, alpha, the sample times and
    # n, not on the curves: new curves on the same nodes hit the one key,
    # and a cleared cache gives the same sums bit for bit
    nodes = 2.0 * np.linspace(0.0, 1.0, 65) ** 3
    S = np.array([0.3, 1.1, 2.0])
    rng = np.random.default_rng(5)
    first, second = (_Pchip(nodes, rng.standard_normal((3, nodes.size)))
                     for _ in range(2))
    fracops._l1_moments.cache_clear()
    _l1_cells(first, 0.6, S, 256)
    warm = _l1_cells(second, 0.6, S, 256)
    info = fracops._l1_moments.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, 1)
    moments = _l1_moments(nodes.tobytes(), 0.6, S.tobytes(), 256)
    assert all(L.shape == (3, 64) and not L.flags.writeable for L in moments)
    fracops._l1_moments.cache_clear()
    assert np.array_equal(warm, _l1_cells(second, 0.6, S, 256))
    # a new sample set, alpha or n replaces the one key
    for args in ((0.6, S[:2], 256), (0.7, S, 256), (0.6, S, 128)):
        misses = fracops._l1_moments.cache_info().misses
        _l1_cells(second, *args)
        info = fracops._l1_moments.cache_info()
        assert (info.misses, info.currsize) == (misses + 1, 1)
