"""Mittag-Leffler / gamma / Bessel layer."""

import math

import numpy as np
import pytest
from scipy import special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from degenfrac import special
from degenfrac.errors import DomainError, ResolutionError
from degenfrac.special import (
    _bands,
    _bessel_j_zeros,
    _ml,
    _ml_finish,
    _ml_node_sums,
    _ml_table,
    ml_bound_fit,
    ml_eval,
    ml_eval_many,
)

# mpmath series reference at 40 to 150 digits (independent oracle, frozen):
#   nsum(z**k / gamma(alpha*k + beta), k = 0..inf)
_ML_REFERENCE = [
    (0.5, 1.0, -2.0, 0.25539567631050574),
    (0.3, 0.7, -5.0, 0.084978838765212804),
    (0.7, 2.0, -25.0, 0.043489794580437572),
    (1.2, 1.0, -10.0, -0.026398347125869203),
    (0.5, 0.5, -0.75, 0.18398634582789768),
    (2.5, 1.0, -30.0, -2.2413251918675952),
    (0.6, 0.6, -12.5, 0.0018209982499286042),
    (0.9, 1.8, -40.0, 0.023392855743241674),
    # alpha > 1: order halving onto complex arguments; at alpha = 3 two of
    # the four roots sit on the sector edge |arg w| = pi alpha / 4
    (1.05, 1.0, -30.0, -0.0017447785281700867),
    (1.2, 2.2, -25.0, 0.04030197460533338),
    (1.5, 2.5, -40.0, 0.025248274136967334),
    (1.7, 2.7, -60.0, 0.017007328891747064),
    (1.9, 1.0, -100.0, 0.10336021818253253),
    (2.5, 1.5, -300.0, -3.888013274816856),
    (3.0, 1.0, -2000.0, -30.570354811159714),
    (3.0, 2.0, -500.0, 3.9882503240422436),
]


def test_ml_matches_high_precision_reference():
    for al, be, z, ref in _ML_REFERENCE:
        got = ml_eval(al, be, z)
        assert abs(got - ref) <= 5e-13 * (1.0 + abs(ref)), (al, be, z, got)


# E_{alpha,beta}(-x) for the kernels the solver uses, beta in
# (1, a+1, a+2, 2a+1, 2a+2), one row per x in _RAY_X.  Frozen from mpmath,
# independent of both evaluators: the series where x**(1/alpha) <= 200,
# else the algebraic asymptotic expansion where it converges to 1e-32,
# else the branch-cut integral at 35+ digits with the beta recurrence.
_RAY_X = (0.5, 3.0, 40.0, 1e3, 1e6)
_RAY_REFERENCE = {
    0.05: (
        (0.6603743585891841, 0.6792512828216317, 0.6571816268377045,
         0.6959311649000894, 0.6422402992230223),
        (0.2444346356456476, 0.2518551214514508, 0.24869681692476445,
         0.2584539146067419, 0.24320165317481707),
        (0.02366650135681331, 0.024408337466079667, 0.02437801051157613,
         0.02507021319513992, 0.023848094148440985),
        (0.0009685709451130972, 0.000999031429054887, 0.0009989805062494766,
         0.0010262178338426215, 0.000977302795942966),
        (9.695048900247649e-07, 9.9999903049511e-07, 9.999989794685917e-07,
         1.0272158652726459e-06, 9.783007764502362e-07),
    ),
    0.1: (
        (0.654324460288002, 0.6913510794239962, 0.647503210290617,
         0.7195718533755633, 0.6161517723492711),
        (0.23855934978253857, 0.2538135500724872, 0.2474288547512062,
         0.2657744853464302, 0.23605008057134877),
        (0.022869412718031258, 0.02442826468204922, 0.02436651053903196,
         0.025667718535743213, 0.023280314648155512),
        (0.0009349205536058907, 0.000999065079446394, 0.000998961318437497,
         0.0010501379410323313, 0.000954580135146815),
        (9.35777861976624e-07, 9.999990642221381e-07, 9.999989602469393e-07,
         1.0511360061127136e-06, 9.555780964662922e-07),
    ),
    0.3: (
        (0.6326490059435991, 0.734701988112802, 0.6064720448054021,
         0.7590810408689997, 0.5012751543081218),
        (0.21180263319643577, 0.2627324556011881, 0.2426809007321836,
         0.28383668431537123, 0.20480957374242645),
        (0.018979521266478696, 0.024525511968338035, 0.024329365843093736,
         0.027242924914474095, 0.02081950640290923),
        (0.0007699324649525777, 0.0009992300675350475, 0.0009989005786046957,
         0.001113243278479767, 0.0008561107213808582),
        (7.703827330424719e-07, 9.99999229617267e-07, 9.999988994537215e-07,
         1.1142415085480723e-06, 8.571086219605635e-07),
    ),
    0.5: (
        (0.6156903441929259, 0.7686193116141482, 0.5609605780745427,
         0.7195197109627286, 0.3825843999782647),
        (0.17900115118138996, 0.2736662829395367, 0.23836523509378046,
         0.28490429471865863, 0.17129584765663153),
        (0.014100335983377814, 0.024647491600415555, 0.024310167702815563,
         0.027593291887377424, 0.018198565259021488),
        (0.0005641893014533876, 0.0009994358106985466, 0.0009988726202687151,
         0.001127379731284814, 0.0007512539054434064),
        (5.641895835474742e-07, 9.999994358104165e-07, 9.99998871621833e-07,
         1.1283781670960768e-06, 7.522517780648034e-07),
    ),
    0.7: (
        (0.6051475920595643, 0.7897048158808715, 0.5103851885021468,
         0.6216851792855885, 0.27399127655296013),
        (0.13789710966502708, 0.2873676301116576, 0.23430901343084481,
         0.271059925137336, 0.13769060444926068),
        (0.008526170230910745, 0.02478684574422723, 0.024314125443473382,
         0.026894013994485964, 0.015576667533378838),
        (0.0003345414571740996, 0.000999665458542826, 0.0009988864290898282,
         0.0010995477400651229, 0.0006463819403495371),
        (3.342730211662825e-07, 9.999996657269788e-07, 9.99998885758163e-07,
         1.100546405524e-06, 6.473798267797412e-07),
    ),
    0.9: (
        (0.603405498695861, 0.7931890026082781, 0.4550923834045188,
         0.49313026347871675, 0.18429326934636922),
        (0.08388835403377326, 0.3053705486554089, 0.23014110160291382,
         0.24479452856407585, 0.10569930549159655),
        (0.0027434496977920995, 0.024931413757555195, 0.024346538792797807,
         0.025370568014752033, 0.013072311982122642),
        (0.00010528835943209589, 0.0009998947116405677, 0.0009989490810531972,
         0.001038754239635996, 0.0005462400689966503),
        (1.0511387487148291e-07, 9.99999894886125e-07, 9.999989488632119e-07,
         1.0397531343477416e-06, 5.472380180787546e-07),
    ),
    0.99: (
        (0.6060899526314165, 0.7878200947371671, 0.4290474752022848,
         0.4327684958106434, 0.15115564521602196),
        (0.053451867506199624, 0.3155160441646001, 0.22800971539258483,
         0.22956276615929622, 0.092205194139237),
        (0.000264827229357445, 0.024993379319266065, 0.02437176183157934,
         0.024480274083080567, 0.012006338399467914),
        (1.0076944920004438e-05, 0.00099998992305508, 0.0009989943137267965,
         0.0010032043527194337, 0.0005036263034965691),
        (1.0057085106182536e-08, 9.99999989942915e-07, 9.999989942934915e-07,
         1.0042033426424987e-06, 5.046242978113015e-07),
    ),
}


def _kernel_betas(al):
    return (1.0, al + 1.0, al + 2.0, 2.0 * al + 1.0, 2.0 * al + 2.0)


def test_ml_ray_matches_wide_reference():
    xs = np.array(_RAY_X)
    for al, rows in _RAY_REFERENCE.items():
        for be, ref in zip(_kernel_betas(al), np.array(rows).T):
            many = ml_eval_many(al, be, -xs)
            scalar = np.array([ml_eval(al, be, -x) for x in xs])
            for got in (many, scalar):
                err = np.abs(got - ref)
                assert np.all(err <= 5e-13 * (1.0 + np.abs(ref))), (al, be, got)
                assert np.all(err <= 1e-10 * np.abs(ref)), (al, be, got)


def test_ml_at_zero_is_reciprocal_gamma():
    for al in (0.3, 0.7, 1.0, 1.6, 2.0):
        for be in (0.5, 1.0, 2.0, 3.5):
            assert ml_eval(al, be, 0.0) == pytest.approx(1.0 / math.gamma(be),
                                                         rel=1e-15)


def test_ml_exponential_reduction():
    # E_{1,1}(z) = exp(z)
    for z in np.linspace(-10.0, 10.0, 41):
        assert ml_eval(1.0, 1.0, float(z)) == pytest.approx(math.exp(z),
                                                            rel=1e-13)


def test_ml_cosine_reduction():
    # E_{2,1}(-x^2) = cos(x)
    for x in np.linspace(0.0, 10.0, 41):
        assert abs(ml_eval(2.0, 1.0, -float(x) ** 2) - math.cos(x)) <= 1e-13


def test_ml_beta2_reduction():
    # E_{1,2}(z) = (e^z - 1)/z
    for z in (-8.0, -0.5, 0.3, 4.0):
        assert ml_eval(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z,
                                                     rel=1e-12)


@given(al=st.sampled_from([0.3, 0.45, 0.6, 0.8, 0.95, 1.0, 1.2, 1.7, 2.0]),
       be=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
       z=st.floats(min_value=-60.0, max_value=4.0))
@settings(max_examples=120, deadline=None)
def test_ml_recurrence_property(al, be, z):
    """E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)."""
    e1 = ml_eval(al, be, z)
    e2 = ml_eval(al, al + be, z)
    defect = abs(e1 - 1.0 / math.gamma(be) - z * e2)
    assert defect <= 1e-11 * (1.0 + abs(e1))


def test_ml_negative_ray_decay():
    # completely monotone for 0 < alpha < 1: positive and decreasing
    xs = np.linspace(0.0, 80.0, 200)
    vals = np.array([ml_eval(0.6, 1.0, -float(x)) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_ml_many_matches_scalar(rng):
    for al, be in ((0.3, 1.0), (0.55, 0.55), (0.8, 1.6), (1.0, 1.0),
                   (1.0, 2.0), (1.0, 3.0), (1.3, 1.0)):
        z = -np.sort(rng.uniform(0.0, 45.0, size=60))
        fast = ml_eval_many(al, be, z)
        slow = np.array([ml_eval(al, be, float(v)) for v in z])
        assert np.max(np.abs(fast - slow) / (1.0 + np.abs(slow))) <= 5e-12


# E_{1,3}(z) = (e^z - 1 - z)/z^2 from mpmath at 50 digits (frozen)
_E13_REFERENCE = [
    (0.0, 0.5),
    (-1e-12, 0.49999999999983336),
    (-3e-07, 0.49999995000000375),
    (-0.0005, 0.49991667708229176),
    (-0.0999, 0.48375766177599716),
    (-0.1, 0.4837418035959573),
    (-0.5, 0.4261226388505337),
    (-1.0, 0.36787944117144233),
    (-3.7, 0.1990302064624061),
    (-17.5, 0.05387755110239997),
    (-100.0, 0.0099),
    (-640.0, 0.00156005859375),
    (-1000.0, 0.000999),
]


def test_ml_many_alpha_one_beta_three_closed_form():
    z, ref = np.array(_E13_REFERENCE).T
    got = ml_eval_many(1.0, 3.0, z)
    assert np.all(np.abs(got - ref) <= 5e-13 * (1.0 + np.abs(ref))), got


# E_{1,n}(z) for n = 1..4 from mpmath at 60 digits (frozen): the series
# sum_k z^k/(k+n-1)! for |z| < 50, else (e^z - sum_{k<n-1} z^k/k!)/z^(n-1)
_E1N_REFERENCE = [
    (0.0, 1.0, 1.0, 0.5, 0.16666666666666666),
    (-1e-12, 0.999999999999, 0.9999999999995, 0.49999999999983336, 0.166666666666625),
    (-3e-07, 0.999999700000045, 0.999999850000015, 0.49999995000000375,
     0.16666665416666743),
    (-0.0005, 0.9995001249791693, 0.9997500416614589, 0.49991667708229176,
     0.16664583541649305),
    (-0.0999, 0.9049279063021011, 0.9516726095885779, 0.48375766177599716,
     0.16258596820823676),
    (-0.5, 0.6065306597126334, 0.7869386805747332, 0.4261226388505337,
     0.1477547222989326),
    (-0.999, 0.3682475046136629, 0.6323848802666037, 0.36798310283623253,
     0.13214904620997742),
    (-1.0, 0.36787944117144233, 0.6321205588285577, 0.36787944117144233,
     0.13212055882855767),
    (-1.001, 0.36751174560869354, 0.6318563979933132, 0.36777582618050636,
     0.13209208173775588),
    (-3.7, 0.02472352647033939, 0.2635882360890975, 0.1990302064624061,
     0.08134318744259295),
    (-17.5, 2.510999155743982e-08, 0.057142855708000484, 0.05387755110239997,
     0.025492711365577143),
    (-100.0, 3.720075976020836e-44, 0.01, 0.0099, 0.004901),
    (-640.0, 1.1259823474166023e-278, 0.0015625, 0.00156005859375,
     0.0007788124084472656),
    (-1000.0, 0.0, 0.001, 0.000999, 0.000499001),
    (0.5, 1.6487212707001282, 1.2974425414002564, 0.5948850828005126,
     0.18977016560102516),
    (0.999, 2.715564905318567, 1.7172821875060729, 0.7180001876937665,
     0.2182184060998664),
    (1.0, 2.718281828459045, 1.7182818284590453, 0.7182818284590452,
     0.21828182845904523),
    (3.0, 20.085536923187668, 6.361845641062556, 1.7872818803541852,
     0.4290939601180618),
    (30.0, 10686474581524.463, 356215819384.1154, 11873860646.103848,
     395795354.85346156),
    (705.0, 1.505253833063194e+306, 2.135111819947793e+303, 3.028527404181267e+300,
     4.2957835520301656e+297),
]


def test_ml_many_alpha_one_integer_beta_closed_form():
    table = np.array(_E1N_REFERENCE)
    z = table[:, 0]
    for n in (1, 2, 3, 4):
        ref = table[:, n]
        got = ml_eval_many(1.0, float(n), z)
        assert np.all(np.abs(got - ref) <= 5e-13 * (1.0 + np.abs(ref))), (n, got)
        # below the log-form cut the Taylor and closed forms keep full precision
        exp = z <= 700.0
        assert np.all(np.abs(got - ref)[exp] <= 2e-15 * np.abs(ref[exp])), (n, got)


@pytest.mark.parametrize("al", [0.3, 0.6, 0.95, 1.0, 1.4])
def test_ml_shared_contour_matches_single_beta(al, rng):
    z = -np.concatenate(([0.0, 0.5, 1e6], rng.uniform(0.0, 60.0, 42)))
    betas = (1.0, al + 1.0, al + 2.0, 2.0 * al + 1.0, 2.0 * al + 2.0)
    if al == 1.0:
        betas = (1.0, 2.0, 3.0, 4.0)
    shared = _ml(al, betas, z.reshape(3, -1))
    assert shared.shape == (len(betas), 3, z.size // 3)
    for row, be in zip(shared, betas):
        single = ml_eval_many(al, be, z)
        assert np.all(np.abs(row.ravel() - single) <= 1e-15 * (1.0 + np.abs(single)))


def test_ml_zero_argument_is_exact_reciprocal_gamma():
    # every route returns 1/Gamma(beta) at z = 0, also past the contours'
    # beta bound (-3.7, 2 alpha + 6.5) and for orders above 1
    for al in (0.3, 0.7, 1.0, 1.2, 1.5, 1.6, 2.0, 3.0, 8.0):
        betas = (-3.7, 0.5, 1.0, 2.0, 3.0, 4.0, al + 1.0, 2.0 * al + 2.0,
                 2.0 * al + 6.5)
        shared = _ml(al, betas, np.array([0.0, -0.0]))
        for row, be in zip(shared, betas):
            exact = sp.rgamma(be)
            assert ml_eval(al, be, 0.0) == exact
            assert np.all(ml_eval_many(al, be, np.array([0.0, -0.0])) == exact)
            assert np.all(row == exact)
            assert exact == pytest.approx(1.0 / math.gamma(be), rel=1e-15)


def test_ml_contour_far_on_the_ray():
    # past 1e100 the rule is summed in its large-x form; E(-x) ~ 1/(x Gamma(b-a))
    x = np.array([1e99, 1e100, 1.0000001e100, 1e101, 1e200, 1e300])
    for al, be in ((0.6, 1.6), (0.3, 1.0), (0.9, 2.8)):
        got = ml_eval_many(al, be, -x)
        lead = 1.0 / (x * math.gamma(be - al))
        assert np.all(np.abs(got / lead - 1.0) <= 1e-13), (al, be, got)


# The ratio tables P_B(x, c) = c^(B-1) E_{alpha,B}(-x c^alpha): a band
# hi/4 < c <= hi runs on the fixed parabola rescaled by hi


def test_ml_ratio_bands_cover_every_positive_ratio():
    c = tuple(1.0 - np.linspace(0.0, 1.0, 129) ** 2)
    bands = _bands(c)
    assert [(b[0].start, b[0].stop, b[1]) for b in bands] == [
        (0, 111, 1.0), (111, 124, 0.25), (124, 127, 0.0625), (127, 128, 0.015625)]
    for cols, hi, _ in bands:
        r = np.array(c[cols]) / hi
        assert np.all((r > 0.25) & (r <= 1.0))
    # the last node, c = 0, is in no band and reads 0 for B > 1
    P = _ml_table(0.6, (1.6, 2.6), np.array([0.0, 3.0, 1e6]), c)
    assert np.all(P[:, :, -1] == 0.0)


@pytest.mark.parametrize("al", [0.05, 0.5, 0.99])
def test_ml_ratio_table_at_the_band_edges(al):
    # just above an edge e, c/hi sits at the band's far end 1/4, where the
    # rescaled contour is weakest; just below, at the next band's near end
    xs = np.array([0.0, 1e-3, 1.0, 1e6])
    c = tuple(sorted((e * (1.0 + s) for e in (0.25, 1.0 / 16, 1.0 / 64)
                      for s in (1e-12, -1e-12, 1e-6, -1e-6)), reverse=True))
    table = _ml_table(al, _kernel_betas(al), xs, c)
    for P, be in zip(table, _kernel_betas(al)):
        for j, cj in enumerate(c):
            ref = ml_eval_many(al, be, -xs * cj**al) * cj ** (be - 1.0)
            err = np.abs(P[:, j] - ref)
            if be == 1.0:
                # the phi kernel: as alpha -> 1, 1/Gamma(1 - alpha) -> 0
                # cancels the leading x^-1 term of E_{alpha,1}, so its bound
                # is the absolute one of ml_eval_many
                assert np.all(err <= 1e-13 * (1.0 + np.abs(ref))), (be, cj, err)
            else:
                assert np.all(err <= 1e-13 * np.abs(ref)), (be, cj, err / ref)


def test_ml_ratio_table_one_column_is_ml_eval_many():
    # the contour route of ml_eval_many is the one-column table c = 1
    x = np.concatenate(([0.0], np.logspace(-3.0, 8.0, 23), [1e150, 1e300]))
    for al in (0.05, 0.5, 0.99):
        for be in _kernel_betas(al) + (al - 2.0, 2.0 * al + 4.0):
            col = _ml_table(al, (be,), x, (1.0,))[0, :, 0]
            assert np.array_equal(col, ml_eval_many(al, be, -x)), (al, be)
        # in a wider table the c = 1 column differs only by the GEMM's
        # rounding (relative for the convolution kernels, see above for B = 1)
        wide = _ml_table(al, _kernel_betas(al), x, (1.0, 0.5, 0.2, 0.0))
        for P, be in zip(wide, _kernel_betas(al)):
            ref = ml_eval_many(al, be, -x)
            bound = 1e-15 * (1.0 + np.abs(ref)) if be == 1.0 else 1e-14 * np.abs(ref)
            assert np.all(np.abs(P[:, 0] - ref) <= bound), (al, be)


@pytest.mark.parametrize("B", [3.0, 4.0])
def test_ml_ratio_table_at_alpha_one_matches_the_closed_forms(B):
    # at alpha = 1 the pole of 1/(v + x) lies on the cut, inside the
    # parabola: the tables serve the convolution kernels B = b + 2 there too
    c = np.concatenate((1.0 - np.linspace(0.0, 1.0, 129) ** 2,
                        [e * (1.0 + s) for e in (0.25, 1.0 / 16, 1.0 / 64)
                         for s in (1e-12, -1e-12, 1e-6, -1e-6)]))
    c = tuple(np.sort(c)[::-1])
    x = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 49)))
    ca = np.asarray(c)
    P = _ml_table(1.0, (B,), x, c)[0]
    ref = _ml(1.0, (B,), -np.multiply.outer(x, ca))[0] * ca ** (B - 1.0)
    assert np.all(np.abs(P - ref) <= 1e-13 * np.abs(ref))


def test_ml_table_bits_survive_a_cache_hit():
    # the band tables are built once per (alpha, betas, ratios) and then
    # read from the cache, which must change no bit and cannot be written
    c = tuple(1.0 - np.linspace(0.0, 1.0, 129) ** 2)
    x = np.concatenate(([0.0], np.logspace(-3.0, 8.0, 31), [1e150]))
    special._band_tables.cache_clear()
    first = _ml_table(0.6, (1.6, 2.6), x, c)
    hits = special._band_tables.cache_info().hits
    again = _ml_table(0.6, (1.6, 2.6), x, c)
    assert special._band_tables.cache_info().hits == hits + 1
    assert np.array_equal(first, again)
    *_, exact, bands = special._band_tables(0.6, (1.6, 2.6), c)
    for frozen in (exact, bands[0][2]):
        with pytest.raises(ValueError):
            frozen[0, 0] = 0.0


@pytest.mark.parametrize("al", [0.3, 1.0])
@pytest.mark.parametrize("curves", [1, 6])
def test_ml_sums_match_the_ratio_table_summed_by_parts(al, curves):
    # sum_i s_i (P_i+1 - P_i) = -sum_i w_i P_i, w_i = s_i - s_i-1 (s_-1 =
    # s_n = 0), for the kernels of both forms: B = alpha + 2 and 2 alpha + 2
    # at x > 0, and B = alpha + 2 at x = 0 (the split form's power part)
    c = tuple(1.0 - np.linspace(0.0, 1.0, 129) ** 2)
    rng = np.random.default_rng(3)
    J = 7
    x = np.logspace(-4.0, 6.0, 6 * J).reshape(6, J)
    x[0, 0], x[5, 6] = 0.0, 1e120  # an exact row and a far one
    tn = np.linspace(0.0, 2.0, 129)
    g = np.sin(np.multiply.outer(rng.uniform(1.0, 4.0, (curves, J)), tn))
    slopes = np.diff(g, axis=-1) / np.diff(tn)
    w = np.diff(slopes, axis=-1, prepend=0.0, append=0.0)
    for B, xs in ((al + 2.0, x), (2.0 * al + 2.0, x), (al + 2.0, 0.0 * x)):
        P = _ml_table(al, (B,), xs.ravel(), c)[0].reshape(xs.shape + (len(c),))
        ref = -np.vecdot(slopes, np.diff(P, axis=-1))
        got = _ml_finish(al, B, xs, _ml_node_sums(al, B, w, c), c)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), B


_SCALAR_VS_MANY = [(0.5, 1.0), (0.5, 1.5), (0.8, 2.6), (1.0, 1.0), (1.0, 2.0),
                   (1.0, 3.0), (1.0, 4.0), (1.0, 0.7), (1.5, 1.0), (2.0, 2.0)]


@pytest.mark.parametrize("al,be", _SCALAR_VS_MANY)
def test_ml_scalar_and_many_agree_wherever_both_route(al, be):
    # both finite and bit for bit equal, or both past the double range
    for z in (-300.0, -40.0, -1.0, 0.0, 0.5, 3.0, 40.0, 300.0, 700.0, 707.0,
              709.5, 712.0, 715.0, 1e4):
        try:
            scalar = ml_eval(al, be, z)
        except ResolutionError:
            with pytest.raises(ResolutionError):
                ml_eval_many(al, be, np.array([z]))
            continue
        many = float(ml_eval_many(al, be, np.array([z]))[0])
        assert math.isfinite(scalar)
        assert many == scalar, (z, many, scalar)  # one route table, same bits


# E_{2,b}(-x^2) = (1/2)[E_{1,b}(ix) + E_{1,b}(-ix)], E_{1,b}(w) = 1F1(1; b; w)/Gamma(b),
# from mpmath hyp1f1 at 50 digits (frozen), one row per beta, one column per x
_ALPHA2_X = (2.0, 5.0, 10.0, 17.5, 20.0, 25.0, 30.0, 40.0, 100.0, 300.0)
_ALPHA2_REFERENCE = {
    0.5: (-1.274217823284812, 1.9781546494943558, -0.6558266682027848, 3.5363978014969244,
          -1.595481583984864, 3.973033147361332, 4.4245090286212205,
          -6.314622001492719, 9.678103284568436, 11.973835865383519),
    0.7: (-0.9256528765293643, 1.1249611695332427, -0.996089825470421, 1.5076921014099014,
          -0.12420927446373424, 2.4779595381506123, 1.6259960344470308,
          -2.8199901000227103, 3.9740032045602907, 2.4033566211943436),
    1.3: (-0.0033415152628703034, -0.12088287870485814, -0.5007267468166146, -0.10558489265466597,
          0.31616731343018334, 0.3130008490859328, -0.11240594509331357,
          -0.0847855536382465, 0.13522827010370303, -0.08555769260791253),
    1.5: (0.19831266161222919, -0.22365644373138754, -0.3119968572288062, -0.12872914018047582,
          0.20817389248575738, 0.12101117371720727, -0.10795271230479536,
          0.008564341755982537, 0.025141495437892635, -0.04172008621264481),
    2.5: (0.45960185170814205, -0.05655860263786398, 0.01220016251750541, -0.009705169691262588,
          0.005399177918831551, -0.0054541497021017215, -0.004289243827859405,
          0.004299257240650297, -0.000911391370102068, -0.00012677384757595292),
    2.7: (0.42400901509898253, -0.014183119426667029, 0.017664730093369874, -0.002407539322590477,
          0.002236481145825749, -0.0027321221668544717, -0.0009506809450894028,
          0.0022439833024307963, -0.00032036200206937205, -1.8144149303641917e-05),
    3.5: (0.23251662637082085, 0.054081424433076, 0.014403760243243188, 0.004104843452329758,
          0.002300513186524388, 0.0016117887894052886, 0.0013737020882225643,
          0.0006998842658372063, 0.000110323767165762, 1.3001102814535082e-05),
}


def test_ml_alpha_two_general_beta():
    for be, row in _ALPHA2_REFERENCE.items():
        for x, ref in zip(_ALPHA2_X, row):
            got = ml_eval(2.0, be, -x * x)
            assert abs(got - ref) <= 5e-13 * (1.0 + abs(ref)), (be, x, got)


# (alpha, beta, z, E) at alpha = 4 and 8 and |z|^(1/alpha) from 6.5 to 30, where
# order halving runs: the mpmath series at 50 + |z|^(1/alpha)/2.3 digits (frozen)
_HALVING_REFERENCE = [
    (4.0, 0.5, -1785.0625, 34.501928986116084),
    (4.0, 0.5, -10000.0, 708.1435752459629),
    (4.0, 0.5, -50625.0, 291.54520300143724),
    (4.0, 0.5, -160000.0, -1200464.6403824638),
    (4.0, 0.5, -810000.0, -4142378700.104956),
    (4.0, 1.0, -1785.0625, -5.745466897510979),
    (4.0, 1.0, -10000.0, 415.24023775266977),
    (4.0, 1.0, -50625.0, -7660.73387320917),
    (4.0, 1.0, -160000.0, -3443.982483514849),
    (4.0, 1.0, -810000.0, -581359808.5819283),
    (4.0, 2.5, -1785.0625, -2.876259155743551),
    (4.0, 2.5, -10000.0, 17.216987293318574),
    (4.0, 2.5, -50625.0, -347.711206112171),
    (4.0, 2.5, -160000.0, 7144.826903823688),
    (4.0, 2.5, -810000.0, 1866410.9249458653),
    (8.0, 0.5, -3186448.12890625, -224.52515397700444),
    (8.0, 0.5, -100000000.0, -5205.933341416828),
    (8.0, 0.5, -2562890625.0, 950291.7039853184),
    (8.0, 0.5, -25600000000.0, 471377.0810157813),
    (8.0, 0.5, -656100000000.0, 939220050972.4988),
    (8.0, 1.0, -3186448.12890625, -77.54374167450736),
    (8.0, 1.0, -100000000.0, -2002.8223544642683),
    (8.0, 1.0, -2562890625.0, 223404.4902937943),
    (8.0, 1.0, -25600000000.0, 5266195.903191465),
    (8.0, 1.0, -656100000000.0, 126921356209.6237),
    (8.0, 2.5, -3186448.12890625, -2.0526805870832816),
    (8.0, 2.5, -100000000.0, -80.82718064841455),
    (8.0, 2.5, -2562890625.0, 1909.2498073252295),
    (8.0, 2.5, -25600000000.0, 210040.7768590825),
    (8.0, 2.5, -656100000000.0, -172218692.0488769),
]


def test_ml_order_halving_at_powers_of_two():
    # For alpha > 2, E oscillates on the negative ray with amplitude
    # amp = (2/alpha) tau^(1-beta) e^(tau cos(pi/alpha)), tau = |z|^(1/alpha).
    # Rounding the 2^m roots of z costs about 1e-14 amp, which exceeds
    # 5e-13 (1 + |E|) where E passes near a zero: three points here.
    near_zero = 0
    for al, be, z, ref in _HALVING_REFERENCE:
        err = abs(ml_eval(al, be, z) - ref)
        tau = (-z) ** (1.0 / al)
        amp = 2.0 / al * tau ** (1.0 - be) * math.exp(tau * math.cos(math.pi / al))
        assert err <= max(5e-13 * (1.0 + abs(ref)), 5e-14 * amp), (al, be, z, err)
        near_zero += err > 5e-13 * (1.0 + abs(ref))
    assert near_zero <= 3


# (alpha, beta, E(-2), E(-10), E(-100)) for alpha just above 1, where order
# halving puts the pole on the cut: the mpmath series (frozen)
_NEAR_ONE_REFERENCE = [
    (1.000000001, 0.5, -0.1579596275762072, -0.0342754311279603, -0.0028643587812858186),
    (1.000000001, 1.0, 0.13533528294792652, 4.5399799292241386e-05, -1.0206253613719723e-11),
    (1.000000001, 2.0, 0.4323323585257666, 0.09999545997365346, 0.009999999994430925),
    (1.000000000002, 0.5, -0.15795962698261018, -0.03427543110759599, -0.0028643587811199864),
    (1.000000000002, 1.0, 0.13533528323603533, 4.539992950155016e-05, -2.0412053989914335e-14),
    (1.000000000002, 2.0, 0.4323323583819818, 0.09999546000695701, 0.009999999999988862),
]


def test_ml_order_just_above_one():
    for al, be, *refs in _NEAR_ONE_REFERENCE:
        for z, ref in zip((-2.0, -10.0, -100.0), refs):
            got = ml_eval(al, be, z)
            assert abs(got - ref) <= 5e-13 * (1.0 + abs(ref)), (al, be, z, got)


# (alpha, beta, x, E(-x)) at both edges of the contours' bound
# alpha - 2 <= beta <= 2 alpha + 4: the mpmath series for x <= 0.5, else the
# Hankel integral on the parabola mu (1 + iu)^2, mu = 1, by tanh-sinh
# quadrature at 30 digits (frozen)
_BOUND_EDGE_REFERENCE = [
    (0.05, -1.95, 1e-06, 0.09514578240161387),
    (0.05, -1.95, 0.5, 0.04379492877844665),
    (0.05, -1.95, 3.0, 0.006396783695456143),
    (0.05, -1.95, 40.0, 6.196277095147441e-05),
    (0.05, -1.95, 10000.0, 1.0432145134768605e-09),
    (0.05, 4.1, 1e-06, 0.14678620593240063),
    (0.05, 4.1, 0.5, 0.0999330067502488),
    (0.05, 4.1, 3.0, 0.03848722063404115),
    (0.05, 4.1, 40.0, 0.003810175958838258),
    (0.05, 4.1, 10000.0, 1.5644903305990586e-05),
    (0.5, -1.5, 1e-06, 0.42314218766053513),
    (0.5, -1.5, 0.5, 0.3686400154330535),
    (0.5, -1.5, 3.0, 0.08636559198641522),
    (0.5, -1.5, 40.0, 0.0006597174352012325),
    (0.5, -1.5, 10000.0, 1.0578554321271032e-08),
    (0.5, 5.0, 1e-06, 0.04166664756184254),
    (0.5, 5.0, 0.5, 0.03383611491816851),
    (0.5, 5.0, 3.0, 0.017225139815708418),
    (0.5, 5.0, 40.0, 0.002049640361121286),
    (0.5, 5.0, 10000.0, 8.595508240626452e-06),
    (0.99, -1.01, 1e-06, 0.010041058986938313),
    (0.99, -1.01, 0.5, 0.16613147943836687),
    (0.99, -1.01, 3.0, 0.43273607050967877),
    (0.99, -1.01, 40.0, 4.596675396827635e-05),
    (0.99, -1.01, 10000.0, 5.928872000380999e-10),
    (0.99, 5.98, 1e-06, 0.008622278792352433),
    (0.99, 5.98, 0.5, 0.0079382533202226),
    (0.99, 5.98, 3.0, 0.005599493253149874),
    (0.99, 5.98, 40.0, 0.0009606589746305488),
    (0.99, 5.98, 10000.0, 4.228183518159022e-06),
]


def test_ml_beta_bound_of_the_contours():
    # past alpha - 2 <= beta <= 2 alpha + 4 the contours lose the contract:
    # E_{0.5,12}(-3) came out 1.8e-2 wrong, E_{0.99,-3}(-40) 6e-12
    for al, be, z in ((0.5, 12.0, -3.0), (0.9, 12.0, -10.0), (1.5, 12.0, -30.0),
                      (0.99, -3.0, -40.0)):
        with pytest.raises(ResolutionError):
            ml_eval(al, be, z)
        with pytest.raises(ResolutionError):
            ml_eval_many(al, be, np.array([-0.5, z]))
    # |z| <= 1 keeps the series; E_{0.5,12}(-0.5) from the mpmath series
    ref = 2.1855980743978665e-08
    assert abs(ml_eval(0.5, 12.0, -0.5) - ref) <= 1e-13 * ref
    # both edges hold the contract; the solver's largest kernel 2 alpha + 2 lies inside
    for al, be, x, ref in _BOUND_EDGE_REFERENCE:
        got = ml_eval_many(al, be, np.array([-x]))[0]
        assert abs(got - ref) <= 5e-13 * (1.0 + abs(ref)), (al, be, x, got)


# E_{1,b}(-x) = e^-x 1F1(b-1; b; x)/Gamma(b), or (-x)^(1-b) e^-x for integer
# b <= 1, from mpmath at 60 digits (frozen), one row per beta, one column per x
_ALPHA1_X = (1.5, 10.0, 31.0, 700.0, 1e6)
_ALPHA1_REFERENCE = {
    -1.0: (0.5020428603339672, 0.004539992976248485, 3.3082205012396475e-11,
           4.831241506442288e-299, 0.0),
    -0.5: (-0.08827547875151309, 0.06065951930167367, 0.014896957536504317,
           0.0006066585926147699, 4.231432455199889e-07),
    0.0: (-0.33469524022264474, -0.0004539992976248485, -1.0671679036256928e-12,
          -6.90177358063184e-302, 0.0),
    0.3: (-0.24871172164900818, -0.02944771883904471, -0.008003184299178812,
          -0.0003350877057321911, -2.3399132458058296e-07),
    0.7: (0.012713021929791802, -0.027215109258311197, -0.007794045815867928,
          -0.00033077940801513634, -2.3111525561010257e-07),
    1.5: (0.4622683059306664, 0.059846501465531145, 0.01850870846960544,
          0.0008065620610893794, 5.641898656429712e-07),
    2.5: (0.4440739074432308, 0.10685326656299814, 0.03580227285890023,
          0.0016108180071920332, 1.128378602905647e-06),
    3.5: (0.20545258041362952, 0.06453995115006769, 0.023111306619508866,
          0.0010723456572235472, 7.522516496850721e-07),
    4.5: (0.06363235387456033, 0.023636116007540234, 0.008960961438901972,
          0.0004283268079546378, 3.009003589738203e-07),
    5.0: (0.03172941435030713, 0.012566671206659642, 0.004888537095168022,
          0.00023707774121893655, 1.6666616666766666e-07),
}


def test_ml_alpha_one_by_order_halving():
    # alpha = 1 past the series disc halves once onto the order-1/2 contours
    for be, row in _ALPHA1_REFERENCE.items():
        for x, ref in zip(_ALPHA1_X, row):
            got = ml_eval(1.0, be, -x)
            assert abs(got - ref) <= 5e-13 * (1.0 + abs(ref)), (be, x, got)
    # and so takes their beta bound -1.5 <= beta <= 5; |z| <= 1 keeps the series
    with pytest.raises(ResolutionError):
        ml_eval(1.0, 6.0, -10.0)
    ref = 0.007685555862397111  # E_{1,6}(-0.5), the mpmath series
    assert abs(ml_eval(1.0, 6.0, -0.5) - ref) <= 1e-15 * ref


# (alpha, beta): E(z) at z = -tau^alpha for tau in _SMALL_TAU (z in _SMALL_TAU_Z),
# where the oscillation of E has barely begun: the mpmath series at 80 digits
# (frozen)
_SMALL_TAU = (1.05, 2.0, 3.5, 5.0, 6.0)
_SMALL_TAU_Z = {
    2.5: (-1.129726321947046, -5.656854249492381, -22.91765149399039, -55.90169943749474,
          -88.18163074019441),
    3.0: (-1.1576250000000001, -8.0, -42.875, -125.0, -216.0),
    4.0: (-1.2155062500000002, -16.0, -150.0625, -625.0, -1296.0),
    8.0: (-1.477455443789063, -256.0, -22518.75390625, -390625.0, -1679616.0),
}
_SMALL_TAU_REFERENCE = {
    (2.5, -0.5): (-1.304085918584891, -3.4308286731968187, 7.396640345129656,
                  39.278917456202294, 19.491601824861508),
    (2.5, 1.0): (0.6705974851253679, -0.44810649058567126, -2.3043551489612146,
                 0.16755116992253477, 4.286578944448054),
    (2.5, 2.5): (0.7058589325416256, 0.533159922902895, 0.046802860179406894,
                 -0.3229442076819683, -0.27022012513833155),
    (3.0, -0.5): (-1.1274294979516544, -5.1135467051454, -2.7532825846749662,
                  84.27155385182597, 174.2326278347874),
    (3.0, 1.0): (0.8089194726482017, -0.2458468530863726, -3.802936517053217,
                 -3.0272976094002595, 6.2288698899057025),
    (3.0, 2.5): (0.730231902539921, 0.6039314891714402, 0.05763703307057931,
                 -0.6764291891487988, -0.8079385306785244),
    (4.0, -0.5): (-0.6470525704828782, -4.96004996163161, -33.684495438127726,
                  0.3403288108301535, 332.7009144475618),
    (4.0, 1.0): (0.949390545741112, 0.33967399169472473, -4.701133837076719,
                 -15.855979276337408, -15.753933599055276),
    (4.0, 2.5): (0.7480318920028453, 0.6969007996112386, 0.25071924731275697,
                 -1.0845360364481265, -2.3598516526778446),
    (8.0, -0.5): (-0.2828843452979568, -0.41890122848169786, -12.314622883159357,
                  -208.57675479014281, -889.4460114021483),
    (8.0, 1.0): (0.999963356759931, 0.9936507967830719, 0.4415233955088224,
                 -8.680827232105107, -40.522316185591244),
    (8.0, 2.5): (0.7522514743633164, 0.752026884803081, 0.732382664372413,
                 0.4076687686472217, -0.7279507700178441),
}


def test_ml_order_halving_at_small_tau():
    # order halving serves alpha > 2 from the series disc on; the limit of
    # test_ml_order_halving_at_powers_of_two holds here too, and bites once:
    # E_{4,-0.5}(-625) = 0.34 is 6.9e-13 off, 3.6e-15 of amp = 190
    near_zero = 0
    for (al, be), row in _SMALL_TAU_REFERENCE.items():
        for tau, z, ref in zip(_SMALL_TAU, _SMALL_TAU_Z[al], row):
            err = abs(ml_eval(al, be, z) - ref)
            amp = 2.0 / al * tau ** (1.0 - be) * math.exp(tau * math.cos(math.pi / al))
            assert err <= max(5e-13 * (1.0 + abs(ref)), 5e-14 * amp), (al, be, z, err)
            near_zero += err > 5e-13 * (1.0 + abs(ref))
    assert near_zero <= 1


def test_ml_positive_ray_reaches_the_double_limit():
    # the exponential branch is exact e^z at alpha = beta = 1, up to ~709.78
    assert ml_eval(1.0, 1.0, 707.0) == pytest.approx(math.exp(707.0), rel=1e-13)
    assert ml_eval(1.0, 2.0, 707.0) == pytest.approx(math.expm1(707.0) / 707.0,
                                                     rel=1e-13)
    for z in (709.9, 750.0):
        with pytest.raises(ResolutionError):
            ml_eval(1.0, 1.0, z)
        with pytest.raises(ResolutionError):
            ml_eval_many(1.0, 1.0, np.array([z]))


def test_ml_many_positive_arguments_delegate():
    # the vectorized fast path covers the negative ray only; anything
    # positive must still come out right via the scalar route
    zs = np.array([-1.0, 0.5, 3.0])
    many = ml_eval_many(0.5, 1.0, zs)
    ref = np.array([ml_eval(0.5, 1.0, z) for z in zs])
    assert np.allclose(many, ref, rtol=1e-13)


def test_ml_rejects_bad_order():
    with pytest.raises(DomainError):
        ml_eval(0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        ml_eval(-0.5, 1.0, -1.0)
    with pytest.raises(DomainError):
        ml_eval(0.5, 1.0, math.nan)


def test_ml_overflow_is_resolution_error():
    # for alpha > 2, E grows on the negative ray past the double range
    with pytest.raises(ResolutionError):
        ml_eval(2.5, 1.0, -1e9)


@pytest.mark.parametrize("z", [[math.nan], [-math.inf], [-1.0, math.nan]])
def test_ml_many_rejects_non_finite(z):
    with pytest.raises(DomainError):
        ml_eval_many(0.6, 1.0, np.array(z))


def test_ml_bound_fit_validates_on_denser_grid():
    xs = np.linspace(0.0, 50.0, 101)
    dense = np.linspace(0.0, 50.0, 1001)
    for al in (0.3, 0.5, 0.8):
        fit = ml_bound_fit(al, 1.0, xs)
        assert math.isfinite(fit.M) and fit.M >= 1.0
        vals = ml_eval_many(al, 1.0, -dense)
        assert np.max((1.0 + dense) * np.abs(vals)) <= 1.05 * fit.M


def test_ml_bound_fit_rejects_alpha_2():
    with pytest.raises(DomainError):
        ml_bound_fit(2.0, 1.0, [0.0, 1.0])


def test_bessel_j_zero_is_a_zero():
    for nu in (0.0, 0.4, 1.0, 5.0 / 3.0, 7.2):
        zeros = _bessel_j_zeros(nu, 11)
        for k in (1, 2, 5, 11):
            x = zeros[k - 1]
            assert abs(sp.jv(nu, x)) <= 1e-11
            # derivative scale keeps the residual meaningful
            d = 1e-6 * x
            slope = (sp.jv(nu, x + d) - sp.jv(nu, x - d)) / (2.0 * d)
            assert abs(sp.jv(nu, x) / slope) <= 1e-10


def test_bessel_j_zeros_increase_and_interlace():
    nu = 0.4
    z_nu = _bessel_j_zeros(nu, 7)
    z_up = _bessel_j_zeros(nu + 1.0, 7)
    assert all(a < b for a, b in zip(z_nu, z_nu[1:]))
    # zeros of J_nu and J_{nu+1} interlace
    for k in range(6):
        assert z_nu[k] < z_up[k] < z_nu[k + 1]


def test_bessel_j_zero_matches_scipy_integer_order():
    ref = sp.jn_zeros(0, 6)
    got = _bessel_j_zeros(0.0, 6)
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_bessel_zeros_match_scipy_to_the_last_double():
    for n in range(6):
        ref = sp.jn_zeros(n, 100)
        got = _bessel_j_zeros(float(n), 100)
        assert np.max(np.abs(got - ref) / ref) <= 1e-15, n


@pytest.mark.parametrize("nu", [-0.9, -0.11, 0.0, 0.4, 4.0, 19.0, 39.0])
def test_bessel_zeros_are_every_sign_change_of_the_scan(nu):
    # a fine grid from the scan's start past the 60th zero changes sign
    # exactly 60 times, once within one double of each zero
    z = _bessel_j_zeros(nu, 60)
    assert z.size == 60 and np.all(np.diff(z) > 3.0)
    x = np.linspace(max(nu, 0.0) + 1e-3, z[-1] + 1.0, 200_001)
    assert np.count_nonzero(np.diff(np.signbit(sp.jv(nu, x)))) == 60
    below, above = np.nextafter(z, 0.0), np.nextafter(z, np.inf)
    assert np.all((np.signbit(sp.jv(nu, below)) != np.signbit(sp.jv(nu, above)))
                  | (sp.jv(nu, z) == 0.0))


def test_bessel_first_zero_near_order_minus_one():
    # j_{nu,1} -> 0 as nu -> -1 (below 2 sqrt(nu + 1) < 1e-3 here): a scan
    # from x = 1e-3 would start past it and return the second zero
    nu = -1.0 + 1e-8
    x, x2 = _bessel_j_zeros(nu, 2)
    assert x < 1e-3
    assert abs(sp.jv(nu, x)) <= 1e-15
    assert x2 == pytest.approx(sp.jn_zeros(1, 1)[0], rel=1e-6)


def test_bessel_zero_scan_stops_at_its_cap():
    # J_0 has about 318,000 zeros within the 10^6 unit steps of the scan
    with pytest.raises(ResolutionError, match="400000 zeros"):
        _bessel_j_zeros(0.0, 400_000)
