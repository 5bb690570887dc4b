# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of ``_kernels_py``: Airy functions and complex gamma.

Same algorithms, same frozen tables, scalar C arithmetic.  See the pure
module for the algorithm notes; any change here must be mirrored there
(tests/test_special.py cross-checks the two lanes).  Gamma(s, z) has no
twin: it is the one numpy lane in ``special``.
"""

from libc.math cimport sqrt, exp, log, cos, sin, pi, isnan, INFINITY

cdef extern from "complex.h":
    double complex cexp(double complex) nogil
    double complex csin(double complex) nogil
    double complex cpow(double complex, double complex) nogil
    double creal(double complex) nogil
    double cimag(double complex) nogil

__all__ = [
    "airy_ai", "airy_ai_prime", "airy_bi", "airy_bi_prime",
    "gamma_cx",
]

cdef double _SQRT_PI = 1.7724538509055160273
cdef double _SQRT_2PI = 2.5066282746310005024
cdef double _AI0 = 0.35502805388781723926
cdef double _AIP0 = -0.25881940379280679841

DEF N_ASY = 26

cdef double[N_ASY] _U_ASY
cdef double[N_ASY] _V_ASY
_U_ASY[0] = 1.0
_V_ASY[0] = 1.0
cdef int _k
for _k in range(1, N_ASY):
    _U_ASY[_k] = _U_ASY[_k - 1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1) / ((2 * _k - 1) * 216.0 * _k)
    _V_ASY[_k] = _U_ASY[_k] * (6 * _k + 1) / (1 - 6 * _k)

cdef double _CHEB_LO = 4.0
cdef double _CHEB_HI = 9.5

cdef double[28] _AI_CHEB
cdef double[28] _AIP_CHEB
_ai_vals = (
    1.9867263037871594, 0.003979582515375121, -0.0009973964943925581,
    0.00023266434355516196, -5.217577215740501e-05, 1.1410876390766892e-05,
    -2.4527540061452283e-06, 5.206403850821495e-07, -1.0948193867361359e-07,
    2.2857839827266395e-08, -4.746003637709098e-09, 9.81211326475265e-10,
    -2.0219028039138362e-10, 4.1557662073492856e-11, -8.525204351985036e-12,
    1.7479271998053848e-12, -3.573966519557611e-13, 7.32588592963371e-14,
    -1.5297287246442335e-14, 3.7232122147250784e-15, -5.590765945433824e-16,
    1.8635886484779411e-16, 3.96508223080413e-17, 3.370319896183511e-16,
    -9.198990775465582e-16, -1.8437632373239205e-16, 1.2083588098375587e-15,
    1.4522113670320127e-16,
)
_aip_vals = (
    2.018754814126801, -0.005663998456210351, 0.0014319802912885957,
    -0.00033733478763084017, 7.646544475882675e-05, -1.69172273346087e-05,
    3.6811486449231775e-06, -7.915063489865354e-07, 1.6868670873629705e-07,
    -3.57107872479239e-08, 7.521312953403682e-09, -1.57789458483342e-09,
    3.300261175454011e-10, -6.886787172279339e-11, 1.4345976787463346e-11,
    -2.9830265242074863e-12, 6.203291848448446e-13, -1.2869070888297886e-13,
    2.6344006341462642e-14, -4.853260650504256e-15, 1.1617690936256102e-15,
    -3.0927641400272217e-16, 1.4274296030894868e-16, 3.291018251567428e-16,
    -9.09986371969548e-16, -2.101493582326189e-16, 1.2499921732610021e-15,
    1.1052666718366513e-16,
)
for _k in range(28):
    _AI_CHEB[_k] = _ai_vals[_k]
    _AIP_CHEB[_k] = _aip_vals[_k]

# Negative mid-zone envelopes on t = -x in [4.2, 8.0]; see the pure module.
cdef double _NEG_LO = 4.2
cdef double _NEG_HI = 8.0
cdef double[24] _NEG_P_CHEB
_vals_NEG_P_CHEB = (
    1.9990307495374116,
    0.00042498878801174495,
    -0.00012909958749444023,
    3.279520571086714e-05,
    -7.465033578892462e-06,
    1.5743215532696788e-06,
    -3.134442100686622e-07,
    5.9610565002662e-08,
    -1.0914737939433261e-08,
    1.935068762633681e-09,
    -3.336169951406731e-10,
    5.612691792814909e-11,
    -9.24138543467734e-12,
    1.4919547079254394e-12,
    -2.3728010297337693e-13,
    3.781234584702512e-14,
    -5.962822828090944e-15,
    1.0732155904709846e-15,
    -8.326672684688674e-16,
    -1.258252761241844e-15,
    -2.0354088784794536e-16,
    -2.6830389761774615e-16,
    -1.3415194880887307e-15,
    1.1657341758564144e-15,
)
cdef double[24] _NEG_Q_CHEB
_vals_NEG_Q_CHEB = (
    0.015089713738653143,
    -0.00353453481574041,
    0.0006878765223827671,
    -0.0001237505184374238,
    2.1205377916949594e-05,
    -3.5030196649122464e-06,
    5.610719375255766e-07,
    -8.738483273183079e-08,
    1.3253190237679883e-08,
    -1.9584085934251185e-09,
    2.819132093566379e-10,
    -3.949966222160928e-11,
    5.377921054085706e-12,
    -7.094909150924995e-13,
    9.026113190202523e-14,
    -1.0975739992794923e-14,
    1.257457679648688e-15,
    -1.3068250185691946e-16,
    4.336808689942018e-18,
    -1.1853943752508181e-17,
    -1.879283765641541e-18,
    -1.8070036208091738e-18,
    -1.4166908387143924e-17,
    1.5612511283791264e-17,
)
cdef double[24] _NEG_R_CHEB
_vals_NEG_R_CHEB = (
    2.001147960416599,
    -0.00050399234741109,
    0.0001534042086010189,
    -3.9075664704994274e-05,
    8.926046594220916e-06,
    -1.8907493584870612e-06,
    3.784699400544156e-07,
    -7.244024965065894e-08,
    1.3364416220621275e-08,
    -2.3902807696115263e-09,
    4.1628890381136446e-10,
    -7.084858625698112e-11,
    1.1818065045095711e-11,
    -1.9382643638247523e-12,
    3.126596204161558e-13,
    -4.9182879990894435e-14,
    7.669790728452123e-15,
    -9.992007221626409e-16,
    -5.366077952354923e-16,
    -1.3137639124731018e-15,
    -2.1279274638648832e-16,
    -3.0531133177191805e-16,
    -1.3646491344350882e-15,
    1.1472304587793283e-15,
)
cdef double[24] _NEG_S_CHEB
_vals_NEG_S_CHEB = (
    -0.02116168764474326,
    0.00496971199664358,
    -0.0009715543107042783,
    0.0001759892070425948,
    -3.045111414604467e-05,
    5.096693017719173e-06,
    -8.304233142531388e-07,
    1.3220167418998932e-07,
    -2.0613655567069723e-08,
    3.15385652836786e-09,
    -4.742034113471016e-10,
    7.017010525874519e-11,
    -1.0234065331293785e-11,
    1.4735134408934887e-12,
    -2.09813431096643e-13,
    2.959452706045399e-14,
    -4.146567348743227e-15,
    5.765064351829589e-16,
    -7.025630077706069e-17,
    2.7177334456969977e-17,
    6.505213034913027e-19,
    3.0357660829594124e-18,
    1.9660199394403812e-17,
    -2.1973164029039556e-17,
)
for _k in range(24):
    _NEG_P_CHEB[_k] = _vals_NEG_P_CHEB[_k]
for _k in range(24):
    _NEG_Q_CHEB[_k] = _vals_NEG_Q_CHEB[_k]
for _k in range(24):
    _NEG_R_CHEB[_k] = _vals_NEG_R_CHEB[_k]
for _k in range(24):
    _NEG_S_CHEB[_k] = _vals_NEG_S_CHEB[_k]


cdef void _airy_series(double x, double* out) nogil:
    cdef double x3 = x * x * x
    cdef double tf = 1.0, f = 1.0
    cdef double tg = x, g = x
    cdef double tfp = 0.0, fp = 0.0
    cdef double tgp = 1.0, gp = 1.0
    cdef double scale
    cdef int k = 0
    while True:
        tf *= x3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x3 / ((3 * k + 3) * (3 * k + 4))
        if k == 0:
            tfp = 0.5 * x * x
        else:
            tfp *= x3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
        tgp *= x3 / ((3 * k + 1) * (3 * k + 3))
        f += tf
        g += tg
        fp += tfp
        gp += tgp
        k += 1
        scale = (f if f > 0 else -f) + (g if g > 0 else -g) + (fp if fp > 0 else -fp) + (gp if gp > 0 else -gp) + 1e-300
        if ((tf if tf > 0 else -tf) + (tg if tg > 0 else -tg) + (tfp if tfp > 0 else -tfp) + (tgp if tgp > 0 else -tgp)) < 1e-18 * scale or k > 220:
            break
    out[0] = f
    out[1] = g
    out[2] = fp
    out[3] = gp


cdef void _airy_asy_pos(double x, double* out) nogil:
    cdef double zeta = 2.0 / 3.0 * x * sqrt(x)
    cdef double sa = 0, sap = 0, sb = 0, sbp = 0
    cdef double sign = 1.0, zk = 1.0, prev = INFINITY, tu
    cdef int k
    for k in range(N_ASY):
        tu = _U_ASY[k] / zk
        if k > 2 and (tu if tu > 0 else -tu) > prev:
            break
        prev = tu if tu > 0 else -tu
        sa += sign * tu
        sap += sign * _V_ASY[k] / zk
        sb += tu
        sbp += _V_ASY[k] / zk
        sign = -sign
        zk *= zeta
    cdef double q = x ** 0.25
    cdef double ez = exp(zeta)
    out[0] = exp(-zeta) / (2.0 * _SQRT_PI * q) * sa
    out[1] = -q * exp(-zeta) / (2.0 * _SQRT_PI) * sap
    out[2] = ez / (_SQRT_PI * q) * sb
    out[3] = q * ez / _SQRT_PI * sbp


cdef void _airy_asy_neg(double x, double* out) nogil:
    cdef double t = -x
    cdef double xi = 2.0 / 3.0 * t * sqrt(t)
    cdef double c = cos(xi - 0.25 * pi)
    cdef double s = sin(xi - 0.25 * pi)
    cdef double se = 0, so = 0, sep = 0, sop = 0
    cdef double sign = 1.0, x2k
    cdef int k
    for k in range(N_ASY // 2):
        x2k = xi ** (2 * k)
        se += sign * _U_ASY[2 * k] / x2k
        sep += sign * _V_ASY[2 * k] / x2k
        if 2 * k + 1 < N_ASY:
            so += sign * _U_ASY[2 * k + 1] / (x2k * xi)
            sop += sign * _V_ASY[2 * k + 1] / (x2k * xi)
        sign = -sign
    cdef double q = t ** 0.25
    out[0] = (c * se + s * so) / (_SQRT_PI * q)
    out[1] = q / _SQRT_PI * (s * sep - c * sop)
    out[2] = (-s * se + c * so) / (_SQRT_PI * q)
    out[3] = q / _SQRT_PI * (c * sep + s * sop)


cdef double _cheb_eval_on(double* coeffs, int n, double x, double lo, double hi) nogil:
    cdef double t = (2.0 * x - (lo + hi)) / (hi - lo)
    cdef double b1 = 0, b2 = 0, tmp
    cdef int j
    for j in range(n - 1, 0, -1):
        tmp = 2.0 * t * b1 - b2 + coeffs[j]
        b2 = b1
        b1 = tmp
    return t * b1 - b2 + 0.5 * coeffs[0]


cdef void _airy_neg_mid(double x, double* out) nogil:
    cdef double t = -x
    cdef double xi = 2.0 / 3.0 * t * sqrt(t)
    cdef double c = cos(xi - 0.25 * pi)
    cdef double sn = sin(xi - 0.25 * pi)
    cdef double p = _cheb_eval_on(_NEG_P_CHEB, 24, t, _NEG_LO, _NEG_HI)
    cdef double q = _cheb_eval_on(_NEG_Q_CHEB, 24, t, _NEG_LO, _NEG_HI)
    cdef double r = _cheb_eval_on(_NEG_R_CHEB, 24, t, _NEG_LO, _NEG_HI)
    cdef double s_ = _cheb_eval_on(_NEG_S_CHEB, 24, t, _NEG_LO, _NEG_HI)
    cdef double q4 = t ** 0.25
    out[0] = (c * p + sn * q) / (_SQRT_PI * q4)
    out[1] = q4 / _SQRT_PI * (sn * r - c * s_)
    out[2] = (-sn * p + c * q) / (_SQRT_PI * q4)
    out[3] = q4 / _SQRT_PI * (c * r + sn * s_)


def airy_ai(double x):
    """Airy function Ai(x) for real x."""
    cdef double out[4]
    if isnan(x):
        raise ValueError("airy_ai: NaN argument")
    if x >= 9.0:
        _airy_asy_pos(x, out)
        return out[0]
    if x >= _CHEB_LO:
        return _cheb_eval_on(_AI_CHEB, 28, x, _CHEB_LO, _CHEB_HI) * exp(-2.0 / 3.0 * x * sqrt(x)) / (2.0 * _SQRT_PI * x ** 0.25)
    if x <= -_NEG_HI:
        _airy_asy_neg(x, out)
        return out[0]
    if x <= -_NEG_LO:
        _airy_neg_mid(x, out)
        return out[0]
    _airy_series(x, out)
    return _AI0 * out[0] + _AIP0 * out[1]


def airy_ai_prime(double x):
    """Derivative Ai'(x) for real x."""
    cdef double out[4]
    if isnan(x):
        raise ValueError("airy_ai_prime: NaN argument")
    if x >= 9.0:
        _airy_asy_pos(x, out)
        return out[1]
    if x >= _CHEB_LO:
        return -_cheb_eval_on(_AIP_CHEB, 28, x, _CHEB_LO, _CHEB_HI) * exp(-2.0 / 3.0 * x * sqrt(x)) * x ** 0.25 / (2.0 * _SQRT_PI)
    if x <= -_NEG_HI:
        _airy_asy_neg(x, out)
        return out[1]
    if x <= -_NEG_LO:
        _airy_neg_mid(x, out)
        return out[1]
    _airy_series(x, out)
    return _AI0 * out[2] + _AIP0 * out[3]


def airy_bi(double x):
    """Airy function Bi(x) for real x."""
    cdef double out[4]
    if isnan(x):
        raise ValueError("airy_bi: NaN argument")
    if x >= 9.0:
        _airy_asy_pos(x, out)
        return out[2]
    if x <= -_NEG_HI:
        _airy_asy_neg(x, out)
        return out[2]
    if x <= -_NEG_LO:
        _airy_neg_mid(x, out)
        return out[2]
    _airy_series(x, out)
    return sqrt(3.0) * (_AI0 * out[0] - _AIP0 * out[1])


def airy_bi_prime(double x):
    """Derivative Bi'(x) for real x."""
    cdef double out[4]
    if isnan(x):
        raise ValueError("airy_bi_prime: NaN argument")
    if x >= 9.0:
        _airy_asy_pos(x, out)
        return out[3]
    if x <= -_NEG_HI:
        _airy_asy_neg(x, out)
        return out[3]
    if x <= -_NEG_LO:
        _airy_neg_mid(x, out)
        return out[3]
    _airy_series(x, out)
    return sqrt(3.0) * (_AI0 * out[2] - _AIP0 * out[3])


cdef double[9] _LANCZOS_P
_lp = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)
for _k in range(9):
    _LANCZOS_P[_k] = _lp[_k]


cdef double complex _gamma_cx(double complex z) except *:
    cdef double complex acc, t
    cdef int i
    if cimag(z) == 0.0 and creal(z) <= 0.0 and creal(z) == <long>creal(z):
        raise ValueError(f"gamma_cx: pole at z={complex(creal(z), cimag(z))}")
    if creal(z) < 0.5:
        return pi / (csin(pi * z) * _gamma_cx(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS_P[0]
    for i in range(1, 9):
        acc = acc + _LANCZOS_P[i] / (z + i)
    t = z + 7.5
    return _SQRT_2PI * cpow(t, z + 0.5) * cexp(-t) * acc


def gamma_cx(z):
    """Gamma(z) for complex z off the non-positive integers."""
    return complex(_gamma_cx(complex(z)))
