"""Test-side references that the package never calls.

Plain-Python reference loops for the numpy kernels in ``it2fis.kernels``:
each computes what its kernel computes, one element at a time, so the tests
can check a vectorized kernel against it: ``sq_distances``,
``fcm_memberships``, ``t1_epoch`` and ``it2_epoch``.  The epoch kernels take
the data through ``kernels.centre``; their loops take it raw.

Type-1 and interval type-2 Gaussian fuzzy sets, one scalar at a time.  A
type-1 set is a Gaussian membership curve exp(-0.5 ((x - mean)/sigma)^2).
An interval type-2 set keeps the mean fixed and lets sigma range over
[sigma_lower, sigma_upper]; its membership at a point is then the interval
spanned by the two boundary Gaussians.  Products of ``it2_membership``
grades over the antecedents, reduced by ``inference.km_reduce``, are the
paper's IT2 inference written out per rule and per feature: the engine
oracle test in ``test_inference.py`` holds ``predict_batch``'s shifted
log-space firing to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from it2fis.inference import km_reduce
from it2fis.kernels import TINY


def _sq_distances_loops(v, xt, xx):
    # sums the coordinate differences directly, so it never reads xx
    c = v.shape[0]
    d, n = xt.shape
    out = np.empty((c, n))
    for j in range(n):
        for i in range(c):
            acc = 0.0
            for f in range(d):
                t = xt[f, j] - v[i, f]
                acc += t * t
            out[i, j] = acc
    return out


def _fcm_memberships_loops(d2, m):
    c, n = d2.shape
    p = 1.0 / (m - 1.0)
    u = np.empty((c, n))
    for j in range(n):
        nzero = 0
        for i in range(c):
            if d2[i, j] <= 0.0:
                nzero += 1
        if nzero > 0:
            w = 1.0 / nzero
            for i in range(c):
                u[i, j] = w if d2[i, j] <= 0.0 else 0.0
            continue
        tot = 0.0
        for i in range(c):
            val = d2[i, j] ** (-p)
            u[i, j] = val
            tot += val
        if not np.isfinite(tot):
            nbad = 0
            for i in range(c):
                if not np.isfinite(u[i, j]):
                    nbad += 1
            w = 1.0 / nbad
            for i in range(c):
                u[i, j] = w if not np.isfinite(u[i, j]) else 0.0
        else:
            for i in range(c):
                u[i, j] /= tot
    return u


def _t1_epoch_loops(x, y, means, sigmas, cons):
    n, g = x.shape
    d = means.shape[0]
    gm = np.zeros((d, g))
    gs = np.zeros((d, g))
    gc = np.zeros(d)
    err = 0.0
    w = np.empty(d)
    for j in range(n):
        shift = -np.inf
        for s in range(d):
            acc = 0.0
            for f_ in range(g):
                z = (x[j, f_] - means[s, f_]) / sigmas[s, f_]
                acc += z * z
            w[s] = -0.5 * acc
            if w[s] > shift:
                shift = w[s]
        den = 0.0
        num = 0.0
        for s in range(d):
            w[s] = np.exp(w[s] - shift)
            den += w[s]
            num += w[s] * cons[s]
        fx = num / den
        diff = fx - y[j]
        err += 0.5 * diff * diff
        r = diff / n
        for s in range(d):
            q = r * (cons[s] - fx) / den * w[s]
            gc[s] += r * w[s] / den
            for f_ in range(g):
                zx = x[j, f_] - means[s, f_]
                sg = sigmas[s, f_]
                gm[s, f_] += q * zx / (sg * sg)
                gs[s, f_] += q * zx * zx / (sg * sg * sg)
    return gm, gs, gc, err / n


def _it2_epoch_loops(x, y, means, sig_lo, sig_up, cons, order):
    n, g = x.shape
    d = means.shape[0]
    gm = np.zeros((d, g))
    gsl = np.zeros((d, g))
    gsu = np.zeros((d, g))
    gc = np.zeros(d)
    err = 0.0
    e_lo = np.empty(d)
    e_up = np.empty(d)
    lo_s = np.empty(d)
    up_s = np.empty(d)
    cs = np.empty(d)
    for s in range(d):
        cs[s] = cons[order[s]]
    for j in range(n):
        shift = -np.inf
        for s in range(d):
            acc_l = 0.0
            acc_u = 0.0
            for f_ in range(g):
                zl = (x[j, f_] - means[s, f_]) / sig_lo[s, f_]
                zu = (x[j, f_] - means[s, f_]) / sig_up[s, f_]
                acc_l += zl * zl
                acc_u += zu * zu
            e_lo[s] = -0.5 * acc_l
            e_up[s] = -0.5 * acc_u
            if e_up[s] > shift:
                shift = e_up[s]
        if not np.isfinite(shift):
            # degenerate sample: poison the epoch error and let the caller
            # locate the offender (mirrors the t1 kernel's behaviour)
            err = np.nan
            break
        for s in range(d):
            v = np.exp(e_lo[order[s]] - shift)
            lo_s[s] = 0.0 if v < TINY else v
            v = np.exp(e_up[order[s]] - shift)
            up_s[s] = 0.0 if v < TINY else v

        best_l = np.inf
        best_r = -np.inf
        kl = 0
        kr = 0
        for k in range(d + 1):
            num_l = 0.0
            den_l = 0.0
            num_r = 0.0
            den_r = 0.0
            for s in range(d):
                if s < k:
                    num_l += up_s[s] * cs[s]
                    den_l += up_s[s]
                    num_r += lo_s[s] * cs[s]
                    den_r += lo_s[s]
                else:
                    num_l += lo_s[s] * cs[s]
                    den_l += lo_s[s]
                    num_r += up_s[s] * cs[s]
                    den_r += up_s[s]
            if den_l > 0.0:
                rr = num_l / den_l
                if rr < best_l:
                    best_l = rr
                    kl = k
            if den_r > 0.0:
                rr = num_r / den_r
                if rr > best_r:
                    best_r = rr
                    kr = k
        yl = best_l
        yr = best_r
        fx = 0.5 * (yl + yr)
        diff = fx - y[j]
        err += 0.5 * diff * diff
        r = diff / n

        den_a = 0.0
        den_b = 0.0
        for s in range(d):
            den_a += up_s[s] if s < kl else lo_s[s]
            den_b += up_s[s] if s >= kr else lo_s[s]
        for s in range(d):
            o = order[s]
            a_s = up_s[s] if s < kl else lo_s[s]
            b_s = up_s[s] if s >= kr else lo_s[s]
            gc[o] += r * 0.5 * (a_s / den_a + b_s / den_b)
            da = 0.5 * (cs[s] - yl) / den_a
            db = 0.5 * (cs[s] - yr) / den_b
            cu = 0.0
            cl = 0.0
            if s < kl:
                cu += da * up_s[s]
            else:
                cl += da * lo_s[s]
            if s >= kr:
                cu += db * up_s[s]
            else:
                cl += db * lo_s[s]
            cu *= r
            cl *= r
            for f_ in range(g):
                zx = x[j, f_] - means[o, f_]
                su = sig_up[o, f_]
                sl = sig_lo[o, f_]
                gm[o, f_] += cu * zx / (su * su) + cl * zx / (sl * sl)
                gsu[o, f_] += cu * zx * zx / (su * su * su)
                gsl[o, f_] += cl * zx * zx / (sl * sl * sl)
    return gm, gsl, gsu, gc, err / n


@dataclass(frozen=True)
class GaussianT1Set:
    mean: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")


@dataclass(frozen=True)
class IT2GaussianSet:
    mean: float
    sigma_lower: float
    sigma_upper: float

    def __post_init__(self):
        if not (0.0 < self.sigma_lower <= self.sigma_upper):
            raise ValueError(
                "need 0 < sigma_lower <= sigma_upper, got "
                f"({self.sigma_lower}, {self.sigma_upper})"
            )
        if not math.isfinite(self.mean) or not math.isfinite(self.sigma_upper):
            raise ValueError("set parameters must be finite")


@dataclass(frozen=True)
class MembershipInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid membership interval ({self.lower}, {self.upper})")


def t1_membership(fset: GaussianT1Set, x):
    """Gaussian membership grade of x; accepts a scalar or an array."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("membership input must be finite")
    z = (x - fset.mean) / fset.sigma
    out = np.exp(-0.5 * z * z)
    return float(out) if out.ndim == 0 else out


def it2_membership(fset: IT2GaussianSet, x: float) -> MembershipInterval:
    """Membership interval of x: boundary Gaussians at sigma_lower / sigma_upper."""
    if not math.isfinite(x):
        raise ValueError("membership input must be finite")
    z = (x - fset.mean)
    lo = math.exp(-0.5 * (z / fset.sigma_lower) ** 2)
    up = math.exp(-0.5 * (z / fset.sigma_upper) ** 2)
    return MembershipInterval(lo, up)


def it2_membership_grid(fset: IT2GaussianSet, xs: np.ndarray):
    """Lower/upper membership arrays over a grid of points."""
    xs = np.asarray(xs, dtype=float)
    z = xs - fset.mean
    lo = np.exp(-0.5 * (z / fset.sigma_lower) ** 2)
    up = np.exp(-0.5 * (z / fset.sigma_upper) ** 2)
    return lo, up


def set_centroid_interval(
    fset: IT2GaussianSet,
    support: tuple[float, float] | None = None,
    resolution: int = 201,
):
    """Centroid interval of the set via Karnik-Mendel over a discretized support.

    The support defaults to mean +/- 4 sigma_upper.  Returns the engine's
    TypeReducedInterval; its crisp value is the interval midpoint.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if support is None:
        half = 4.0 * fset.sigma_upper
        support = (fset.mean - half, fset.mean + half)
    a, b = float(support[0]), float(support[1])
    if not (a < b) or not (a <= fset.mean <= b):
        raise ValueError(f"degenerate support ({a}, {b}) for mean {fset.mean}")
    xs = np.linspace(a, b, resolution)
    lo, up = it2_membership_grid(fset, xs)
    return km_reduce(np.column_stack([lo, up]), xs)
