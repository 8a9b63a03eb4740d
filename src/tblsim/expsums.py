"""Values, sign changes, first rises and extremes of exponential sums.

Within one regime segment a valve margin, a balloon's distance from a mode
edge and a probe pressure each have the form ``f(τ) = c + r τ + Σ_j b_j
e^(λ_j τ)`` with every ``λ`` at most 0. These functions evaluate such a
sum and locate where it changes sign, first rises through 0 and peaks on
``[0, h]``, with no step size, through one sign-change search
(``_zeros``): the zeros of ``f'``, a sum of one term fewer, split ``[0,
h]`` into pieces on which ``f`` is monotone, and each sign change is then
bracketed and refined by regula falsi. A first rise is one of those sign
changes, and the extremes lie at zeros of ``f'``. The engine imports
them; they know nothing of networks.

Stacked sums take ``b`` and ``lam`` as rows by terms, rates per row.
"""

from __future__ import annotations

import math

import numpy as np


def _root(g, lo, hi, glo, ghi) -> float:
    """A zero of ``g`` where it changes sign between ``lo`` and ``hi``, by
    the Illinois variant of regula falsi; a secant point that rounds onto
    an end moves one float inside. Returns the last bracket's end on the
    side of ``hi``, once its ends are adjacent floats."""
    side = 0
    for _ in range(100):
        if ghi == glo:  # both underflowed to 0
            break
        t = (lo * ghi - hi * glo) / (ghi - glo)
        t = min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < t < hi:
            break
        gt = g(t)
        if (gt < 0.0) == (ghi < 0.0):
            hi, ghi, glo, side = t, gt, 0.5 * glo if side == 1 else glo, 1
        else:
            lo, glo, ghi, side = t, gt, 0.5 * ghi if side == -1 else ghi, -1
    return hi


def _zeros(c, r, b: np.ndarray, lam: np.ndarray, h: float) -> list[float]:
    """The times in ``(0, h)`` at which ``f(τ) = c + r τ + Σ_j b_j e^(λ_j τ)``
    changes sign, in order, for distinct, nonzero, descending ``lam``: at
    most ``len(b) + 1`` (Pólya & Szegő). The zeros of ``f'`` split ``(0, h)``
    into pieces on which ``f`` is monotone, and ``f'`` is a sum of one term
    fewer: ``r + Σ_j b_j λ_j e^(λ_j τ)``, or where ``r`` is 0, ``e^(λ_0 τ)
    (b_0 λ_0 + Σ_{j>0} b_j λ_j e^((λ_j - λ_0) τ))``. One exponential alone
    has its zero in closed form (``_one_zero``)."""
    keep = b != 0.0  # a term may underflow to 0
    b, lam = b[keep], lam[keep]
    if not r and len(b) <= 1:
        return _one_zero(c, b[0], lam[0], h) if len(b) else []
    turns = (_zeros(r, 0.0, b * lam, lam, h) if r else
             _zeros(b[0] * lam[0], 0.0, b[1:] * lam[1:], lam[1:] - lam[0], h))
    cuts = [0.0, *turns, h]

    def f(t):
        return c + r * t + b @ np.exp(lam * t)

    ends = [f(t) for t in cuts]
    return [_root(f, lo, hi, flo, fhi) for lo, hi, flo, fhi in zip(cuts, cuts[1:], ends, ends[1:])
            if (flo < 0.0) != (fhi < 0.0)]


def _one_zero(c, b, lam, h) -> list[float]:
    """The time in ``(0, h)`` at which ``c + b e^(λ τ)`` changes sign, as
    a list of none or one: ``log(-c/b)/λ``, where ``c`` and ``b`` are
    nonzero and of opposite signs."""
    t = 0.0
    if b and c and (c < 0.0) != (b < 0.0):
        t = (math.log(abs(c)) - math.log(abs(b))) / lam
    return [t] if 0.0 < t < h else []


def _distinct(b: np.ndarray, lam: np.ndarray):
    """The terms ``b_j e^(λ_j τ)`` summed by rate, zero terms left out:
    ``(b, lam)`` with distinct ``lam`` in descending order."""
    keep = b != 0.0
    lam, at = np.unique(lam[keep], return_inverse=True)
    return np.bincount(at, b[keep], minlength=len(lam))[::-1], lam[::-1]


def _horizon(c, r, b: np.ndarray, lam: np.ndarray) -> float:
    """A time past which ``f(τ) = c + r τ + Σ_j b_j e^(λ_j τ)``, every
    ``λ`` below 0 and the slowest first, keeps its sign: where the line
    outgrows the exponentials' total ``s``, or else where they have decayed
    under ``|c| / 2``, or under ``s`` times the float spacing where that is
    larger; the ratio is bounded directly, as ``eps * s`` underflows to 0
    for a subnormal ``s``."""
    s = float(np.abs(b).sum())
    if r:
        return 2.0 * (abs(c) + s) / abs(r)
    if not s:
        return 0.0
    ratio = min(s / (0.5 * abs(c)) if c else math.inf, 1.0 / np.finfo(float).eps)
    return max(math.log(ratio) / -lam[0], 0.0)


def _first_rise(c, r, b: np.ndarray, lam: np.ndarray, h: float, f0) -> float:
    """The least ``τ`` in ``[0, h]`` at which ``f(τ) = c + r τ + Σ_j b_j
    e^(λ_j τ)`` rises from below 0 to 0 or above, or inf. ``f0`` stands for
    ``f(0)``; where it is below 0 and ``f(0)`` is not, the rise is at 0.
    Otherwise it is a sign change of ``f`` (``_zeros``): they alternate, so
    it is the first where ``f(0)`` is below 0, else the second, whatever
    ``f0``. An infinite ``h`` is searched up to ``_horizon``, past which
    ``f`` cannot rise, where ``r`` is nonzero or ``f`` has two terms or
    more; one exponential alone crosses in closed form (``_one_zero``),
    however late, as in ``_first_rises``."""
    b, lam = _distinct(b, lam)
    if h == math.inf and (r or len(b) > 1):
        h = _horizon(c, r, b, lam)
    at0 = c + r * 0.0 + b @ np.exp(lam * 0.0)  # f(0) as _zeros evaluates it
    if f0 < 0.0 <= at0:
        return 0.0
    rises = _zeros(c, r, b, lam, h)[0 if at0 < 0.0 else 1 :: 2]  # sign changes alternate
    return rises[0] if rises else math.inf


def _first_rises(c, b, lam, h, f0, r=None) -> np.ndarray:
    """``_first_rise`` of each row ``c_i + r_i τ + Σ_j b_ij e^(λ_ij τ)``,
    with ``f0`` per row; ``r`` None stands for 0 on every row. Every ``λ``
    is at most 0, so a row of one exponential and no ``r`` rises only
    toward ``c > 0``, at ``(log(c) - log(-b))/λ``, where ``f0`` is below
    0: those rows alone are gathered, and that closed form, 0 where it is
    negative and inf past ``h``, is taken for all of them at once; a row
    of one exponential that does not rise so is inf. Of the other rows,
    one that cannot reach 0 is skipped, and ``_first_rise`` takes the
    rest. ``h`` may be inf."""
    nonzero = b != 0.0
    one = np.add.reduce(nonzero, axis=1) == 1
    if r is not None:
        one &= r == 0.0
    bi = np.add.reduce(b, axis=1)  # a row's one term, where it has one
    # f0 < 0, b < 0 and c > 0, a NaN in none of them: λ < 0, so a rise toward c > 0
    rise = (one & (np.maximum(np.maximum(f0, bi), -c) < 0.0)).nonzero()[0]
    t = np.empty(len(c))
    t.fill(math.inf)
    if len(rise):
        ti = (np.log(c[rise]) - np.log(-bi[rise])) / lam[rise, nonzero[rise].argmax(axis=1)]
        ti[~(ti <= h)] = math.inf  # past h, or NaN
        t[rise] = np.maximum(ti, 0.0)
    if not np.logical_and.reduce(one):
        reach = c + np.add.reduce(np.abs(b), axis=1)
        if r is not None:
            reach += np.maximum(r, 0.0) * h if h < math.inf else np.where(r > 0.0, math.inf, 0.0)
        for k in ((reach >= 0.0) & ~one).nonzero()[0].tolist():
            t[k] = _first_rise(c[k], 0.0 if r is None else r[k], b[k], lam[k], h, f0[k])
    return t


def _values(c, b: np.ndarray, lam: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``c + Σ_j b_j e^(λ_j τ)`` at each of the times ``taus``: one value
    per time for a 1-D ``b`` and ``lam``; for 2-D ones, rows by terms, one
    sum per row of them and of ``c``, as one row per time."""
    return c + np.vecdot(np.exp(np.multiply.outer(taus, lam)), b)


def _extremes(c: float, b: np.ndarray, lam: np.ndarray, h: float) -> tuple[float, float]:
    """The least and the greatest value of ``c + Σ_j b_j e^(λ_j τ)``,
    summed by rate (``_distinct``), over ``[0, h]``: each lies at an end or
    at a zero of the derivative."""
    v = _values(c, b, lam, np.array([0.0, *_zeros(0.0, 0.0, b * lam, lam, h), h]))
    return float(v.min()), float(v.max())
