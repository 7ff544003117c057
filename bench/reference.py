"""Computations made apart from stokesgeo, used to check its outputs.

Only numpy is used here, and nothing is imported from stokesgeo:

* ``sqrt_p_integral`` integrates sqrt(P) along a polyline that runs from
  one root of P to another, with Gauss-Legendre nodes on every chord, the
  branch of the square root continued by sign matching from node to node,
  and the square-root singularity at each end removed by the substitution
  z = r + (z1 - r) u^2.
* ``collocation_eigenvalues`` solves -y'' = -lambda^2 P y on the line
  z = s e^{i theta}, |s| <= S, with y = 0 at both ends, by Chebyshev
  collocation, and keeps the eigenvalues that two resolutions agree on.

Run ``python3 bench/reference.py`` to print the reference eigenvalues of
the cubic used by the ``wronskian_spectrum`` workload.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL_U = 0.5 * (_GL_X + 1.0)          # nodes on [0, 1], ascending
_GL_WU = 0.5 * _GL_W


def sqrt_p_integral(coeffs, polyline) -> complex:
    """Integral of sqrt(P) dz along ``polyline``, whose first and last
    vertices are simple roots of P; the overall sign (branch) is arbitrary.
    ``coeffs`` are highest degree first."""
    c = np.asarray(coeffs, dtype=complex)
    v = np.asarray(polyline, dtype=complex)
    if len(v) < 3:
        v = np.array([v[0], 0.5 * (v[0] + v[-1]), v[-1]])
    r0, z1 = v[0], v[1]
    r1, z0 = v[-1], v[-2]
    u = _GL_U
    # sample points in path order: head chord (root outward), the regular
    # chords, tail chord (inward to the root)
    head = r0 + (z1 - r0) * u * u
    a, b = v[1:-2], v[2:-1]
    mid = (a[:, None] + (b - a)[:, None] * u[None, :]).ravel()
    tail = r1 + (z0 - r1) * (u * u)[::-1]
    pts = np.concatenate([head, mid, tail])
    w = np.sqrt(np.polyval(c, pts))
    flips = np.real(w[1:] * np.conj(w[:-1])) < 0.0
    sign = np.concatenate([[1.0], np.where(np.cumsum(flips) % 2 == 1, -1.0, 1.0)])
    w = w * sign
    nh, nm = len(head), len(mid)
    wh, wm, wt = w[:nh], w[nh:nh + nm], w[nh + nm:]
    total = np.sum(_GL_WU * wh * 2.0 * (z1 - r0) * u)
    if len(a):
        total += np.sum((b - a) * (wm.reshape(len(a), -1) @ _GL_WU))
    # tail: z = r1 + (z0 - r1) u^2 runs from z0 (u = 1) down to r1 (u = 0)
    total -= np.sum(_GL_WU[::-1] * wt * 2.0 * (z0 - r1) * u[::-1])
    return complex(total)


def _cheb(n: int):
    """Chebyshev points cos(pi j / n) and the differentiation matrix."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    cw = np.ones(n + 1)
    cw[0] = cw[-1] = 2.0
    cw = cw * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(cw, 1.0 / cw) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


def _collocation(coeffs, theta, half_length, n):
    x, d = _cheb(n)
    s = half_length * x
    d2 = (d @ d)[1:-1, 1:-1] / half_length ** 2
    z = s[1:-1] * np.exp(1j * theta)
    m = np.exp(2j * theta) * np.polyval(np.asarray(coeffs, dtype=complex), z)
    mu = np.linalg.eigvals(d2 / m[:, None])
    lam = np.sqrt(mu.astype(complex))
    return np.where(lam.real < 0.0, -lam, lam)


def collocation_eigenvalues(coeffs, rect, theta=-0.6,
                            resolutions=((200, 6.0), (300, 7.0)),
                            agree=1e-9) -> list[complex]:
    """Eigenvalues of y'' = lambda^2 P y, y(+-S e^{i theta}) = 0, inside
    ``rect`` = (re_lo, re_hi, im_lo, im_hi), kept only where the listed
    (n, S) resolutions agree to ``agree`` relative; sorted by modulus."""
    re0, re1, im0, im1 = rect

    def inside(z):
        return re0 <= z.real <= re1 and im0 <= z.imag <= im1

    sets = [[complex(z) for z in _collocation(coeffs, theta, s_max, n)
             if inside(z)] for n, s_max in resolutions]
    out = []
    for z in sets[-1]:
        if all(any(abs(z - y) <= agree * (1.0 + abs(z)) for y in other)
               for other in sets[:-1]):
            out.append(z)
    return sorted(out, key=abs)


CUBIC = (1.0, 0.0, 0.3 + 0.2j, -1.0)

if __name__ == "__main__":
    for z in collocation_eigenvalues(CUBIC, (1.5, 6.5, 1.0, 5.5)):
        print(f"{z.real:.12f}{z.imag:+.12f}i")
