"""Synthetic on-shell pairs of the generalized model at large a + b.

The generalized model leaves the vacuum ratios r1, r3 free.  Any two root
configurations are therefore on shell for a model whose r1 (r3) takes the
values the Bethe equations prescribe at the u-roots (v-roots) of both
states.  Here r1 and r3 are the polynomial interpolants through those
values, in barycentric form, with exact logarithmic derivatives.
"""

from __future__ import annotations

import numpy as np

from gl3ff import kernel, model as mdl

C = 1.0 + 0.0j


class Interpolant:
    """Polynomial through (nodes[k], values[k]) in barycentric form."""

    def __init__(self, nodes, values):
        self.x = np.asarray(nodes, dtype=complex)
        self.y = np.asarray(values, dtype=complex)
        diff = self.x[:, None] - self.x[None, :]
        np.fill_diagonal(diff, 1.0)
        self.w = 1.0 / diff.prod(axis=1)

    def _node(self, z):
        hit = np.nonzero(self.x == z)[0]
        return int(hit[0]) if hit.size else None

    def __call__(self, z: complex) -> complex:
        if self.x.size == 0:
            return 1.0 + 0.0j
        k = self._node(z)
        if k is not None:
            return complex(self.y[k])
        q = self.w / (z - self.x)
        return complex(np.dot(q, self.y) / q.sum())

    def derivative(self, z: complex) -> complex:
        if self.x.size < 2:
            return 0.0 + 0.0j
        k = self._node(z)
        if k is not None:
            d = self.x[k] - self.x
            d[k] = 1.0
            terms = (self.w / self.w[k]) * (self.y - self.y[k]) / d
            terms[k] = 0.0
            return complex(terms.sum())
        q = self.w / (z - self.x)
        p = np.dot(q, self.y) / q.sum()
        return complex(np.dot(q / (z - self.x), p - self.y) / q.sum())

    def dlog(self, z: complex) -> complex:
        return self.derivative(z) / self(z)


def r1_targets(u, v, c=C):
    """Values r1(u_j) that put the u-roots of (u, v) on shell."""
    return [kernel.f_prod(u[j], kernel.exclude(u, j), c)
            * kernel.f_prod(v, u[j], c)
            / kernel.f_prod(kernel.exclude(u, j), u[j], c)
            for j in range(len(u))]


def r3_targets(u, v, c=C):
    """Values r3(v_j) that put the v-roots of (u, v) on shell."""
    return [kernel.f_prod(kernel.exclude(v, j), v[j], c)
            * kernel.f_prod(v[j], u, c)
            / kernel.f_prod(v[j], kernel.exclude(v, j), c)
            for j in range(len(v))]


def pair_model(left: mdl.RootConfig, right: mdl.RootConfig,
               c=C) -> mdl.ModelFunctions:
    """Generalized model for which both configurations are on shell."""
    p1 = Interpolant(left.u + right.u,
                     r1_targets(left.u, left.v, c) + r1_targets(right.u, right.v, c))
    p3 = Interpolant(left.v + right.v,
                     r3_targets(left.u, left.v, c) + r3_targets(right.u, right.v, c))
    return mdl.ModelFunctions(c=c, r1=p1, r3=p3, dlog_r1=p1.dlog,
                              dlog_r3=p3.dlog, description="interpolated pair")
