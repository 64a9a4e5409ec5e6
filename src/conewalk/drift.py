"""The one-step expectation operator f -> E[f(x + X)] - f(x) applied
symbolically to polynomials through the Taylor/moment expansion, plus an
independent finite-sum checker over a walk's actual support."""

from __future__ import annotations

import math

from .errors import InsufficientMoments, integer
from .poly import Poly, laplacian
from .scalars import exact_poly_sum, field_of
from .walks import MomentTable, WalkSpec, _image


def drift_expansion(f: Poly, mu: MomentTable) -> Poly:
    """E[f(x+X)] - f(x), using normalized moments: first-order terms vanish,
    second-order terms reduce to half the Laplacian, and orders 3..deg(f)
    contribute (1/(k! l!)) * d^(k+l) f / dx1^k dx2^l * E[X1^k X2^l].

    The order-1 and order-2 terms are never computed and cancelled; they are
    omitted analytically, which keeps float backends free of cancellation."""
    n = f.degree()
    if n > mu.order:
        raise InsufficientMoments(f"degree {n} needs moments of order >= {n}, have {mu.order}")
    lap = laplacian(f)
    half = lap.map_coeffs(lambda c: c / 2)
    rem = Poly.zero()
    for total in range(3, n + 1):
        for k in range(total + 1):
            l = total - k
            d = f.diff(1, k).diff(2, l)
            if d.is_zero():
                continue
            wkl = mu(k, l) / (math.factorial(k) * math.factorial(l))
            rem = rem + d.map_coeffs(lambda c: c * wkl)
    return half + rem


def one_step_residual(h: Poly, w: WalkSpec, y: tuple[int, int]):
    """Exact finite sum  sum_atoms p * h(T(y+dy)) - h(T y)  at a quadrant
    lattice point y; zero iff h is one-step harmonic there.  This is the
    independent oracle for the symbolic expansion.  The lattice images are
    taken in the field of the walk's cone, or in the float field of h's
    coefficients when h is a float polynomial (scalars.field_of), as it is
    when h was built for another opening than the walk's own.

    On exact fields an image T(y+dy) is T y plus the atom's T dy
    (WalkSpec.jumps), and h's coefficients, the 1 + #atoms images and the
    atom probabilities go into one integer sum (:func:`exact_poly_sum`).
    On float fields each image is T(y+dy), and the terms are added in the
    order written above.  ValidationError for a y that is no pair of
    integers."""
    y = tuple(integer(v, "lattice point") for v in y)
    backend = field_of(h.terms.values(), w.cone.backend)
    if backend.exact:
        x1, x2 = _image(w, y, backend)
        points = [(x1, x2)] + [(x1 + d1, x2 + d2) for d1, d2 in w.jumps]
    else:
        y1, y2 = y
        points = [_image(w, y, backend)] + [_image(w, (y1 + a, y2 + b), backend) for a, b, _ in w.atoms]
    weights = [-1] + [p for _, _, p in w.atoms]
    acc = exact_poly_sum(h.terms, points, weights)
    if acc is not None:
        return acc
    acc = -h.evaluate(*points[0])
    for p, point in zip(weights[1:], points[1:]):
        acc = acc + p * h.evaluate(*point)
    return acc
