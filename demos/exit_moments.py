"""Walkthrough: exact exit-time and exit-position moments.

The diagonal built-in walk has correlation -1/2 and maps onto the
opening-pi/3 wedge; its expected exit time from quadrant point (y1, y2)
is exactly 2*y1*y2.
"""

from conewalk import (
    diagonal_walk,
    exit_position_moments,
    first_moment_poly,
    push_moments,
    tau_moment_poly,
)
from conewalk.errors import MomentNotFinite

w = diagonal_walk()
cone = w.cone
print(f"wedge opening pi/{cone.m}, slope b = {cone.b}, pi/alpha = {cone.p_alpha:g}")

mu = push_moments(w, 2)
g1 = tau_moment_poly(1, cone, mu).G
print("\nE[tau] as a polynomial of the start:", g1)
print("same thing directly:", first_moment_poly(cone))

print("\npulled back to quadrant lattice points (E[tau] = 2*y1*y2):")
for y in ((1, 1), (2, 1), (3, 4)):
    print(f"  start {y}: E[tau] = {g1.evaluate(*w.map_point(*y))}")

from conewalk import format_scalar

x = w.map_point(1, 1)
ep = exit_position_moments(cone, x)
print(f"\nexit position from x = ({format_scalar(x[0])}, {format_scalar(x[1])}):")
print("  means:", ep.mean1, ",", ep.mean2, "(the start itself)")
print("  second moments:", ep.second1, ",", ep.second2)

print("\nthe second exit-time moment is genuinely infinite here (pi/alpha = 3 < 4):")
try:
    tau_moment_poly(2, cone, push_moments(w, 4))
except MomentNotFinite as e:
    print("  MomentNotFinite:", e)
