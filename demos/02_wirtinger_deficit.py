"""The chord-square deficit, computed two independent ways.

For a closed curve of length 2*pi the mean-square chord at shift s is
bounded by lambda^2(s) = (2 sin(s/2))^2 times the derivative energy.
The deficit is zero exactly on the family a0 + (cos t) a + (sin t) b:
uniform-parameter ellipses and doubly covered segments.  This script
shows the deficit profile from the Fourier series and from direct
vertex sums, and the equality family.
"""

import numpy as np

from chordenergy import (
    analyze,
    deficit,
    deficit_direct,
    ellipse_uniform_parameter,
    make_circle,
    random_closed_curve,
)

curve = random_closed_curve(7, n=512)
fc = analyze(curve)
profile = deficit(fc)
direct = deficit_direct(curve, np.arange(1, curve.n))

print("random curve, deficit at a few shifts:")
for k in (32, 128, 256, 384):
    s = profile.s[k - 1]
    print(f"  s={s:5.3f}  series={profile.rho[k-1]:.6f}  "
          f"direct={direct[k-1]:.6f}")
print(f"max |series - direct| = {np.abs(profile.rho - direct).max():.2e}")
print(f"min deficit over the grid = {profile.rho.min():.3e}  (never negative)")

print("\nequality family:")
circle = make_circle(512)
print(f"  circle:          max |rho| = {deficit(analyze(circle)).max_abs():.2e}")
ellipse = ellipse_uniform_parameter([0, 0], [2, 0], [0, 1], 512)
print(f"  uniform ellipse: max |rho| = {deficit(analyze(ellipse)).max_abs():.2e}")
# the *unit-speed* ellipse is NOT extremal: the equality family is a
# statement about the mapping, not the trace
from chordenergy import make_ellipse  # noqa: E402

arclength_ellipse = make_ellipse(2, 512)
print(f"  unit-speed ellipse: max rho = "
      f"{deficit(analyze(arclength_ellipse)).rho.max():.4f}  (positive)")
