"""Thresholds that more than one module uses for the same decision.

Each verdict of the lab compares a residual with one of these.  Self-checks
made at a single site (root residuals, the Crofoot drift, the Clark residuals)
keep their bound where they are made, and the bounds of the verify battery
live in ``verify.CHECKS``.
"""

# Relative verdict threshold: membership (times ||A||), type, product,
# commutant, inverse and unitarity decisions.
VERDICT_TOL = 1e-8
# Relative agreement of two type values alpha.
TYPE_TOL = 1e-6
# Margin inside (or outside) the unit circle for zeros, alpha and lambda.
DISC_MARGIN = 1e-12
# A point with ||z| - 1| <= ON_CIRCLE_TOL is on the circle.
ON_CIRCLE_TOL = 1e-10
# A denominator below POLE_TOL (times its scale) is a pole.
POLE_TOL = 1e-14
# The quadrature grid doubles until the basis Gram matrix is the identity to
# GRAM_TOL, and is refused above GRAM_TOL_FLOOR.
GRAM_TOL = 1e-12
GRAM_TOL_FLOOR = 1e-10
