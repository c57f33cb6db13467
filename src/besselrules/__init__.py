"""Sum rules for products of Bessel functions of the first kind.

Exact coefficient polynomials, closed-form and brute-force sum-rule
evaluation, and the frequency-modulated oscillator absorption application,
with a file-emitting CLI front end.  The package exports each module's
__all__, in the order below.
"""

from besselrules.bessel_core import *
from besselrules.coefficients import *
from besselrules.sum_rules import *
from besselrules.modulation_spectroscopy import *
from besselrules import bessel_core, coefficients, modulation_spectroscopy, sum_rules

__all__ = [
    *bessel_core.__all__,
    *coefficients.__all__,
    *sum_rules.__all__,
    *modulation_spectroscopy.__all__,
]

__version__ = "0.1.0"
