"""shiftconv: experiments on shifted convolution sums of automorphic coefficients.

Submodules:
    arith      primes, units and the Kloosterman row
    coeffs     Hecke eigenvalue tables (weight-12 form and its symmetric square)
    charsums   composite character sums, closed forms and bound censuses
    circle     overlapping-interval circle-method approximant
    reports    column-stored experiment reports, written as JSON lines
    errors     the ShiftconvError hierarchy raised on bad input
    util       the JSON default for numpy values and the config hash
"""

__version__ = "0.1.0"
