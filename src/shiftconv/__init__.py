"""shiftconv: experiments on shifted convolution sums of automorphic coefficients.

Submodules:
    arith      exact modular arithmetic, Kloosterman/Ramanujan sums
    coeffs     Hecke eigenvalue tables (weight-12 form and its symmetric square)
    charsums   composite character sums, closed forms and bound censuses
    circle     overlapping-interval circle-method approximant
"""

__version__ = "0.1.0"
