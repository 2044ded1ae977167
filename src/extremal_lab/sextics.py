"""The two hand-entered sextics of the three-point slice, as plain data.

Keys are (alpha, beta, delta) exponents and values integer coefficients.
VARIANCE is D, the variance sextic of the torus moment function, and
NUMERATOR is N of the closed form A|_P / 96 pi^2 = N / D.  `energy` wraps
both as Polynomials; the scan reads them at beta = 1 directly, so a scan
loads no exact arithmetic.  The module imports nothing.
"""

# The beta^4*alpha*delta coefficient of D is re-derived by
# energy.solve_unknown_coefficient (expected 276), and both tables are pinned
# down by the exact identity in energy.verify_identity.
VARIANCE = {
    (0, 0, 6): 1, (0, 1, 5): 12, (0, 2, 4): 54, (0, 3, 3): 120,
    (0, 4, 2): 138, (0, 5, 1): 72, (0, 6, 0): 12,
    (1, 0, 5): 6, (1, 1, 4): 60, (1, 2, 3): 216, (1, 3, 2): 360,
    (1, 4, 1): 276, (1, 5, 0): 72,
    (2, 0, 4): 6, (2, 1, 3): 48, (2, 2, 2): 144, (2, 3, 1): 192,
    (2, 4, 0): 96,
}

NUMERATOR = {
    (0, 6, 0): 32, (1, 5, 0): 160, (0, 5, 1): 176, (0, 4, 2): 318,
    (2, 4, 0): 136, (1, 4, 1): 536, (3, 3, 0): 32, (0, 3, 3): 280,
    (1, 3, 2): 696, (2, 3, 1): 320, (1, 2, 3): 440, (2, 2, 2): 276,
    (3, 2, 1): 48, (0, 2, 4): 132, (0, 1, 5): 32, (2, 1, 3): 104,
    (3, 1, 2): 24, (1, 1, 4): 136, (3, 0, 3): 4, (2, 0, 4): 14,
    (1, 0, 5): 16, (0, 0, 6): 3,
}
