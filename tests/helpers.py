import mpmath


def rel_err(a, b):
    """|a - b| / |b| as an mpf; b must be nonzero."""
    a = mpmath.mpc(a)
    b = mpmath.mpc(b)
    return abs(a - b) / abs(b)


def direct_g(rat, z):
    """g(z) as the plain partial-fraction sum over every pole, in stored
    order: the second route for the library's block-moment series."""
    z = mpmath.mpc(z)
    total = mpmath.mpc(0)
    for p, u in zip(rat.poles, rat.residues):
        total += u / (z - p)
    return total
