"""Degree arithmetic shared by the solution side (pellcore) and the tuple
side (hurwitz).  It imports nothing, so a tuple command does not load the
polynomial modules to read it."""


def admissible_exponents(n: int, d: int) -> list[int]:
    """The exponents m >= 2 for which a solution with deg A = n and
    deg D = 2d can be an m-th power: m divides n and the root keeps
    degree n/m >= d."""
    return [m for m in range(2, n + 1) if n % m == 0 and n // m >= d]
