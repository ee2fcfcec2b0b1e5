"""Branched-cover permutation tuples: validation, the staircase example
family, power testing by residues, and normalization.

A tuple acts on 2n points.  Its product is read in application order (the
first entry acts first); the monodromy entries are sigma0, sigmaInf, sigma1
and up to d-1 extra transposition-like factors taus.  The special form fixes
sigmaInf to the standard descending cycle (i maps to i-1, 1 to 2n) and puts
2n among the points fixed by sigma1 and every tau.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import permgroup as pg
from .pellcore import admissible_exponents
from .permgroup import Perm


# Largest n read from tuple JSON or built by zannier_tuple: every entry is an
# image list of 2n points, built before any check can look at the tuple.
MAX_TUPLE_N = 100_000


class DegreeOrder(ValueError):
    """Constructor needs n >= d >= 2."""


class NotSpecialForm(ValueError):
    """Operation needs a tuple in special (normalized) form."""


@dataclass(frozen=True)
class HurwitzTuple:
    sigma0: Perm
    sigmaInf: Perm
    sigma1: Perm
    taus: tuple[Perm, ...]
    n: int
    d: int

    def gens(self) -> list[Perm]:
        return [self.sigma0, self.sigmaInf, self.sigma1, *self.taus]

    @property
    def points(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    over_zero: int
    over_one: int
    over_infinity: int
    over_taus: int

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def standard_cycle(N: int) -> Perm:
    """The descending N-cycle: i to i-1, 1 to N."""
    return Perm([N] + list(range(1, N)))


def is_special(t: HurwitzTuple) -> bool:
    """sigmaInf is the standard cycle and 2n is fixed by sigma1 and every tau."""
    N = t.points
    return t.sigmaInf == standard_cycle(N) and all(
        p.size >= N and p(N) == N for p in (t.sigma1, *t.taus)
    )


def common_fixed(t: HurwitzTuple) -> frozenset[int]:
    """Indices fixed by sigma1 and every tau."""
    fixed = pg.fixed_points(t.sigma1)
    for tau in t.taus:
        fixed &= pg.fixed_points(tau)
    return fixed


def validate(t: HurwitzTuple) -> ValidationReport:
    """One pass/fail entry per structural invariant, plus the branching
    spent over each branch point."""
    checks: list[CheckResult] = []
    N = t.points

    sizes = {p.size for p in t.gens()}
    size_ok = sizes == {N} and t.n >= 1 and t.d >= 1
    checks.append(
        CheckResult("SizeConsistent", size_ok, f"sizes {sorted(sizes)}, expected {{{N}}}")
    )
    if not size_ok:
        return ValidationReport(tuple(checks), 0, 0, 0, 0)

    k = len(t.taus)
    checks.append(CheckResult("TauCount", k <= t.d - 1, f"k = {k}, bound {t.d - 1}"))

    product = pg.chain(t.gens())
    checks.append(
        CheckResult(
            "ProductIdentity",
            product == pg.identity(N),
            f"product = {pg.format_cycles(product)}",
        )
    )

    checks.append(
        CheckResult("Transitive", pg.is_transitive(t.gens(), N), "orbit of the generators")
    )

    checks.append(
        CheckResult(
            "InfinityFullCycle",
            pg.is_full_cycle(t.sigmaInf),
            f"cycle type {pg.cycle_type(t.sigmaInf)}",
        )
    )

    zero_cycles = pg.cycles(t.sigma0)
    zero_even = all(len(c) % 2 == 0 for c in zero_cycles) and not pg.fixed_points(t.sigma0)
    checks.append(
        CheckResult(
            "ZeroEvenCycles",
            zero_even,
            f"cycle type {pg.cycle_type(t.sigma0)}, fixed {sorted(pg.fixed_points(t.sigma0))}",
        )
    )

    one_even = all(len(c) % 2 == 0 for c in pg.cycles(t.sigma1))
    checks.append(
        CheckResult("OneEvenCycles", one_even, f"cycle type {pg.cycle_type(t.sigma1)}")
    )

    fix1 = pg.fixed_points(t.sigma1)
    checks.append(
        CheckResult(
            "FixedPointCount",
            len(fix1) == 2 * t.d,
            f"sigma1 fixes {len(fix1)} points, expected {2 * t.d}",
        )
    )

    over_zero = pg.branching(t.sigma0)
    over_one = pg.branching(t.sigma1)
    over_inf = pg.branching(t.sigmaInf)
    over_taus = sum(pg.branching(tau) for tau in t.taus)
    total = over_zero + over_one + over_inf + over_taus
    checks.append(
        CheckResult(
            "TotalBranching", total == 4 * t.n - 2, f"total {total}, expected {4 * t.n - 2}"
        )
    )

    return ValidationReport(tuple(checks), over_zero, over_one, over_inf, over_taus)


def zannier_tuple(n: int, d: int) -> HurwitzTuple:
    """The staircase family: sigma0 folds i with 2n+1-i, sigma1 folds i with
    2n-i down to depth n-d, and tau_i = (n-i, n+i)."""
    if not n >= d >= 2:
        raise DegreeOrder(f"need n >= d >= 2, got n={n}, d={d}")
    if n > MAX_TUPLE_N:
        raise ValueError(f"need n <= {MAX_TUPLE_N}, got n = {n}")
    N = 2 * n
    sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, n + 1)])
    sigma1 = Perm.from_cycles(N, [(i, N - i) for i in range(1, n - d + 1)])
    taus = tuple(Perm.from_cycles(N, [(n - i, n + i)]) for i in range(1, d))
    return HurwitzTuple(
        sigma0=sigma0,
        sigmaInf=standard_cycle(N),
        sigma1=sigma1,
        taus=taus,
        n=n,
        d=d,
    )


def power_test(t: HurwitzTuple, m: int) -> bool:
    """Whether the tuple behaves like an m-th power: mod 2m, sigma1 and sigma0
    act as the reflections x -> -x and x -> 1 - x, and every tau fixes each
    residue.  Equivalently, every entry maps the mod-2m residue blocks onto
    blocks with the label images of an m-th power.

    The n = 6 worked example: with tau = (3, 9), the tuple is a cube and no
    square.

    >>> N = 12
    >>> sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, 7)])
    >>> sigma1 = Perm.from_cycles(N, [(i, N - i) for i in (1, 2, 4, 5)])
    >>> cube = HurwitzTuple(sigma0, standard_cycle(N), sigma1,
    ...                     (Perm.from_cycles(N, "(3,9)"),), n=6, d=2)
    >>> [power_test(cube, m) for m in (1, 2, 3)]
    [True, False, True]
    """
    if not is_special(t):
        raise NotSpecialForm("power_test needs the special form")
    if m < 1:
        raise ValueError("power index must be >= 1")
    if m == 1:
        return True
    if m not in admissible_exponents(t.n, t.d):
        raise ValueError(f"m = {m} not admissible for n = {t.n}, d = {t.d}")
    N, m2 = t.points, 2 * m
    for p in t.gens():
        if p.size != N:
            raise pg.SizeMismatch(f"size {p.size} != {N}")
    # sigmaInf, the standard cycle x -> x - 1, lowers every residue by one
    # because 2m divides 2n.
    return (
        all((y + x) % m2 == 0 for x, y in enumerate(t.sigma1.images, 1))
        and all((y + x) % m2 == 1 for x, y in enumerate(t.sigma0.images, 1))
        and all((y - x) % m2 == 0 for tau in t.taus for x, y in enumerate(tau.images, 1))
    )


def primitivity_profile(t: HurwitzTuple) -> set[int]:
    """Admissible exponents m >= 2 passing power_test; empty means the tuple
    is combinatorially primitive."""
    return {m for m in admissible_exponents(t.n, t.d) if power_test(t, m)}


def normalize_special(t: HurwitzTuple) -> HurwitzTuple:
    """Conjugate into special form.  Special inputs come back unchanged;
    otherwise sigmaInf is rebased to the standard descending cycle and the
    smallest common fixed index is rotated into 2n."""
    if is_special(t):
        return t
    N = t.points
    if not pg.is_full_cycle(t.sigmaInf):
        raise ValueError("sigmaInf must be a full cycle")
    # gamma(N - k) = sigmaInf^k(N) conjugates sigmaInf to the standard cycle.
    images = [0] * N
    x = N
    for k in range(N):
        images[(N - k) - 1] = x
        x = t.sigmaInf(x)
    gamma = Perm(images)
    rebased = _map_tuple(t, lambda p: pg.conjugate(p, gamma))
    fixed = common_fixed(rebased)
    if not fixed:
        raise ValueError("no index is fixed by sigma1 and every tau")
    return _map_tuple(rebased, lambda p: pg.rotate(p, N - min(fixed)))


def _map_tuple(t: HurwitzTuple, f) -> HurwitzTuple:
    return HurwitzTuple(
        sigma0=f(t.sigma0),
        sigmaInf=f(t.sigmaInf),
        sigma1=f(t.sigma1),
        taus=tuple(f(tau) for tau in t.taus),
        n=t.n,
        d=t.d,
    )


# -- JSON form ----------------------------------------------------------------


def tuple_to_json_dict(t: HurwitzTuple) -> dict:
    return {
        "n": t.n,
        "d": t.d,
        "sigma0": pg.format_cycles(t.sigma0),
        "sigmaInf": pg.format_cycles(t.sigmaInf),
        "sigma1": pg.format_cycles(t.sigma1),
        "taus": [pg.format_cycles(tau) for tau in t.taus],
    }


def tuple_from_json_dict(data: dict) -> HurwitzTuple:
    try:
        n, d = data["n"], data["d"]
    except KeyError as exc:
        raise ValueError(f"tuple JSON missing field {exc}") from None
    # JSON integers only: bool is an int subclass, and int() would truncate 4.9.
    if type(n) is not int or type(d) is not int:
        raise ValueError(f"tuple JSON needs integer n and d, got n = {n!r}, d = {d!r}")
    if n < 1 or d < 1:
        raise ValueError(f"tuple JSON needs n >= 1 and d >= 1, got n = {n}, d = {d}")
    if n > MAX_TUPLE_N:
        raise ValueError(f"tuple JSON needs n <= {MAX_TUPLE_N}, got n = {n}")
    N = 2 * n
    try:
        sigma0 = pg.parse_cycles(data["sigma0"], N)
        sigmaInf = pg.parse_cycles(data["sigmaInf"], N)
        sigma1 = pg.parse_cycles(data["sigma1"], N)
        if not isinstance(data["taus"], list):
            raise ValueError("tuple JSON field taus must be a list")
        taus = tuple(pg.parse_cycles(s, N) for s in data["taus"])
    except KeyError as exc:
        raise ValueError(f"tuple JSON missing field {exc}") from None
    return HurwitzTuple(sigma0=sigma0, sigmaInf=sigmaInf, sigma1=sigma1, taus=taus, n=n, d=d)
