"""An oracle for the atoms of the geometric and Poisson laws, standard library only.

``oracle_atom(law, d)`` is P{Q = n/d}, the sum of P{M = l d} / (l d + 1) over
l = 1, 2, ..., added term by term with ``decimal`` at 40 digits from the law's
float parameter read exactly.  Each pmf value is the one before times the ratio
of successive pmf values, and the sum stops once the tail beyond its last term
is below 1e-30 of the sum, which is checked every ``_BLOCK`` terms.  It shares
no code and no formula with the library.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import mul, truediv
from typing import Iterator

from bertrand_lab.rationals import GeometricLaw, PoissonLaw

_BLOCK = 1024


def oracle_atom(law: GeometricLaw | PoissonLaw, d: int) -> float:
    """P{Q = n/d} under ``law``, rounded once to a float."""
    if isinstance(law, GeometricLaw):
        return float(_atom("geometric", law.w, d))
    return float(_atom("poisson", law.mean, d))


@lru_cache(maxsize=None)
def _atom(kind: str, parameter: float, d: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(parameter)
        if kind == "geometric":
            # P{M = m} = w (1 - w)^(m - 1): the ratio over d steps is (1 - w)^d
            p, step = x * (1 - x) ** (d - 1), (1 - x) ** d

            def ratios(ms: range) -> Iterator[Decimal]:
                return repeat(step, len(ms))
        else:
            # P{M = m} = e^-mean mean^(m - 1) / (m - 1)!: the ratio falls as m grows
            p, power = (-x).exp() * x ** (d - 1) / math.factorial(d - 1), x**d

            def ratios(ms: range) -> Iterator[Decimal]:
                return (power / math.prod(range(m, m + d)) for m in ms)

        # the terms at m = d, 2 d, ..., _BLOCK at a time, so that C loops add them
        total = Decimal(0)
        for start in count(d, _BLOCK * d):
            ms = range(start, start + _BLOCK * d, d)
            pmfs = list(accumulate(ratios(ms), mul, initial=p))
            p = pmfs.pop()
            total += sum(map(truediv, pmfs, range(start + 1, ms.stop + 1, d)), Decimal(0))
            # the ratio never grows, so the tail is below a geometric series in rho
            rho = p / pmfs[-1] if pmfs[-1] else Decimal(0)
            if rho < 1 and p / (ms.stop + 1) / (1 - rho) < total * Decimal("1e-30"):
                return total
