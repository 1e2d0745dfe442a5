"""Exact and Monte Carlo toolkit for the classic "at random" paradoxes.

Four model families, each with closed-form probabilities, seeded samplers
and the measure-change machinery that reconciles their seemingly
contradictory answers: random chords on the unit circle, needle throws on
ruled paper, a number vs its square on [0, 100], and discrete laws on the
rationals in [0, 1] that become asymptotically equiprobable.

The API lives in the submodules (``bertrand_lab.bertrand``, ``.buffon``,
``.squares``, ``.rationals``, ``.montecarlo``); import names from there.
"""

__version__ = "0.1.0"
