"""Every coefficient the relation engine and the lift kernel read lies in
the stored region.

``siegel._check``, ``jacobi._twisted_sums`` and ``jacobi._shifted_coeffs``
read a cell with no stored coefficient as zero, with no bound test: each
relation family's evaluable sub-region, and the row bound of the index
shift, prove that every reference lies in the region.  These tests hold
that proof.  They give an expansion a coefficient dict that records every
cell asked of it, then run every verify mode and shift on boxes from 0x0 to
6x5, and the lift and the index shift on ``phi10_1``; an off-by-one in a
sub-region or a row bound shows as a recorded cell outside the region.
"""

import random

from synth import order4_table_character_mod5, random_siegel

from sklift.jacobi import builtin_form, index_shift
from sklift.numtheory import primes_up_to
from sklift.siegel import check_mode, in_cone, lift


class _Recording(dict):
    """A coefficient dict that records every cell asked of it."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = []

    def get(self, cell, default=None):
        self.asked.append(cell)
        return super().get(cell, default)

    def __getitem__(self, cell):
        self.asked.append(cell)
        return super().__getitem__(cell)

    def __contains__(self, cell):
        self.asked.append(cell)
        return super().__contains__(cell)


def _recorded(form):
    """The same expansion over a :class:`_Recording` of its coefficients,
    built as copy and pickle build it, and that recording."""
    fields = {name: getattr(form, name) for name in form.__slots__ if name != "_coeffs"}
    coeffs = _Recording(form._coeffs)
    form = type(form)._from_region(coeffs, **fields)
    coeffs.asked.clear()  # what the build asked
    return form, coeffs.asked


def _modes(F):
    top = max(F.n_max, F.m_max) + 1
    yield from ((mode, None) for mode in ("classical", "symmetric", "plocal", "all"))
    yield from (("symmetric", l) for l in range(1, top + 1))
    yield from (("plocal", p) for p in primes_up_to(top))


def test_the_relation_engine_reads_only_box_cells():
    rng = random.Random(300)
    chi = order4_table_character_mod5()
    reads, outside = 0, set()
    for n_max in range(7):
        for m_max in range(6):
            F, asked = _recorded(random_siegel(9, 5, chi, n_max, m_max, rng))
            for mode, shift in _modes(F):
                check_mode(F, mode, shift)
            reads += len(asked)
            outside.update((n_max, m_max, cell) for cell in asked
                           if cell == (0, 0, 0) or cell[0] > n_max or cell[2] > m_max
                           or not in_cone(*cell))
    assert not outside, sorted(outside)[:10]
    assert reads > 4000


def test_the_lift_and_the_index_shift_read_only_region_cells():
    phi, asked = _recorded(builtin_form("phi10_1", 24))
    for top in range(1, phi.n_max + 1):
        lift(phi, top)
        index_shift(phi, top)
    outside = {(n, r) for n, r in asked if not 0 <= n <= phi.n_max or r * r > 4 * n}
    assert not outside, sorted(outside)[:10]
    assert len(asked) > 4000
