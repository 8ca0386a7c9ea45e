"""Degree-2 Siegel expansions, the Saito-Kurokawa lift, and the
Maass-relation checkers.

A :class:`SiegelExpansion` stores Fourier coefficients A(n, r, m) indexed
by half-integral positive semidefinite matrices (n, r/2; r/2, m), i.e.
n, m >= 0 and 4nm - r^2 >= 0, on the truncation box n <= n_max,
m <= m_max.  Lookup is total with A(T) = 0 outside the semidefinite cone;
lookups beyond the box are refused rather than guessed.

The lift of an index-1 Jacobi expansion phi with vanishing constant term
assembles A(n, r, l) from the index shifts V_{l,chi}(phi), which makes the
m-th Fourier-Jacobi slice of the output equal to V_{m,chi}(phi) by
construction.  Each shift is evaluated only on the rows of the truncation
box, n <= floor(phi.n_max / m_max), not on all the rows
:func:`~sklift.jacobi.index_shift` would return.

Three relation families are checked coefficient-wise; they characterise the
Spezialschar (the paper), but are not equivalent on a truncated box:

  classical     A(n,r,m) = sum_{d | (n,r,m)} d^(k-1) chi(d) A(nm/d^2, r/d, 1)
  symmetric_l   sum_{d | (n,r,l)} d^(k-1) chi(d) A(nl/d^2, r/d, m)
                  = sum_{d | (l,r,m)} d^(k-1) chi(d) A(n, r/d, ml/d^2)
  p-local       A(np,r,m) + p^(k-1) chi(p) A(n/p, r/p, m)
                  = A(n,r,pm) + p^(k-1) chi(p) A(n, r/p, m/p)

with the convention that coefficients at non-integral or non-semidefinite
arguments are zero.  The divisors of gcd(n, r, p) are 1 and p, so the
p-local relation is term for term the symmetric relation at l = p, and is
checked as such.  For p | N the character kills the twisted terms and it
degenerates to A(np, r, m) = A(n, r, pm).  The rank-<=1 ("singular")
coefficients a(l) = A(l, 0, 0) of any member of the lift image satisfy
a(l) = (sum_{d | l} d^(k-1) chi(d)) a(1).

One engine evaluates every family: an instance is a cell with two sides,
each a list of twisted references or, where the gcd is 1 so that d = 1 is
the only divisor, a lone reference, the cell itself, which is read as the
stored coefficient with no sum and no term list built.  In each family the
d = 1 references bound all the others, so the instances whose references
stay inside the box form a sub-region known up front (nm <= n_max for
classical, nl <= n_max and ml <= m_max for symmetric_l, all of l <= n_max
for the singular law).  Only that sub-region is evaluated; the box cells
outside it are counted in the report as skipped.  So no reference leaves
the box, and a cell with no stored coefficient is read as zero with no
bound test; tests/test_region_reads.py records every cell read to prove
it.  The lift and the engine sum their twisted divisor sums with
:func:`~sklift.jacobi._twisted_sums`, which leaves out the chi(d) = 0 terms.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from ._value import Frozen, Record
from .jacobi import JacobiExpansion, _clean, _Expansion, _shifted_coeffs, _twisted_sums
from .numtheory import Scalar, divisors, is_prime, primes_up_to, read_int
from .serialize import (ParseError, _value_text, parse_header, parse_int, parse_table,
                        scalar_from_text, write_table)

__all__ = [
    "SiegelExpansion",
    "RelationReport",
    "Violation",
    "fj_coefficient",
    "lift",
    "check_classical",
    "check_symmetric",
    "check_p_relations",
    "check_singular_law",
    "is_maass",
    "check_mode",
    "write_sksf",
    "parse_sksf",
    "report_to_text",
    "parse_report",
]


def in_cone(n: int, r: int, m: int) -> bool:
    """Membership in the positive semidefinite half-integral cone."""
    return n >= 0 and m >= 0 and 4 * n * m - r * r >= 0


def _cell_error(cell, n_max: int, m_max: int, cusp: bool = False) -> str | None:
    """The first rule a nonzero coefficient at cell = (n, r, m) breaks, or
    None: the SKSF region rule, shared by the constructor and the parser."""
    n, r, m = cell
    disc = 4 * n * m - r * r
    if disc > 0 and 0 <= n <= n_max and 0 <= m <= m_max:
        return None
    if cell == (0, 0, 0):
        return "the zero matrix is excluded from the support"
    if not in_cone(n, r, m):
        return f"coefficient ({n},{r},{m}) outside the cone"
    if n > n_max or m > m_max:
        return f"coefficient ({n},{r},{m}) outside the box"
    if cusp and disc == 0:
        return f"cusp flag set but singular coefficient ({n},{r},{m}) is nonzero"
    return None


def _cells(n_max: int, m_max: int, nm_max: int | None = None):
    """Every (n, r, m) != (0, 0, 0) with n <= n_max, m <= m_max and
    r^2 <= 4nm, in (n, r, m) order; only those with nm <= nm_max when it
    is given.  m runs from the least m >= 0 with 4nm >= r^2 (from 1 on the
    row n = 0, which holds only r = 0)."""
    for m in range(1, m_max + 1):
        yield (0, 0, m)
    for n in range(1, n_max + 1):
        top = m_max if nm_max is None else min(m_max, nm_max // n)
        bound = isqrt(4 * n * top)
        for r in range(-bound, bound + 1):
            for m in range(-(-r * r // (4 * n)), top + 1):
                yield (n, r, m)


class Violation(Frozen):
    """One failed relation instance: identifiers, witness, both sides.
    ``shift`` is the l or p parameter, 0 for relations without one.
    Immutable; it compares as the tuple of its fields, and only with
    another Violation.  Hashing raises TypeError, as Scalar is unhashable."""

    __slots__ = ("relation", "n", "r", "m", "shift", "left", "right")

    def sort_key(self):
        return (self.n, self.r, self.m, self.shift, self.relation)


class RelationReport(Record):
    """Outcome of a relation check: violations plus the count of instances
    skipped because a referenced coefficient fell outside the box.
    Mutable and unhashable; it compares as (violations, skipped), and only
    with another RelationReport."""

    __slots__ = ("violations", "skipped")

    def __init__(self, violations: list[Violation], skipped: int = 0):
        self.violations = violations
        self.skipped = skipped

    @property
    def verdict(self) -> bool:
        return not self.violations

    def merged_with(self, *others: "RelationReport") -> "RelationReport":
        """One report of this one and ``others``: violations sorted once, skips summed."""
        reports = (self, *others)
        out = sorted([v for r in reports for v in r.violations], key=Violation.sort_key)
        return RelationReport(out, sum(r.skipped for r in reports))

    def relabelled(self, relation: str) -> "RelationReport":
        """The same report with every violation under ``relation``."""
        return RelationReport([Violation(relation, v.n, v.r, v.m, v.shift, v.left, v.right)
                               for v in self.violations], self.skipped)


class SiegelExpansion(_Expansion):
    """A truncated degree-2 Fourier expansion on the box
    n <= n_max, m <= m_max.

    Construction checks the character and the cells (the zero matrix, the
    cone, the box, the cusp flag); zero values are dropped."""

    __slots__ = ("weight", "level", "character", "n_max", "m_max", "cusp", "_coeffs")

    def __init__(self, weight, level, character, n_max, m_max, coeffs, cusp=False):
        if n_max < 0 or m_max < 0:
            raise ValueError("box bounds must be >= 0")
        self._check_character(weight, level, character)
        clean = _clean(coeffs, _cell_error, n_max, m_max, cusp)
        self._freeze(weight=weight, level=level, character=character, n_max=n_max,
                     m_max=m_max, cusp=cusp, _coeffs=clean)

    def _shape(self):
        return (self.weight, self.level, self.n_max, self.m_max, self.character)

    # -- access ------------------------------------------------------------

    def a(self, n: int, r: int, m: int) -> Scalar:
        """Total lookup: zero outside the cone, error outside the box."""
        if not in_cone(n, r, m):
            return Scalar.zero()
        if n > self.n_max or m > self.m_max:
            raise ValueError(f"coefficient ({n},{r},{m}) outside the stored box")
        return self._coeffs.get((n, r, m), Scalar.zero())

    def box_cells(self):
        """All (n, r, m) in the box with (n, r/2; r/2, m) >= 0 and != 0."""
        return _cells(self.n_max, self.m_max)

    def _boundary_cells(self):
        """The box cells with 4nm - r^2 = 0."""
        for n in range(self.n_max + 1):
            for m in range(self.m_max + 1):
                s = isqrt(n * m)
                if s * s == n * m and (n, m) != (0, 0):
                    yield (n, 2 * s, m)
                    if s:
                        yield (n, -2 * s, m)

    def perturbed(self, n: int, r: int, m: int, delta=1) -> "SiegelExpansion":
        """A copy with A(n, r, m) shifted by delta (cusp flag dropped)."""
        out = dict(self._coeffs)
        value = self.a(n, r, m) + Scalar.coerce(delta)
        if value.is_zero():
            out.pop((n, r, m), None)
        else:
            out[(n, r, m)] = value
        return SiegelExpansion(
            self.weight, self.level, self.character, self.n_max, self.m_max, out,
            cusp=False,
        )

    def __repr__(self):
        return (
            f"SiegelExpansion(k={self.weight}, N={self.level}, "
            f"chi={self.character.to_spec()}, box={self.n_max}x{self.m_max}, "
            f"{len(self._coeffs)} nonzero)"
        )


# ---------------------------------------------------------------------------
# Fourier-Jacobi slices and the lift
# ---------------------------------------------------------------------------

def fj_coefficient(F: SiegelExpansion, m: int) -> JacobiExpansion:
    """The m-th Fourier-Jacobi coefficient: the slice (n, r) -> A(n, r, m)
    as a Jacobi expansion of index m."""
    if m < 0 or m > F.m_max:
        raise ValueError(f"slice index {m} outside the stored box")
    coeffs = {(n, r): c for (n, r, mm), c in F.nonzero_items() if mm == m}
    return JacobiExpansion(
        F.weight, m, F.level, F.character, F.n_max, coeffs, cusp=F.cusp
    )


def lift(phi: JacobiExpansion, m_max: int) -> SiegelExpansion:
    """The Saito-Kurokawa lift of a cuspidal index-1 expansion: the l-th
    Fourier-Jacobi coefficient of the output is V_{l,chi}(phi).

    Inputs with nonzero constant term would need an Eisenstein part and are
    rejected.  The output is boxed at n <= floor(phi.n_max / m_max) so the
    whole box is determined by stored input coefficients, and each shift is
    evaluated on the box rows only, straight into the output's cells
    (n, r, l), which lie in the box by construction.
    """
    if phi.index != 1:
        raise ValueError(f"lift requires an index-1 expansion, got index {phi.index}")
    if not phi.coeff(0, 0).is_zero():
        raise ValueError(
            "nonzero constant term: the Eisenstein part of the lift is unsupported"
        )
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if m_max > phi.n_max:
        raise ValueError(f"m_max={m_max} exceeds the input truncation {phi.n_max}")
    n_max = phi.n_max // m_max
    total = _twisted_sums(phi)
    coeffs: dict[tuple[int, int, int], Scalar] = {}
    for l in range(1, m_max + 1):
        _shifted_coeffs(phi, l, n_max, total, coeffs, m=l)
    return SiegelExpansion._from_region(
        coeffs, weight=phi.weight, level=phi.level, character=phi.character,
        n_max=n_max, m_max=m_max, cusp=phi.cusp,
    )


# ---------------------------------------------------------------------------
# Relation checkers: one engine, each family its instances over its region
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cell_count(n_max: int, m_max: int) -> int:
    """The number of cells :func:`_cells` yields: 2 isqrt(4nm) + 1 for each
    (n, m), less the zero matrix.  Every family of a ``check_mode`` call
    counts the same box, so the count is kept."""
    return sum(2 * isqrt(4 * n * m) + 1
               for n in range(n_max + 1) for m in range(m_max + 1)) - 1


def _terms(side) -> list:
    """The term list of an instance's side: a lone reference, the cell
    itself, is the single term (1, cell)."""
    return side if side.__class__ is list else [(1, side)]


def _check(F: SiegelExpansion, relation: str, shift: int, instances,
           enumerated: int) -> RelationReport:
    """Evaluate relation instances (cell, left, right).  A side is a list of
    terms (d, (n, r, m)), standing for d^(k-1) chi(d) A(n, r, m), or, when
    its only term is d = 1, a lone reference: the cell (n, r, m) itself,
    as chi(1) 1^(k-1) = 1.

    The instances come from the family's evaluable sub-region; of the
    ``enumerated`` box instances, those not evaluated are reported as
    skipped.  Every reference of such an instance lies in the stored box
    (tests/test_region_reads.py proves it), so a lone reference is read as
    the stored coefficient or zero, and a term list is summed by
    :func:`~sklift.jacobi._twisted_sums`.  A violated instance reports both
    sides as full term sums, so a lone side is written in the twisted sum's ring.
    """
    total = _twisted_sums(F)
    get = F._coeffs.get
    zero = Scalar.zero()
    violations: list[Violation] = []
    evaluated = 0
    for cell, left_side, right_side in instances:
        evaluated += 1
        left = total(left_side) if left_side.__class__ is list else get(left_side, zero)
        right = total(right_side) if right_side.__class__ is list else get(right_side, zero)
        if left != right:
            violations.append(Violation(relation, *cell, shift, total(_terms(left_side)),
                                        total(_terms(right_side))))
    return RelationReport(violations, enumerated - evaluated)


def _classical_instances(F: SiegelExpansion):
    """The evaluable instances of the classical family.

    The d = 1 reference A(nm, r, 1) bounds the others, so the instance is
    evaluable exactly when nm <= n_max, and nowhere when m_max = 0."""
    for cell in _cells(F.n_max, F.m_max, F.n_max) if F.m_max >= 1 else ():
        n, r, m = cell
        g = gcd(n, r, m)
        yield (cell, cell,
               (n * m, r, 1) if g == 1
               else [(d, (n * m // (d * d), r // d, 1)) for d in divisors(g)])


def check_classical(F: SiegelExpansion) -> RelationReport:
    """A(n,r,m) = sum_{d | (n,r,m)} d^(k-1) chi(d) A(nm/d^2, r/d, 1)."""
    return _check(F, "classical", 0, _classical_instances(F), _cell_count(F.n_max, F.m_max))


def _symmetric_instances(F: SiegelExpansion, l: int):
    """The evaluable instances of the symmetric family at shift l.

    The d = 1 references A(nl, r, m) and A(n, r, ml) bound the others, so
    the instance is evaluable exactly on the sub-box nl <= n_max,
    ml <= m_max."""
    for cell in _cells(F.n_max // l, F.m_max // l):
        n, r, m = cell
        g, h = gcd(n, r, l), gcd(l, r, m)
        yield (cell,
               (n * l, r, m) if g == 1
               else [(d, (n * l // (d * d), r // d, m)) for d in divisors(g)],
               (n, r, m * l) if h == 1
               else [(d, (n, r // d, m * l // (d * d))) for d in divisors(h)])


def check_symmetric(F: SiegelExpansion, l: int) -> RelationReport:
    """The symmetric family at shift l; l = 1 is identically true."""
    if l < 1:
        raise ValueError("shift must be >= 1")
    return _check(F, "symmetric", l, _symmetric_instances(F, l),
                  _cell_count(F.n_max, F.m_max))


def check_p_relations(F: SiegelExpansion, p: int) -> RelationReport:
    """The two-term local relation at a prime p: the symmetric report at
    l = p, term for term the same relation (see the module docstring)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return check_symmetric(F, p).relabelled("plocal")


def check_singular_law(F: SiegelExpansion) -> RelationReport:
    """A(l, 0, 0) = (sum_{d | l} d^(k-1) chi(d)) A(1, 0, 0) for l <= n_max."""
    instances = (
        ((l, 0, 0), (l, 0, 0), [(d, (1, 0, 0)) for d in divisors(l)] if l > 1 else (1, 0, 0))
        for l in range(1, F.n_max + 1)
    )
    return _check(F, "singular", 0, instances, F.n_max)


def is_maass(F: SiegelExpansion, p_list: list[int]) -> RelationReport:
    """Symmetric checks at every prime in p_list plus the singular law.

    For a conclusive in-box verdict p_list should contain every prime up to
    max(n_max, m_max); the report carries per-prime witnesses via the shift
    field of each violation.
    """
    for p in p_list:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return check_singular_law(F).merged_with(*(check_symmetric(F, p) for p in p_list))


VERIFY_MODES = ("classical", "symmetric", "plocal", "all")


def check_mode(F: SiegelExpansion, mode: str, shift: int | None = None) -> RelationReport:
    """The report of ``sklift verify --mode=<mode>``: symmetric at l = shift
    or, without one, :func:`is_maass` at the box primes (those up to
    max(n_max, m_max)); p-local at p = shift or at every box prime; or all:
    classical, the singular law and each box prime's symmetric report under
    both labels, symmetric and plocal, so that its skips count twice."""
    if mode not in VERIFY_MODES or (shift is not None and mode in ("classical", "all")):
        raise ValueError(f"no verify mode {mode!r} with shift {shift!r}")
    if mode == "classical":
        return check_classical(F)
    if shift is not None:
        return (check_symmetric if mode == "symmetric" else check_p_relations)(F, shift)
    primes = primes_up_to(max(F.n_max, F.m_max))
    if mode == "symmetric":
        return is_maass(F, primes)
    if mode == "plocal":
        return RelationReport([]).merged_with(*(check_p_relations(F, p) for p in primes))
    classical, singular = check_classical(F), check_singular_law(F)
    symmetric = [check_symmetric(F, p) for p in primes]
    return classical.merged_with(singular, *symmetric, *(s.relabelled("plocal") for s in symmetric))


# ---------------------------------------------------------------------------
# SKSF file format and report text
# ---------------------------------------------------------------------------

def write_sksf(F: SiegelExpansion) -> str:
    """Serialize to SKSF text: every in-cone box cell except (0,0,0),
    explicit zeros included, sorted by (n, r, m)."""
    return write_table(
        "SKSF 1",
        f"k={F.weight} N={F.level} chi={F.character.to_spec()} "
        f"nmax={F.n_max} mmax={F.m_max} cusp={int(F.cusp)}",
        _cells(F.n_max, F.m_max), F._coeffs,
    )


def parse_sksf(text: str) -> SiegelExpansion:
    """Parse SKSF text; every box cell must be present exactly once."""
    return parse_table(
        text, "SKSF 1",
        (("k", "weight"), ("N", "level"), ("chi", None), ("nmax", "nmax"),
         ("mmax", "mmax"), ("cusp", None)),
        ("n", "r", "m"), lambda cell, meta: _cell_error(cell, meta["nmax"], meta["mmax"]),
        lambda meta: _cells(meta["nmax"], meta["mmax"]),
        lambda meta, coeffs: SiegelExpansion._from_region(
            coeffs, weight=meta["k"], level=meta["N"], character=meta["chi"],
            n_max=meta["nmax"], m_max=meta["mmax"], cusp=meta["cusp"]),
    )


def report_to_text(report: RelationReport) -> str:
    lines = ["VERDICT=PASS" if report.verdict else "VERDICT=FAIL"]
    for v in report.violations:
        cell = (v.n, v.r, v.m)
        lines.append(f"REL={v.relation} T=({v.n},{v.r},{v.m}) l={v.shift} "
                     f"L={_value_text(v.left, cell, 'T=')} R={_value_text(v.right, cell, 'T=')}")
    lines.append(f"SKIPPED={report.skipped}")
    return "\n".join(lines) + "\n"


_REPORT_RELATIONS = ("classical", "symmetric", "plocal", "singular")


def parse_report(text: str) -> RelationReport:
    """Parse report text, rejecting what `report_to_text` never writes.
    Blank lines are skipped; errors carry the line numbers of the text
    itself."""
    lines = [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines or lines[0][1] not in ("VERDICT=PASS", "VERDICT=FAIL"):
        raise ParseError(lines[0][0] if lines else 1, "expected VERDICT=PASS or VERDICT=FAIL")
    (verdict_no, verdict), (last_no, last) = lines[0], lines[-1]
    if not last.startswith("SKIPPED="):
        raise ParseError(last_no, "expected trailing SKIPPED=<count>")
    skipped = parse_int(last[len("SKIPPED="):], last_no, "skip count")
    if skipped < 0:
        raise ParseError(last_no, f"negative skip count {skipped}")
    violations = []
    for line_no, line in lines[1:-1]:
        fields = parse_header(line, ("REL", "T", "l", "L", "R"), line_no)
        rel = fields["REL"]
        if rel not in _REPORT_RELATIONS:
            raise ParseError(line_no, f"unknown relation {rel!r}")
        inner = fields["T"][1:-1]
        cell = [*map(read_int, inner.split(","))] if fields["T"] == f"({inner})" else []
        if len(cell) != 3 or None in cell:
            raise ParseError(line_no, f"malformed violation line: {line!r}")
        n, r, m = cell
        shift = parse_int(fields["l"], line_no, "shift")
        left = scalar_from_text(fields["L"], line_no)
        right = scalar_from_text(fields["R"], line_no)
        if left == right:
            raise ParseError(line_no, "violation with equal sides")
        violations.append(Violation(rel, n, r, m, shift, left, right))
    report = RelationReport(violations, skipped)
    if report.verdict != (verdict == "VERDICT=PASS"):
        raise ParseError(verdict_no, "verdict line inconsistent with violation list")
    return report
