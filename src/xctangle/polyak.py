"""Finite-type layer: subdiagram calculus, diagram formulas and pairing.

* :func:`subdiagrams` enumerates the induced diagram of every subset of a
  diagram's decorations (chords and diamonds).
* :func:`map_I` sends a diagram to the formal sum of all its subdiagrams;
  :func:`map_I_inverse` inverts it by back-substitution, from the largest
  decoration count down, so the two are mutually inverse linear maps on
  the free module of diagrams.
* :func:`pairing` is the pairing <F, I(d)> of a diagram formula F — a
  list of one-strand template terms whose decorations may be left
  unsigned — with :func:`map_I` of a one-strand diagram d.  Each unsigned
  slot is expanded into both signs, the sign multiplying the term's
  coefficient, and the signed templates are summed as canonical diagrams;
  each subdiagram of d of a template's size adds its weight in that sum.
* :func:`framing_formula` is the degree-one formula 2*(unsigned
  under-first chord) - (unsigned diamond); it returns the writhe on every
  planar lift and is unchanged by all certified moves.
* :func:`check_formula_invariance` falsifies candidate formulas against
  randomized move-related diagram pairs.
* every subset walk counts its subsets first and raises
  :class:`~xctangle.errors.GuardrailError` above :data:`SUBSET_MAX`.
* :func:`print_formula` and :func:`parse_formula` write and read a formula
  as ``term <coefficient>`` lines, each followed by its template in the
  diagram stanza of :mod:`~xctangle.gauss`; ``<id>:?`` in the ``chords:``
  line and ``D?`` events mark unsigned slots.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product
from math import comb, prod

from .errors import (
    GuardrailError,
    NoSiteError,
    ParseError,
    ValidationError,
)
from .gauss import (
    DIAMOND,
    OVER,
    UNDER,
    XCGaussDiagram,
    canonical_key,
    chord_text,
    event_text,
    is_decimal,
    parse_chord_token,
    parse_event_token,
    print_diagram,
    print_stanza,
    read_stanza,
    renumbered,
    validate,
)
from .record import FrozenRecord


def _event_bits(d: XCGaussDiagram):
    """Each strand's events paired with the bit of their decoration: the
    chords take bits 0..c-1 by id, then the diamonds the next bits in
    reading order."""
    bit = {cid: 1 << i for i, (cid, _) in enumerate(d.chords)}
    j = len(d.chords)
    rows = []
    for ev in d.events:
        row = []
        for e in ev:
            if e[0] == DIAMOND:
                row.append((e, 1 << j))
                j += 1
            else:
                row.append((e, bit[e[1]]))
        rows.append(row)
    return rows


def _induced(rows, mask: int):
    """The event lists of the subset ``mask`` (a bitmask over the
    decorations), given the rows of :func:`_event_bits`."""
    return [[e for e, w in row if mask & w] for row in rows]


#: The most decoration subsets one walk of :func:`_subsets` visits:
#: 2^22 subsets, about 4.2 million, take about half a minute in
#: :func:`map_I`.
SUBSET_MAX = 1 << 22


def _subsets(d: XCGaussDiagram, sizes=None):
    """Every decoration subset of ``d`` as ``(mask, event lists)``, in
    ascending mask order, with the event bits computed once.  Given a set
    of ``sizes``, only the subsets with one of those decoration counts are
    walked, size by size.  ``d`` is valid: its callers validate it.

    The subsets are counted first, 2^k for k decorations or the sum of
    C(k, s) over the sizes s, and more than :data:`SUBSET_MAX` of them
    raise :class:`GuardrailError` before the walk."""
    k = d.decoration_count()
    if sizes is None:
        count, masks = 1 << k, range(1 << k)
    else:
        sizes = sorted(sizes)
        bits = [1 << i for i in range(k)]
        count = sum(comb(k, size) for size in sizes)
        masks = (sum(c) for size in sizes for c in combinations(bits, size))
    if count > SUBSET_MAX:
        raise GuardrailError(
            f"subset walk over {k} decorations visits {count} subsets, "
            f"more than {SUBSET_MAX}")
    rows = _event_bits(d)
    return ((mask, _induced(rows, mask)) for mask in masks)


def _chords_in(d: XCGaussDiagram, mask: int):
    return [c for i, c in enumerate(d.chords) if mask >> i & 1]


def subdiagrams(d: XCGaussDiagram):
    """All 2^k induced subdiagrams, in deterministic order (subsets as
    ascending bitmasks over the decoration list).  More than
    :data:`SUBSET_MAX` of them raise GuardrailError before the first."""
    validate(d)
    for mask, events in _subsets(d):
        yield XCGaussDiagram(d.n, d.top, _chords_in(d, mask), events)


class FormalDiagramSum:
    """Finitely supported integer combination of diagrams, keyed by
    :func:`canonical_key` (the renumbered diagram, which is also the
    term's representative); zero coefficients are never stored."""

    def __init__(self, terms: dict[XCGaussDiagram, int] | None = None):
        self.terms = {} if terms is None else terms

    def __repr__(self) -> str:
        return f"FormalDiagramSum(terms={self.terms!r})"

    @staticmethod
    def of(d: XCGaussDiagram, coeff: int = 1) -> "FormalDiagramSum":
        s = FormalDiagramSum()
        s.add(d, coeff)
        return s

    def add(self, d: XCGaussDiagram, coeff: int = 1) -> None:
        if coeff:
            self._add_key(canonical_key(d), coeff)

    def _add_key(self, key: XCGaussDiagram, coeff: int) -> None:
        """Add ``coeff`` to the term of ``key``, a canonical diagram."""
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def add_sum(self, other: "FormalDiagramSum", coeff: int = 1) -> None:
        for key, c in list(other.terms.items()):
            self._add_key(key, c * coeff)

    def items(self):
        """``(canonical diagram, coefficient)`` pairs in insertion order."""
        return self.terms.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalDiagramSum) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)


def _canonical_subsets(d: XCGaussDiagram, sizes=None):
    """Every subset of ``d`` as ``(decoration count, canonical diagram)``,
    in the order of :func:`subdiagrams`; ``sizes`` restricts the walk as
    in :func:`_subsets`."""
    sign = d.chord_sign
    for mask, events in _subsets(d, sizes):
        yield mask.bit_count(), renumbered(d.n, d.top, sign, events)


def map_I(d: XCGaussDiagram) -> FormalDiagramSum:
    """The sum of all subdiagrams of ``d``.

    The subsets are walked once, as ascending bitmasks over the event bits
    of :func:`_event_bits`, computed once per diagram; each subset is
    renumbered into its canonical diagram (:func:`gauss.renumbered`) as it
    is built, and stored without calling :func:`canonical_key` again.
    More than :data:`SUBSET_MAX` subsets raise GuardrailError first.
    """
    validate(d)
    out = FormalDiagramSum()
    for _, key in _canonical_subsets(d):
        out._add_key(key, 1)
    return out


def _canonical_size(d: XCGaussDiagram):
    """None unless the chords of ``d`` are 1..K, first met in that order
    in reading order; then a valid ``d`` is its own :func:`canonical_key`,
    and this is its decoration count."""
    top = size = 0
    for row in d.events:
        for kind, val in row:
            if kind == DIAMOND:
                size += 1
            elif val > top:
                if val != top + 1:
                    return None
                top = val
    if [c for c, _ in d.chords] != list(range(1, top + 1)):
        return None
    return size + top


def map_I_inverse(s: FormalDiagramSum) -> FormalDiagramSum:
    """The inverse of :func:`map_I`, extended linearly: the x with
    ``map_I(x) == s``.

    ``map_I(t)`` is t plus terms with fewer decorations, so x is found by
    back-substitution.  The input keys are made canonical and merged, as
    :meth:`FormalDiagramSum.add` merges them; then, from the largest
    decoration count down, each remaining term c·t of the current count
    goes into x, and c times each proper subdiagram of t (walked once, as
    in :func:`map_I`) is subtracted from the rest.

    A key that is not canonical is validated before it is renumbered.  A
    key that is canonical already is validated when its term goes into x:
    the subdiagrams subtracted are those of valid terms, so an invalid key
    is never cancelled.

    The cost follows the output, 2^|t| diagrams per term t of x, not the
    input: inverting ``map_I(d)`` for d with k decorations builds 2^k
    subdiagrams, where expanding every input term by inclusion-exclusion
    builds 3^k.  The trade-off is a single diagram with k decorations,
    whose inverse has every subdiagram as a term: it costs up to 3^k here
    and 2^k by expansion.  A term with more than :data:`SUBSET_MAX`
    subdiagrams raises GuardrailError before they are walked; the largest
    term comes first.

    The terms come out sorted by decoration count, then by ``n``, ``top``,
    ``chords`` and ``events`` of their canonical diagrams.
    """
    levels: list[dict[XCGaussDiagram, int]] = []
    for key, coeff in s.items():
        size = _canonical_size(key)
        if size is None:
            key = canonical_key(key)
            size = key.decoration_count()
        while len(levels) <= size:
            levels.append({})
        level = levels[size]
        level[key] = level.get(key, 0) + coeff
    solved = []
    for size in range(len(levels) - 1, -1, -1):
        for t, c in levels[size].items():
            if not c:
                continue
            solved.append(((size, t.n, t.top, t.chords, t.events), t, c))
            validate(t)
            for sub_size, sub in _canonical_subsets(t):
                if sub_size < size:
                    level = levels[sub_size]
                    level[sub] = level.get(sub, 0) - c
    solved.sort(key=lambda term: term[0])
    return FormalDiagramSum({t: c for _, t, c in solved})


def truncate_degree(s: FormalDiagramSum, n: int) -> FormalDiagramSum:
    """Drop every term whose diagram has at least ``n`` decorations."""
    if n < 0:
        raise ValidationError("truncation degree must be non-negative")
    out = FormalDiagramSum()
    for d, coeff in s.items():
        if d.decoration_count() < n:
            out.add(d, coeff)
    return out


# -- diagram formulas --------------------------------------------------


class FormulaTerm(FrozenRecord):
    """One term of a diagram formula: an integer coefficient and a
    one-strand template whose chords/diamonds may be unsigned (unsigned
    diamonds carry sign 0 in the event list; unsigned chord ids are
    listed in ``unsigned_chords``)."""

    coefficient: int
    template: XCGaussDiagram
    unsigned_chords: frozenset = frozenset()

    def __post_init__(self):
        if self.template.n != 1:
            raise ValidationError("formula templates must have one strand")


def _signed_templates(formula) -> FormalDiagramSum:
    """The formula as a sum of signed templates: each unsigned slot of a
    term is expanded into both signs, the chosen sign multiplying the
    term's coefficient.  A template is validated once, with its unsigned
    slots signed +1; its other sign choices are renumbered directly."""
    out = FormalDiagramSum()
    for term in formula:
        t = term.template
        sign = t.chord_sign
        rows = [list(ev) for ev in t.events]
        chords = [c for c in sign if c in term.unsigned_chords]
        dias = [(row, i) for row in rows
                for i, e in enumerate(row) if e == (DIAMOND, 0)]
        sign.update((c, 1) for c in chords)
        for row, i in dias:
            row[i] = (DIAMOND, 1)
        validate(XCGaussDiagram(t.n, t.top, sign.items(), rows))
        for signs in product((1, -1), repeat=len(chords) + len(dias)):
            sign.update(zip(chords, signs))
            for (row, i), s in zip(dias, signs[len(chords):]):
                row[i] = (DIAMOND, s)
            out._add_key(renumbered(t.n, t.top, sign, rows),
                         term.coefficient * prod(signs))
    return out


def _check_one_strand(d: XCGaussDiagram) -> None:
    validate(d)
    if d.n != 1:
        raise ValidationError("pairing requires a one-strand diagram")


def _pair(weights: dict, d: XCGaussDiagram) -> int:
    """<F, I(d)> for the signed templates ``weights`` of F."""
    sizes = {t.decoration_count() for t in weights}
    return sum(weights.get(key, 0)
               for _, key in _canonical_subsets(d, sizes))


def pairing(formula, d: XCGaussDiagram) -> int:
    """The pairing <F, I(d)> of a formula F with :func:`map_I` of a
    one-strand diagram d: each canonical subdiagram of d with as many
    decorations as some template adds its weight in the signed templates
    of F.  A template that is not a valid diagram raises ValidationError,
    and more than :data:`SUBSET_MAX` subsets of d of the template sizes
    raise GuardrailError before they are walked.
    """
    _check_one_strand(d)
    return _pair(_signed_templates(formula).terms, d)


def framing_terms() -> list[FormulaTerm]:
    """The degree-one framing formula: twice an unsigned chord whose
    under-pass comes first, minus an unsigned diamond."""
    chord = XCGaussDiagram(1, (1,), [(1, 1)], [((UNDER, 1), (OVER, 1))])
    dia = XCGaussDiagram(1, (1,), [], [((DIAMOND, 0),)])
    return [
        FormulaTerm(2, chord, frozenset({1})),
        FormulaTerm(-1, dia),
    ]


@cache
def _framing_weights() -> dict:
    """The signed templates of :func:`framing_terms`, built on first use."""
    return _signed_templates(framing_terms()).terms


def framing_formula(d: XCGaussDiagram) -> int:
    """Evaluate the framing formula; equals the writhe on planar lifts.
    Its signed templates are built once and shared by every call."""
    _check_one_strand(d)
    return _pair(_framing_weights(), d)


# -- falsification harness ---------------------------------------------


def check_formula_invariance(formula, samples: int, seed: int = 0) -> dict:
    """Evaluate a formula on randomized move-related diagram pairs and
    report every pair where the values differ."""
    from . import moves as M
    from .randomgen import random_diagram

    rng = random.Random(seed)
    failures = []
    checked = 0
    while checked < samples:
        d = random_diagram(rng, n=1, max_chords=3, max_diamonds=3)
        kind = rng.choice(M.KINDS)
        try:
            site = M.random_site(d, kind, rng)
        except NoSiteError:
            continue
        d2 = M.apply(d, site)
        if d2.decoration_count() > 9:
            continue
        checked += 1
        v1, v2 = pairing(formula, d), pairing(formula, d2)
        if v1 != v2:
            failures.append({"kind": kind, "before": print_diagram(d),
                             "after": print_diagram(d2),
                             "values": (v1, v2)})
    return {"samples": checked, "failures": failures,
            "invariant": not failures}


# -- formula text format ----------------------------------------------


def _print_template(term: FormulaTerm) -> str:
    chords = [f"{c}:?" if c in term.unsigned_chords else chord_text(c, s)
              for c, s in term.template.chords]
    return print_stanza(term.template, chords,
                        lambda e: "D?" if e == (DIAMOND, 0) else event_text(e))


def print_formula(formula) -> str:
    """Write a formula in the text format of the module docstring, with a
    blank line between terms."""
    return "\n\n".join(f"term {t.coefficient}\n" + _print_template(t)[:-1]
                       for t in formula) + "\n"


def parse_formula(text: str) -> list[FormulaTerm]:
    """Read the terms of :func:`print_formula`; templates are not
    validated."""
    unsigned: set[int] = set()

    def chord(tok, lineno, col):
        if tok.endswith(":?") and is_decimal(tok[:-2]):
            unsigned.add(int(tok[:-2]))
            return int(tok[:-2]), 1
        return parse_chord_token(tok, lineno, col)

    def event(tok, lineno, col):
        return (DIAMOND, 0) if tok == "D?" else parse_event_token(tok, lineno, col)

    raws = text.splitlines()
    lines = [raw.split("#", 1)[0].strip() for raw in raws]
    heads = [i for i, line in enumerate(lines) if line.startswith("term ")]
    first = heads[0] if heads else len(lines)
    if any(lines[:first]):
        raise ParseError("diagram lines before any 'term'", first + 1, 1)
    out = []
    for h, end in zip(heads, heads[1:] + [len(lines)]):
        body = lines[h][len("term "):].strip()
        if not is_decimal(body.removeprefix("-")):
            raise ParseError(f"bad coefficient {body!r}", h + 1, 1)
        coeff = int(body)
        unsigned.clear()
        stanza = "\n".join(raws[h + 1:end])
        d = XCGaussDiagram(*read_stanza(stanza, chord, event, h + 2))
        out.append(FormulaTerm(coeff, d, frozenset(unsigned)))
    return out
