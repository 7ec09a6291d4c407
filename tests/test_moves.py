"""Move engine: pattern table, site search, application, stale sites,
orbit search, and the open-fragment validator."""

import random
from itertools import product

import pytest

from xctangle import moves as M
from xctangle.algebra import builtin_uqsl2
from xctangle.errors import (
    NoSiteError,
    ParseError,
    StaleSiteError,
    ValidationError,
)
from xctangle import gauss as G
from xctangle.gauss import (
    XCGaussDiagram,
    canonical_key,
    identity,
    parse_diagram,
)
from xctangle.invariant import iota_realize, zeval
from xctangle.randomgen import random_diagram

ALG = builtin_uqsl2()

KINK = XCGaussDiagram(1, (1,), [(1, 1)],
                      [(("O", 1), ("D", -1), ("U", 1))])


def test_builtin_table_shape():
    pats = M.builtin_patterns()
    by_kind = {}
    for p in pats:
        by_kind.setdefault(p.kind, []).append(p)
    assert set(by_kind) == set(M.KINDS)
    assert len(by_kind["G0r"]) == 2
    assert len(by_kind["G1f"]) == 2
    assert len(by_kind["G2p"]) == 4
    assert len(by_kind["G3"]) == 1


def test_every_builtin_pattern_is_sound():
    for p in M.builtin_patterns():
        ok, ce = M.validate_pattern(p, ALG)
        assert ok and ce is None, (p.kind, p.variant)


def test_validator_rejects_wrong_pattern():
    # dropping the diamonds from the kink rotation move breaks it
    wrong = M.MovePattern(
        "G1f", 1, (("c", "+"),),
        (((("O"), "c"), ("U", "c")),),
        (((("U"), "c"), ("O", "c")),))
    ok, counterexample = M.validate_pattern(wrong, ALG)
    assert not ok
    assert counterexample is not None


def _flip_diamond(side, i, j):
    frags = [list(f) for f in side]
    frags[i][j] = ("D", -frags[i][j][1])
    return tuple(tuple(f) for f in frags)


def _flipped(p, which, i, j):
    """``p`` with diamond ``j`` of fragment ``i`` of side ``which`` flipped."""
    sides = {"left": p.left, "right": p.right}
    sides[which] = _flip_diamond(sides[which], i, j)
    return M.MovePattern(p.kind, p.variant, p.vars, sides["left"],
                         sides["right"])


def test_validator_rejects_every_diamond_flip():
    # the counterexample is the open pair of the mutant
    mutants = [
        _flipped(p, which, i, j)
        for p in M.builtin_patterns()
        for which in ("left", "right")
        for i, frag in enumerate(getattr(p, which))
        for j, (kind, _) in enumerate(frag)
        if kind == "D"
    ]
    assert len(mutants) == 20
    for m in mutants:
        ok, counterexample = M.validate_pattern(m, ALG)
        assert not ok, m
        assert counterexample in [M.open_sides(m, e) for e in (1, -1)], m


DANGLING = "pattern G1f\nvar a: +\nfrag 1: Oa\nto 1: Ua\nend\n"


def test_validator_rejects_dangling_chord():
    (dangling,) = M.parse_patterns(DANGLING)
    with pytest.raises(ValidationError):
        M.validate_pattern(dangling, ALG)
    # and neither of its sides balances, so orbit refuses it
    assert not any(side.balanced for side in dangling.sides.values())


def test_find_sites_deterministic():
    d = random_diagram(random.Random(3), n=2, max_chords=3, max_diamonds=3)
    for kind in M.KINDS:
        assert M.find_sites(d, kind) == M.find_sites(d, kind)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        M.find_sites(identity(1), "G9")


def test_kink_rotation_move_round_trip():
    sites = [s for s in M.find_sites(KINK, "G1f") if s.side == "L"]
    assert sites
    flipped = M.apply(KINK, sites[0])
    assert flipped.events[0] == (("U", 1), ("D", 1), ("O", 1))
    back_sites = [s for s in M.find_sites(flipped, "G1f") if s.side == "R"]
    assert any(M.apply(flipped, s) == KINK for s in back_sites)


def test_pair_cancellation():
    d = XCGaussDiagram(1, (1,), [(1, 1), (2, -1)],
                       [(("O", 1), ("O", 2), ("U", 1), ("U", 2))])
    dels = [s for s in M.find_sites(d, "G2") if s.side == "L"]
    assert any(M.apply(d, s) == identity(1) for s in dels)


def test_antiparallel_pair_leaves_residual_diamond():
    d = XCGaussDiagram(1, (1,), [(1, 1), (2, -1)],
                       [(("O", 1), ("O", 2), ("U", 2), ("D", -1),
                         ("U", 1))])
    dels = [s for s in M.find_sites(d, "G2p") if s.side == "L"]
    results = {M.apply(d, s).events for s in dels}
    assert ((("D", -1),),) in results


def test_apply_preserves_invariant_value():
    rng = random.Random(67)
    base = identity(1)
    want = iota_realize(zeval(base, ALG))
    d = base
    for _ in range(40):
        kind = rng.choice(M.KINDS)
        sites = M.find_sites(d, kind)
        if not sites:
            continue
        nxt = M.apply(d, sites[rng.randrange(len(sites))])
        if nxt.decoration_count() > 6:
            continue
        d = nxt
        assert iota_realize(zeval(d, ALG)) == want


def test_stale_site_detected():
    sites = [s for s in M.find_sites(KINK, "G1f") if s.side == "L"]
    other = XCGaussDiagram(1, (1,), [(1, -1)],
                           [(("O", 1), ("D", -1), ("U", 1))])
    with pytest.raises(StaleSiteError):
        M.apply(other, sites[0])


PAIR = XCGaussDiagram(1, (1,), [], [(("D", 1), ("D", -1))])
KINKS = XCGaussDiagram(1, (1,), [(1, 1), (2, 1)],
                       [(("O", 1), ("D", -1), ("U", 1), ("O", 2), ("U", 2))])
PAIRS = XCGaussDiagram(1, (1,), [(1, 1), (2, -1)],
                       [(("O", 1), ("O", 2), ("U", 1), ("U", 2))])


def test_apply_rejects_out_of_range_sites():
    two = XCGaussDiagram(2, (1, 2), [(1, 1)],
                         [(), (("O", 1), ("D", -1), ("U", 1))])
    on_strand_2 = next(s for s in M.find_sites(two, "G1f") if s.side == "L")
    assert on_strand_2.locs == ((1, 0),)
    kink = next(s for s in M.find_sites(KINK, "G1f") if s.side == "L")
    g0r = next(s for s in M.find_sites(KINK, "G0r") if s.side == "R")
    g2 = next(s for s in M.find_sites(PAIRS, "G2") if s.side == "L")
    stale = [
        (identity(1), on_strand_2),
        (KINK, M.MoveSite(kink.pattern, "L", ((0, -3),), kink.assign,
                          kink.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((0, -1),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((-1, 0),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "X", ((0, 0),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", (), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((0, 0), (0, 0)), (), g0r.eps)),
        # both diamond runs of COLLIDING on the one at (0, 0)
        (PAIR, M.MoveSite(COLLIDING[0], "L", ((0, 0), (0, 0), (0, 2)), (),
                          1)),
        # the kink's letter bound to the other chord
        (KINKS, M.MoveSite(kink.pattern, "L", kink.locs, (("c", 2),),
                           kink.eps)),
        # a sign choice that the side does not have
        (PAIRS, M.MoveSite(g2.pattern, "L", g2.locs, g2.assign, 2)),
        (KINK, M.MoveSite(g0r.pattern, "R", g0r.locs, (), 0)),
        # a letter that the matched side does not bind
        (PAIRS, M.MoveSite(g2.pattern, "L", g2.locs,
                           g2.assign + (("z", 7),), g2.eps)),
        (KINK, M.MoveSite(g2.pattern, "R", ((0, 0), (0, 0)), (("a", 1),),
                          g2.eps)),
        # a position that is not a pair of ints
        (KINK, M.MoveSite(g0r.pattern, "R", ((0,),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((0, 1.5),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", (("0", 2),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((False, 0),), (), g0r.eps)),
        (KINK, M.MoveSite(g0r.pattern, "R", ((0, 1, 2),), (), g0r.eps)),
        # an assign entry that is not a (letter, id) pair
        (KINK, M.MoveSite(kink.pattern, "L", kink.locs, (("c",),),
                          kink.eps)),
        (KINK, M.MoveSite(kink.pattern, "L", kink.locs, (("c", 1, 2),),
                          kink.eps)),
        (KINK, M.MoveSite(kink.pattern, "L", kink.locs, (("c", True),),
                          kink.eps)),
        (KINK, M.MoveSite(kink.pattern, "L", kink.locs, (("c", "1"),),
                          kink.eps)),
        (KINK, M.MoveSite(kink.pattern, "L", kink.locs, ((["c"], 1),),
                          kink.eps)),
        # a sign choice that is a bool
        (KINK, M.MoveSite(g0r.pattern, "R", g0r.locs, (), True)),
    ]
    for d, site in stale:
        with pytest.raises(StaleSiteError):
            M.apply(d, site)
    for d, site in stale[-11:]:
        with pytest.raises(StaleSiteError, match="site out of range"):
            M.apply(d, site)


def _old_runs_conflict(runs, new):
    """The three-case rule the interval test replaced."""
    s, a, la = new
    for t, b, lb in runs:
        if s != t:
            continue
        if la and lb:
            if a < b + lb and b < a + la:
                return True
        elif la == 0 and lb:
            if b < a < b + lb:
                return True
        elif lb == 0 and la:
            if a < b < a + la:
                return True
    return False


def test_runs_conflict_is_one_interval_test():
    runs = [(s, a, la) for s in (0, 1) for a in range(6) for la in range(4)]
    for placed in runs:
        for new in runs:
            assert M._runs_conflict([placed], new) == \
                _old_runs_conflict([placed], new), (placed, new)
    assert not M._runs_conflict([], (0, 0, 1))


def test_random_site_raises_without_sites():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(NoSiteError):
        M.random_site(identity(1), "G3", rng)
    assert rng.getstate() == state  # no draw


def test_random_site_is_the_drawn_site():
    # the same site as a draw from the whole list, and the same draws
    rng = random.Random(41)
    drawn = empty = 0
    for i in range(90):
        d = random_diagram(rng, n=1 + i % 3, max_chords=4, max_diamonds=4)
        for kind in M.KINDS:
            seed = rng.random()
            ours, theirs = random.Random(seed), random.Random(seed)
            sites = M.find_sites(d, kind)
            if not sites:
                with pytest.raises(NoSiteError):
                    M.random_site(d, kind, ours)
                empty += 1
            else:
                assert M.random_site(d, kind, ours) == \
                    sites[theirs.randrange(len(sites))]
                drawn += 1
            assert ours.getstate() == theirs.getstate()
    assert drawn > 300 and empty > 50


def test_orbit_contains_seed_and_flags_truncation():
    res = M.orbit(identity(1), max_depth=1, max_size=2)
    assert canonical_key(identity(1)) in res.keys
    assert res.truncated  # larger diagrams were cut off by max_size
    with pytest.raises(ValidationError):
        M.orbit(identity(1), max_depth=0, max_size=2)


def reference_orbit(d, max_depth, max_size):
    """The orbit search as a plain loop: find_sites, apply, then check the
    size of the built diagram and take its canonical_key."""
    frontier = [canonical_key(d)]
    seen = set(frontier)
    truncated = False
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            for kind in M.KINDS:
                for site in M.find_sites(cur, kind):
                    h = M.apply(cur, site)
                    if h.decoration_count() > max_size:
                        truncated = True
                        continue
                    key = canonical_key(h)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
        frontier = nxt
        if not frontier:
            break
    else:
        if frontier:
            truncated = True
    return M.OrbitResult(frozenset(seen), truncated)


# (max_depth, largest max_size): deeper searches get smaller budgets
ORBIT_BUDGETS = ((1, 7), (2, 5), (3, 3))


def test_orbit_equals_reference_loop():
    rng = random.Random(7)
    for depth, top in ORBIT_BUDGETS:
        for size in range(2, top + 1):
            for n in (1, 2, 3):
                d = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
                want = reference_orbit(d, depth, size)
                assert M.orbit(d, depth, size) == want, (n, depth, size)
    # the budget of `xct moves orbit`, on a kink with a diamond: both
    # fragments of a G2 insertion can land in one slot
    d = random_diagram(random.Random(0), n=1, max_chords=2, max_diamonds=2)
    assert M.orbit(d, 2, 6) == reference_orbit(d, 2, 6)


# shapes with their member counts at the budget of `xct moves orbit`: the
# two whose orbits take most of the benchmark's calculus pass, and two
# small orbits whose time goes mostly to choosing the sides to walk
CLI_BUDGET_SHAPES = {
    "U1 O1": ("strands: 2\ntop: 1 2\nchords: 1:-\nstrand 1:\n"
              "strand 2: U1 O1\n", 3826),
    "D- D+": ("strands: 2\ntop: 1 2\nchords:\nstrand 1: D-\n"
              "strand 2: D+\n", 6700),
    "D- D+ D-": ("strands: 1\ntop: 1\nchords:\nstrand 1: D- D+ D-\n", 89),
    "D+, O1 U1 D-": ("strands: 2\ntop: 2 1\nchords: 1:+\nstrand 1: D+\n"
                      "strand 2: O1 U1 D-\n", 106),
}


@pytest.mark.parametrize("shape", sorted(CLI_BUDGET_SHAPES))
def test_orbit_equals_reference_at_the_cli_budget(shape):
    text, members = CLI_BUDGET_SHAPES[shape]
    d = parse_diagram(text)
    got = M.orbit(d, 2, 6)
    assert len(got.keys) == members and got.truncated
    assert got == reference_orbit(d, 2, 6)


def _created_pairs(rng, d, count):
    """``d`` with ``count`` diamond pairs created by ``G0r`` read right to
    left, at sites drawn by ``rng``."""
    for _ in range(count):
        d = M.apply(d, rng.choice([site for site in M.find_sites(d, "G0r")
                                   if site.side == "R"]))
    return d


def test_orbit_equals_reference_where_the_last_level_skips(monkeypatch):
    # budgets at which a member of the last frontier can hold a recorded
    # pure insertion that another pure insertion still fits after: at
    # depth 2 any seed, and at depths 3 and 4 a seed with created pairs,
    # whose cancellation gives an earlier member small enough
    fired = {}
    real = M._kept

    def counted(slots, count, runs):
        fired[depth] = fired.get(depth, 0) + 1
        return real(slots, count, runs)

    monkeypatch.setattr(M, "_kept", counted)
    rng = random.Random(43)
    for depth, extra, chords, pairs, strands in (
            (2, 4, 1, 0, (1, 2)), (2, 5, 1, 0, (1, 2, 3)),
            (3, 3, 0, 1, (1, 2)), (4, 1, 0, 2, (1, 2))):
        for n in strands:
            d = random_diagram(rng, n=n, max_chords=chords, max_diamonds=1)
            d = _created_pairs(rng, d, pairs)
            size = d.decoration_count() + extra
            assert M.orbit(d, depth, size) == reference_orbit(d, depth, size), (
                depth, size, d)
    assert fired[2] > 100 and fired[3] > 10 and fired[4] > 10


@pytest.mark.parametrize("shape, most", [("U1 O1", 4100), ("D- D+", 8100)])
def test_orbit_builds_commuting_insertions_once(monkeypatch, shape, most):
    # the order rule skips leaves that another path builds: 5412 and 9353
    # diagrams are built without it
    text, members = CLI_BUDGET_SHAPES[shape]
    calls = []

    def counted(*args):
        calls.append(args)
        return G.built(*args)

    monkeypatch.setattr(M, "built", counted)
    res = M.orbit(parse_diagram(text), 2, 6)
    assert len(res.keys) == members
    assert members <= len(calls) <= most


def _skipped(locs, runs):
    """Whether the order rule skips the placement ``locs`` of a pure side
    at a member whose recorded insertion has the runs ``runs``, read
    straight from its three conditions."""
    first = runs[0][:2]
    if not any(slot <= first for slot in locs):
        return False
    if any(s == t and start < q < start + width
           for s, q in locs for t, start, width in runs):
        return False

    def removed(slot):
        s, q = slot
        return s, q - sum(width for t, start, width in runs
                          if t == s and start + width <= q)

    return len({removed(slot) for slot in set(locs)}) == len(set(locs))


def test_kept_placements_follow_the_order_rule():
    # at every member that a pure insertion makes from a member of an
    # orbit, for every insertion recorded there: the kept placements,
    # listed directly, are the placements that the three conditions keep
    pure = [side for p in M.builtin_patterns() for side in p.sides.values()
            if side.pure]
    assert [(s.pattern.kind, s.name, len(s.src)) for s in pure] == [
        ("G0r", "R", 1), ("G0r", "R", 1), ("G2", "R", 2)]
    rng = random.Random(47)
    checked = skipped = early = joined = 0
    for i in range(9):
        d = random_diagram(rng, n=1 + i % 3, max_chords=2, max_diamonds=2)
        for p in M.orbit(d, 1, d.decoration_count()).keys:
            for a in pure:
                for site in _side_sites(p, a):
                    x = canonical_key(M.apply(p, site))
                    runs = a.inserted(site.locs)
                    # the runs hold the inserted tokens, and without them
                    # x is p again
                    assert sorted(M._kind_signature(x.events[s][q:q + w])
                                  for s, q, w in runs) == sorted(
                        M._kind_signature(frag) for frag in a.dst)
                    rest = [list(row) for row in x.events]
                    for s, q, w in reversed(runs):
                        del rest[s][q:q + w]
                    assert G.renumbered(x.n, x.top, x.chord_sign, rest) == p
                    joined += runs[0][:2] == (runs[-1][0],
                                              runs[-1][1] - runs[0][2])
                    for b in pure:
                        spots = b.spots(M._row_signatures(x))
                        kept = list(M._kept(spots[0], len(spots), runs))
                        assert len(kept) == len(set(kept))
                        every = list(product(*spots))
                        want = {locs for locs in every
                                if not _skipped(locs, runs)}
                        assert set(kept) == want, (x, runs)
                        checked += 1
                        skipped += len(every) - len(want)
                        early += sum(min(locs) <= runs[0][:2]
                                     for locs in kept)
    # kept placements with a slot at or before F come from the inside and
    # block-end cases; joined records are G2 runs inserted at one slot
    assert checked > 1500 and skipped > 20000 and early > 5000 and joined > 50


@pytest.mark.parametrize("shape", ["U1 O1", "D- D+"])
def test_orbit_validates_only_its_seed_and_builds_valid_members(
        monkeypatch, shape):
    # "D- D+" has G2p pair creations, which are spliced, not rewritten
    # and renumbered
    text, members = CLI_BUDGET_SHAPES[shape]
    d = parse_diagram(text)
    validated = []

    def counted(diagram):
        validated.append(diagram)
        real(diagram)

    real = G.validate
    monkeypatch.setattr(G, "validate", counted)
    monkeypatch.setattr(M, "validate", counted)
    res = M.orbit(d, 2, 6)
    monkeypatch.undo()
    assert validated == [d]
    assert len(res.keys) == members
    for key in res.keys:
        G.validate(key)


def _chord_mutants(p):
    """``p`` with one chord token of one side flipped O<->U, then ``p``
    with that token dropped, for every chord token."""
    for which in ("left", "right"):
        frags = getattr(p, which)
        for i, frag in enumerate(frags):
            for j, (kind, letter) in enumerate(frag):
                if kind == "D":
                    continue
                flip = {"O": "U", "U": "O"}[kind]
                for new in ((frag[:j] + ((flip, letter),) + frag[j + 1:]),
                            frag[:j] + frag[j + 1:]):
                    sides = {"left": p.left, "right": p.right}
                    sides[which] = frags[:i] + (new,) + frags[i + 1:]
                    yield M.MovePattern(p.kind, p.variant, p.vars,
                                        sides["left"], sides["right"])


def test_side_balance_check():
    sides = [side for p in M.builtin_patterns() for side in p.sides.values()]
    assert len(sides) == 22 and all(side.balanced for side in sides)
    mutants = [m for p in M.builtin_patterns() for m in _chord_mutants(p)]
    assert len(mutants) == 88
    for m in mutants:
        assert not any(side.balanced for side in m.sides.values()), m


def test_orbit_refuses_an_unbalanced_side_before_building(monkeypatch):
    (dangling,) = M.parse_patterns(DANGLING)
    table = M.builtin_patterns() + [dangling]
    monkeypatch.setattr(M, "builtin_patterns", lambda: table)

    def no_member(*args):
        raise AssertionError("a member was built")

    for name in ("canonical_key", "renumbered", "built", "_raised"):
        monkeypatch.setattr(M, name, no_member)
    with pytest.raises(ValidationError,
                       match="G1f variant 1 side L: chord ends do not"):
        M.orbit(identity(1), 2, 6)


def test_orbit_budgets_must_be_ints():
    # 6.5 ran as 6, and 2.0 and None raised a bare TypeError
    for bad in (2.0, 6.5, "6", None, True):
        for budgets in ((bad, 6), (2, bad)):
            with pytest.raises(ValidationError, match="is not an int"):
                M.orbit(identity(1), *budgets)


def test_signature_skip_is_sound():
    # a side whose spot list ends empty, which the orbit skips for a
    # diagram, has no site there by the token-by-token walk either
    rng = random.Random(5)
    sides = [side for p in M.builtin_patterns() for side in p.sides.values()]
    assert len(sides) == 22
    pairs = skipped = sited = 0
    for _ in range(300):
        d = random_diagram(rng, n=rng.choice((1, 2, 3)), max_chords=3,
                           max_diamonds=3)
        rows = M._row_signatures(d)
        for side in sides:
            spots = side.spots(rows)
            sites = list(side.sites(d))
            ends_empty = not spots[-1]
            # the list stops at the first fragment with no spot
            assert len(spots) == len(side.src) or ends_empty
            if ends_empty:
                assert sites == [] == _match_walk(d, side), (
                    side.pattern.kind, side.name, d)
            if not any(side.sigs):  # every source run empty
                continue
            pairs += 1
            sited += bool(sites)
            skipped += ends_empty
    # the skip fires on most match-side pairs, and sites are common enough
    # to catch a skip that should not fire
    assert skipped > pairs / 2 and sited > 100


def test_orbit_members_share_rows_and_chords():
    # one object per row value and per chord tuple value across the
    # members, spliced and renumbered alike
    d = random_diagram(random.Random(2), n=2, max_chords=2, max_diamonds=2)
    keys = M.orbit(d, 2, 5).keys
    rows = [row for k in keys for row in k.events]
    chords = [k.chords for k in keys]
    assert len(keys) > 100
    assert len({id(row) for row in rows}) == len(set(rows))
    assert len({id(c) for c in chords}) == len(set(chords))


def _side_sites(d, side):
    """The sites of one pattern side in ``d``, as :class:`MoveSite`."""
    return [M.MoveSite(side.pattern, side.name, *site)
            for site in side.sites(d)]


def _match_run(row, start, frag, assign, sign, signs, eps):
    """The bindings ``assign`` extended by matching a fragment at
    ``row[start:]`` token by token, or None when it does not match
    there."""
    if start + len(frag) > len(row):
        return None
    out = dict(assign)
    for (kind, val), got in zip(frag, row[start:]):
        if kind == "D":
            ok = got == ("D", val)
        elif val in out:
            ok = got == (kind, out[val])
        else:
            ok = (got[0] == kind and got[1] not in out.values()
                  and sign[got[1]] == signs[val, eps])
            out[val] = got[1]
        if not ok:
            return None
    return out


def _match_walk(d, side):
    """The sites of any side by matching its source runs token by token,
    fragment by fragment at every position: under each sign choice,
    every non-overlapping binding, in (strand, position) order per
    fragment."""
    frags, sign, out = side.src, d.chord_sign, []

    def rec(i, locs, runs, assign, eps):
        if i == len(frags):
            out.append((locs, tuple(sorted(assign.items())), eps))
            return
        for s, row in enumerate(d.events):
            for start in range(len(row) - len(frags[i]) + 1):
                run = (s, start, len(frags[i]))
                if M._runs_conflict(runs, run):
                    continue
                got = _match_run(row, start, frags[i], assign, sign,
                                 side.signs, eps)
                if got is not None:
                    rec(i + 1, locs + ((s, start),), runs + (run,), got,
                        eps)

    for eps in side.eps_choices:
        rec(0, (), (), {}, eps)
    return out


# sides whose runs can collide where no shipped side's can: two diamond
# runs, a slot that may fall inside a run of two diamonds, and two chord
# runs that bind the same letters around one diamond
COLLIDING = M.parse_patterns("""
pattern G0r
frag 1: D+
frag 2: D+ D-
frag 3:
to 1:
to 2:
to 3: D+ D-
end

pattern G1f
var a: +
frag 1: Oa D+
frag 2: D+ Ua
to 1: Oa
to 2: Ua
end
""")


def test_sites_follow_the_match_walk():
    # random diagrams, each after one random move too, and the opened
    # sides of every shipped pattern, where each of its sides has a site
    rng = random.Random(23)
    diagrams = [d for p in M.builtin_patterns() for eps in (1, -1)
                for d in M.open_sides(p, eps)]
    for _ in range(300):
        d = random_diagram(rng, n=rng.choice((1, 2, 3)), max_chords=3,
                           max_diamonds=4)
        diagrams.append(d)
        sites = M.find_sites(d, rng.choice(M.KINDS))
        if sites:
            diagrams.append(M.apply(d, rng.choice(sites)))
    shared = apart = 0
    sites_of = {}
    for d in diagrams:
        for pattern in M.builtin_patterns() + COLLIDING:
            for side in pattern.sides.values():
                got = list(side.sites(d))
                assert got == _match_walk(d, side), (
                    pattern.kind, pattern.variant, side.name, d)
                if pattern in COLLIDING:
                    continue
                key = pattern.kind, pattern.variant, side.name
                sites_of[key] = sites_of.get(key, 0) + len(got)
                if pattern.kind == "G2p" and side.literal:
                    # the slot and the replaced diamond at one position,
                    # and on different strands
                    shared += sum(a == b for (a, b), _, _ in got)
                    apart += sum(a[0] != b[0] for (a, b), _, _ in got)
    assert shared > 500 and apart > 2000
    # every shipped side has sites to compare
    assert len(sites_of) == 22 and min(sites_of.values()) > 0
    assert sum(sites_of.values()) > 100000


def test_literal_targets_hold_every_letter():
    # a literal splice numbers the letters by the first run alone
    sides = 0
    for pattern in M.builtin_patterns():
        for side in pattern.sides.values():
            if not side.literal:
                continue
            assert not M._letters(side.src)
            letters = set(M._letters(side.dst))
            for frag in filter(None, side.dst):
                assert set(M._letters((frag,))) == letters
            sides += 1
    # G0r either way; G2 and the four G2p read right to left
    assert sides == 9


def test_literal_splice_equals_apply():
    rng = random.Random(31)
    sites_of = {}
    shared = g2_shared = g2_apart = 0
    for i in range(40):
        d = random_diagram(rng, n=1 + i % 3, max_chords=3, max_diamonds=2)
        # and d with a diamond pair created, which G0r cancels again
        pair = rng.choice([site for site in M.find_sites(d, "G0r")
                           if site.side == "R"])
        for d in (canonical_key(d), canonical_key(M.apply(d, pair))):
            ids_before = M._ids_before(d)
            for pattern in M.builtin_patterns():
                for side in pattern.sides.values():
                    if not side.literal:
                        continue
                    # the splices come placement by placement, one per sign
                    spots = side.spots(M._row_signatures(d))
                    splices = list(M._splices(d, side, spots, ids_before,
                                              {}, {}))
                    order = [(locs, eps) for locs in product(*spots)
                             for eps in side.eps_choices]
                    sites = _side_sites(d, side)
                    assert len(splices) == len(order) == len(sites)
                    spliced = dict(zip(order, splices))
                    for site in sites:
                        got = spliced[site.locs, site.eps]
                        assert got == canonical_key(M.apply(d, site)), site
                        kind = pattern.kind + site.side
                        sites_of[kind] = sites_of.get(kind, 0) + 1
                        shared += (pattern.kind == "G2p"
                                   and site.locs[0] == site.locs[1])
                        if kind == "G2R":
                            g2_shared += site.locs[0] == site.locs[1]
                            g2_apart += site.locs[0][0] != site.locs[1][0]
    assert sites_of["G0rL"] + sites_of["G0rR"] + sites_of["G2pR"] > 1000
    assert sites_of["G0rL"] > 30 and sites_of["G2pR"] > 1000
    # G2p runs inserted and replaced at one position, which need the
    # tie-break of _Side.plan
    assert shared > 100
    # both G2 fragments inserted in one slot, and on different strands
    assert g2_shared > 300 and g2_apart > 1000


def test_size_change_is_exact_at_every_site():
    rng = random.Random(11)
    checked = 0
    for i in range(12):
        d = random_diagram(rng, n=1 + i % 2, max_chords=3, max_diamonds=3)
        for pattern in M.builtin_patterns():
            for side in pattern.sides.values():
                change = side.change
                for site in _side_sites(d, side):
                    got = M.apply(d, site).decoration_count()
                    assert got == d.decoration_count() + change, site
                    checked += 1
    assert checked > 1000


def test_orbit_closes_small_family():
    # a single diamond pair cancels to the identity strand within depth 1
    d = XCGaussDiagram(1, (1,), [], [(("D", 1), ("D", -1))])
    res = M.orbit(d, max_depth=1, max_size=2)
    assert canonical_key(identity(1)) in res.keys


def test_pattern_parse_errors():
    with pytest.raises(ParseError):
        M.parse_patterns("pattern G7\nend\n")
    with pytest.raises(ParseError):
        M.parse_patterns("pattern G2\nfrag 1: Oa\nend\n")
    with pytest.raises(ParseError):
        M.parse_patterns("pattern G2\nfrag 1: Qa\nto 1:\nend\n")
    with pytest.raises(ParseError) as err:
        M.parse_patterns("pattern G0r\nend\n")
    assert err.value.line == 2
    # a fragment line with no colon, also where its comment has one
    for text in ("pattern G0r\nfrag 1: D+ D-\nto 1\nend\n",
                 "pattern G0r\nfrag 1: D+ D-\nto 1 # note: empty\nend\n"):
        with pytest.raises(ParseError) as err:
            M.parse_patterns(text)
        assert (err.value.line, err.value.column) == (3, 5)


@pytest.mark.parametrize("text,where", [
    # an unterminated block is reported at its header
    ("pattern G0\nfrag 1: D+ D-\nto 1:\nend\n\npattern G2\nfrag 1:\n",
     (6, 1)),
    # a repeated var letter, at the letter of the repeat
    ("pattern G2\nvar a: +\n  var  a: -\nfrag 1:\nto 1: Oa Ua\nend\n",
     (3, 8)),
    # a repeated fragment line, at the index of the repeat
    ("pattern G0\nfrag 1: D+ D-\nfrag  1: D-\nto 1:\nend\n", (3, 7)),
    ("pattern G0\nfrag 1: D+ D-\nto 1:\n to 1: D+\nend\n", (4, 5)),
])
def test_pattern_parse_error_positions(text, where):
    with pytest.raises(ParseError) as err:
        M.parse_patterns(text)
    assert (err.value.line, err.value.column) == where


def test_undeclared_chord_letter_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        M.parse_patterns("pattern G1f\nfrag 1: Ox D- Ux\nto 1: Ux D+ Ox\nend\n")
    assert (err.value.line, err.value.column) == (2, 9)
