import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wred.kernel import Diverge, InputError, Point, Prefix, interleave_tapes
from wred.problems import (
    HAND_TREES,
    Coloring,
    ThinSolution,
    TreeByRule,
    coloring_from_tape,
    coloring_to_point,
    coh_spec,
    index_string,
    level_measures,
    level_members,
    leftmost_path_point,
    measure_at_level,
    rrt_spec,
    rt_spec,
    set_members_at,
    string_index,
    thin_solution_from_tape,
    thin_solution_tape,
    tolerance_rt_tape,
    tolerance_thin_tape,
    tree_to_point,
    ts_spec,
    verify_homogeneous_at,
    verify_path_at,
    verify_rainbow_at,
    verify_thin_at,
    wkl_spec,
)

from helpers import echo_spec


# --- totalization -------------------------------------------------------------


def test_totalize_zeros_is_constant_zero():
    f = coloring_from_tape(Point.zeros(), 1, 2)
    assert all(f.value((x,)) == 0 for x in range(20))


def test_totalize_all_ones_n2_k3():
    # block width 2, value (2^2 - 1) mod 3 = 0
    f = coloring_from_tape(Point.ones(), 2, 3)
    assert all(f.value(t) == 0 for t in [(0, 1), (2, 5), (7, 9)])


def test_encode_decode_roundtrip_pairs():
    rng = random.Random(11)
    table = {}
    f = Coloring(2, 4, lambda t: table.setdefault(t, rng.randrange(4)), "random")
    decoded = coloring_from_tape(coloring_to_point(f), 2, 4)
    for t in f.tuples(range(10)):
        assert decoded.value(t) == f.value(t)


def test_encode_decode_roundtrip_omega():
    f = Coloring(1, None, lambda t: t[0] * 3, "spread")
    decoded = coloring_from_tape(coloring_to_point(f), 1, None)
    assert [decoded.value((x,)) for x in range(8)] == [0, 3, 6, 9, 12, 15, 18, 21]


@given(st.integers(0, 2**30), st.integers(1, 2), st.integers(1, 5))
@settings(max_examples=40)
def test_every_point_decodes(seed, n, k):
    f = coloring_from_tape(Point.from_seed(seed), n, k)
    for t in f.tuples(range(6)):
        assert 0 <= f.value(t) < k


def test_coloring_value_input_and_range_errors():
    from wred.kernel import ContractError

    f = Coloring(2, 3, lambda t: t[1] - t[0], "gap")
    assert f.value([0, 2]) == 2 and f.value((4, 5)) == 1 and f.value(x for x in (1, 3)) == 2
    for xs, shown in (((1, 1), "(1, 1)"), ([2, 1], "(2, 1)"), ((0, 1, 2), "(0, 1, 2)"),
                      ((0,), "(0,)"), ([], "()")):
        with pytest.raises(InputError) as e:
            f.value(xs)
        assert str(e.value) == f"gap: {shown} is not an increasing 2-tuple"
    with pytest.raises(ContractError) as e:
        f.value([0, 3])
    assert str(e.value) == "gap: color 3 out of range at (0, 3)"
    g = Coloring(3, None, lambda t: t[0], "omega")
    assert g.value((0, 1, 5)) == 0
    for xs in ((0, 2, 2), (0, 3, 2), (3, 1, 2)):
        with pytest.raises(InputError):
            g.value(xs)


def test_decoded_coloring_matches_read_color_at_every_rank():
    from wred.kernel import tuple_rank
    from wred.problems import read_color

    for seed, k in ((3, 2), (4, 3), (5, 5)):
        point = Point.from_seed(seed)
        for n in (1, 2, 3):
            tape = _Recording(point)
            f = coloring_from_tape(tape, n, k)
            tuples = list(itertools.combinations(range(12), n))
            want = [read_color(point, k, tuple_rank(t)) for t in tuples]
            assert [f.value(t) for t in tuples] == want
            assert f.memo == dict(zip(tuples, want))
            reads = len(tape.reads)
            assert [f.value(list(t)) for t in tuples] == want
            assert len(tape.reads) == reads  # the repeats never reach the tape


def test_decoded_coloring_memoizes_no_stalled_read():
    from wred.kernel import FunctionalTape, pointwise
    from wred.problems import read_color

    copy = pointwise(1, lambda ctx, x: ctx.query(0, x), "copy")
    for k in (2, 3):
        w = (k - 1).bit_length()
        # the tape answers blocks 0..2, ranks (0, 1), (0, 2), (1, 2), and
        # stalls at block 3, rank (0, 3)
        oracle = Prefix((1, 0, 0) * w)
        tape = _Recording(FunctionalTape(copy, [oracle], 64))
        f = coloring_from_tape(tape, 2, k)
        good = [(0, 1), (0, 2), (1, 2)]
        assert [f.value(t) for t in good] == [read_color(oracle, k, r) for r in range(3)]
        for _ in range(3):
            for t in ((0, 3), (1, 3), (2, 7)):
                with pytest.raises(Diverge):
                    f.value(t)
        assert list(f.memo) == good
        # every stalled read reached the tape again, at ranks 3, 4 and 23
        assert [tape.reads.count(r * w) for r in (3, 4, 23)] == [3, 3, 3]


# --- verifiers ----------------------------------------------------------------


def test_verify_homogeneous_examples():
    const = Coloring(2, 2, lambda t: 1, "const")
    assert verify_homogeneous_at(const, range(8), 8, 4).ok
    parity = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity")
    assert verify_homogeneous_at(parity, {0, 2, 4, 6}, 8, 4).ok
    assert verify_homogeneous_at(parity, {0, 1, 2}, 8, 3).failed
    assert verify_homogeneous_at(parity, {0, 2}, 8, 4).status == "inconclusive"


def test_verify_thin_examples():
    mod3 = Coloring(1, 3, lambda t: t[0] % 3, "mod3")
    assert verify_thin_at(mod3, ThinSolution.of({0, 1, 3, 4, 6, 7}, 2), 9, 6).ok
    assert verify_thin_at(mod3, ThinSolution.of({0, 2}, 2), 9, 2).failed
    const1 = Coloring(1, 2, lambda t: 1, "one")
    assert verify_thin_at(const1, ThinSolution.of(range(10), 0), 10, 4).ok
    with pytest.raises(InputError):
        verify_thin_at(mod3, ThinSolution.of({0}, 7), 9, 1)


def test_verify_rainbow_examples():
    from wred.kernel import tuple_rank

    inj = Coloring(2, None, tuple_rank, "rank")
    assert verify_rainbow_at(inj, range(8), 8, 4).ok
    glued = Coloring(2, None, lambda t: 0 if t in ((0, 2), (1, 2)) else tuple_rank(t) + 1, "glued")
    assert verify_rainbow_at(glued, {0, 1, 2}, 8, 3).failed


def test_verify_path_examples():
    assert verify_path_at(TreeByRule.full(), Point.zeros(), 12).ok
    starts1 = HAND_TREES["first-bit"](1)
    assert verify_path_at(starts1, Point.zeros(), 1).failed
    no11 = HAND_TREES["no-11"]()
    assert verify_path_at(no11, Point.alternating(), 16).ok


def test_fail_monotone_under_horizon_growth():
    parity = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity")
    for n1 in range(3, 8):
        v1 = verify_homogeneous_at(parity, {0, 1, 2}, n1, 3)
        assert v1.failed
        assert verify_homogeneous_at(parity, {0, 1, 2}, n1 + 4, 3).failed


# --- tolerance ----------------------------------------------------------------


def test_tolerance_rt_examples():
    tape = Point.from_set({1, 3, 5, 7})
    assert set_members_at(tolerance_rt_tape(tape, 0, 2), 10) == [1, 3, 5, 7]
    assert set_members_at(tolerance_rt_tape(tape, 4, 2), 10) == [5, 7]


def test_tolerance_tape_matches_set_version():
    tape = Point.from_set({1, 3, 5, 7})
    out = tolerance_rt_tape(tape, 4, 2)
    assert set_members_at(out, 10) == [5, 7]
    # m = 0 trims nothing: no tuple has rank below 0
    base = Point.from_seed(21)
    assert [tolerance_rt_tape(base, 0, 2).bit(p) for p in range(16)] == [
        base.bit(p) for p in range(16)]
    # thin solutions: the set (even bits) is trimmed below 4, the omitted
    # color (odd bits) is untouched
    thin = tolerance_thin_tape(base, 4, 2)
    assert [thin.bit(p) for p in range(24)] == [
        0 if p % 2 == 0 and p // 2 <= 3 else base.bit(p) for p in range(24)]
    # echo: the unary bound d (odd bits) rises to max(d, m), the tail stays
    tail = Point.from_seed(22)
    for d, m in ((2, 5), (7, 3), (0, 0)):
        sol = interleave_tapes(tail, Point(lambda q, d=d: 1 if q < d else 0, "unary"))
        out = echo_spec().tolerance(sol, m)
        assert [out.bit(2 * q) for q in range(12)] == [tail.bit(q) for q in range(12)]
        assert [out.bit(2 * q + 1) for q in range(12)] == [
            1 if q < max(d, m) else 0 for q in range(12)]


def test_tolerance_transfer_property():
    # brute-forced homogeneous sets survive finite instance modification
    from wred.oracle import SearchBudget, find_homogeneous

    rng = random.Random(5)
    checked = 0
    for _ in range(50):
        m = rng.randrange(0, 6)
        table1 = [rng.randrange(2) for _ in range(200)]
        table2 = list(table1)
        for r in range(m):
            table2[r] = rng.randrange(2)
        from wred.kernel import tuple_rank

        f1 = Coloring(2, 2, lambda t: table1[tuple_rank(t)], "B1")
        f2 = Coloring(2, 2, lambda t: table2[tuple_rank(t)], "B2")
        res = find_homogeneous(f1, SearchBudget(horizon=12, size=4))
        if not res.found:
            continue
        checked += 1
        moved = set_members_at(tolerance_rt_tape(Point.from_set(res.members), m, 2), 12)
        assert verify_homogeneous_at(f2, moved, 12, 1).status != "fail"
    assert checked >= 20


# --- trees and measures ---------------------------------------------------------


def test_measure_examples():
    assert measure_at_level(TreeByRule.full(), 5) == 1
    first1 = HAND_TREES["first-bit"](1)
    assert measure_at_level(first1, 3) == Fraction(1, 2)


def test_measure_monotone_nonincreasing():
    no11 = HAND_TREES["no-11"]()
    vals = [measure_at_level(no11, d) for d in range(10)]
    assert all(vals[i + 1] <= vals[i] for i in range(9))


def test_non_downward_closed_tree_is_contract_error():
    from wred.kernel import ContractError

    bad = TreeByRule(lambda s: len(s) != 1, "gap-at-1")
    with pytest.raises(ContractError):
        measure_at_level(bad, 3)


def test_hand_trees_are_rule_backed_with_stable_labels():
    trees = {
        "full": HAND_TREES["full"](),
        "no-11": HAND_TREES["no-11"](),
        "first-1": HAND_TREES["first-bit"](1),
        "first-0": HAND_TREES["first-bit"](0),
        "first-bit": HAND_TREES["first-bit"](1, "first-bit"),
        "fix(2=1)": HAND_TREES["fix"](2, 1),
    }
    rules = {
        "full": lambda b: True,
        "no-11": lambda b: all(b[i:i + 2] != (1, 1) for i in range(len(b) - 1)),
        "first-1": lambda b: len(b) == 0 or b[0] == 1,
        "first-0": lambda b: len(b) == 0 or b[0] == 0,
        "first-bit": lambda b: len(b) == 0 or b[0] == 1,
        "fix(2=1)": lambda b: len(b) <= 2 or b[2] == 1,
    }
    for label, t in trees.items():
        # no index_member: level_members keeps the orphan scan for them
        assert t.label == label and t.index_member is None
        for n in range(7):
            for bits in itertools.product((0, 1), repeat=n):
                assert (Prefix(bits) in t) == rules[label](bits), (label, bits)


def test_string_index_roundtrip():
    for i in range(200):
        assert string_index(index_string(i)) == i
    assert string_index(Prefix()) == 0


def test_tree_tape_roundtrip():
    no11 = HAND_TREES["no-11"]()
    back = TreeByRule.from_tape(tree_to_point(no11))
    for d in range(6):
        assert measure_at_level(back, d) == measure_at_level(no11, d)


def test_decoded_tree_always_downward_closed():
    t = TreeByRule.from_tape(Point.from_seed(99))
    measure_at_level(t, 8)  # must not raise


class _Recording:
    """A tape that logs every position it is asked for."""

    def __init__(self, base):
        self.base = base
        self.reads = []

    def bit(self, pos):
        self.reads.append(pos)
        return self.base.bit(pos)


def _prefix_walk_tree(tape):
    """The tape coding as a plain rule: every nonempty prefix flagged."""
    return TreeByRule(
        lambda s: all(tape.bit(string_index(Prefix(s.bits[:j]))) == 1 for j in range(1, len(s) + 1)),
        "prefix-walk",
    )


def _first_reads(tape):
    return list(dict.fromkeys(tape.reads))


def test_index_tree_levels_match_prefix_walk():
    for seed in range(20):
        fast_tape, slow_tape = _Recording(Point.from_seed(seed)), _Recording(Point.from_seed(seed))
        fast, slow = TreeByRule.from_tape(fast_tape), _prefix_walk_tree(slow_tape)
        assert fast.index_member is not None and slow.index_member is None
        for d in range(9):
            assert level_members(fast, d) == level_members(slow, d)
        # same positions, first read in the same order; the memo reads each once
        assert _first_reads(fast_tape) == _first_reads(slow_tape)
        assert len(fast_tape.reads) == len(set(fast_tape.reads))


def test_index_tree_membership_matches_prefix_walk():
    for seed in range(20):
        fast_tape, slow_tape = _Recording(Point.from_seed(seed)), _Recording(Point.from_seed(seed))
        fast, slow = TreeByRule.from_tape(fast_tape), _prefix_walk_tree(slow_tape)
        # deepest strings first, so each query climbs to an undecided ancestor
        for idx in reversed(range(2**7 - 1)):
            assert (index_string(idx) in fast) == (index_string(idx) in slow)
        assert _first_reads(fast_tape) == _first_reads(slow_tape)


def test_index_tree_divergence_is_never_memoized():
    tape = _Recording(Prefix((1, 1, 1)))  # nodes 0..2 answer; index 3 onward diverges
    t = TreeByRule.from_tape(tape)
    for _ in range(3):
        with pytest.raises(Diverge):
            Prefix((0, 0)) in t  # index 3, under the member (0,)
        with pytest.raises(Diverge):
            Prefix((1, 1, 0)) in t  # index 13, under the undecided index 6
        with pytest.raises(Diverge):
            level_members(t, 2)
    assert tape.reads.count(3) == 6 and tape.reads.count(6) == 3
    assert Prefix((1,)) in t and level_members(t, 1) == [Prefix((0,)), Prefix((1,))]


def _path_walk_member(tape):
    """Decoded-tree membership that always walks up to a decided ancestor."""
    known = {0: True}

    def member(idx):
        path = []
        while idx not in known:
            path.append(idx)
            idx = (idx - 1) >> 1
        inside = known[idx]
        for i in reversed(path):
            if inside:
                inside = tape.bit(i) == 1
            known[i] = inside
        return inside

    return member


def _answer(member, idx):
    try:
        return member(idx)
    except Diverge as d:
        return d.reason


def test_decided_parent_reads_match_the_path_walk_read_for_read():
    # level walks, the children of decided nodes, and deep nodes under
    # undecided ones, on full tapes and on tapes that diverge past a prefix
    for seed in range(12):
        rng = random.Random(seed)
        base = Point.from_seed(seed)
        if seed % 3 == 0:
            base = Prefix(tuple(base.bit(i) for i in range(40)))
        fast_tape, slow_tape = _Recording(base), _Recording(base)
        fast = TreeByRule.from_tape(fast_tape)
        slow = _path_walk_member(slow_tape)
        # index order asks every node after its parent; then memo hits and deep nodes
        queries = list(range(2**6)) * 2 + [rng.randrange(2**9) for _ in range(300)]
        for idx in queries:
            assert _answer(fast.index_member, idx) == _answer(slow, idx), (seed, idx)
        assert fast_tape.reads == slow_tape.reads, seed


def test_leftmost_path_stays_inside():
    no11 = HAND_TREES["no-11"]()
    p = leftmost_path_point(no11, 8)
    assert verify_path_at(no11, p, 12).ok


def _greedy_reference(t, bits, n):
    """The path grown past bits by Prefix tests, 0-child first: the first
    n bits, or the length at which it dies."""
    grown = list(bits)
    while len(grown) < n:
        cur = Prefix(tuple(grown))
        if cur.extend(0) in t:
            grown.append(0)
        elif cur.extend(1) in t:
            grown.append(1)
        else:
            return len(grown)
    return grown


def _path_bits(p, n):
    try:
        return [p.bit(i) for i in range(n)]
    except Diverge as e:
        assert e.reason == "gap"
        return e.position


def _check_leftmost_search(make, depths):
    """make() -> (tree, reads): a fresh tree and the log of what it reads.
    The leftmost search names level_members' first string, reads a subset
    of what the level walk reads, and grows on as the Prefix greedy does.
    Returns how often it read strictly less."""
    fewer = 0
    for d in depths:
        (dfs, dfs_reads), (walk, walk_reads) = make(), make()
        level = level_members(walk, d)
        if not level:
            with pytest.raises(InputError, match=f"dead at depth {d}"):
                leftmost_path_point(dfs, d)
        else:
            p = leftmost_path_point(dfs, d)
            assert _path_bits(p, d) == list(level[0].bits), d
        assert set(dfs_reads) <= set(walk_reads), d
        fewer += set(dfs_reads) < set(walk_reads)
        if level:
            assert _path_bits(p, d + 4) == _greedy_reference(walk, level[0].bits, d + 4), d
    return fewer


def test_leftmost_search_matches_level_walk_on_decoded_trees():
    fewer = 0
    for seed in range(20):

        def make(seed=seed):
            tape = _Recording(Point.from_seed(seed))
            return TreeByRule.from_tape(tape), tape.reads

        fewer += _check_leftmost_search(make, range(9))
    assert fewer > 0


def test_leftmost_search_matches_level_walk_on_tracking_trees():
    from wred.catalog import half_measure_tree

    fewer = 0
    for base in (HAND_TREES["full"], lambda: HAND_TREES["first-bit"](1), HAND_TREES["no-11"]):
        for sigma in (Prefix(), Prefix((1,)), Prefix((0, 1))):

            def make(base=base, sigma=sigma):
                t, asked = half_measure_tree(base(), sigma), []
                member = t.index_member
                t.index_member = lambda i: asked.append(i) or member(i)
                return t, asked

            fewer += _check_leftmost_search(make, range(9))
    assert fewer > 0


def test_leftmost_search_ignores_divergence_right_of_the_path():
    # strings 0, 1 and 00 are in; the tape diverges from index 4 (01) on
    t = TreeByRule.from_tape(Prefix((1, 1, 1, 1)))
    with pytest.raises(Diverge):
        level_members(t, 2)
    path = leftmost_path_point(t, 2)
    assert _path_bits(path, 2) == [0, 0]
    with pytest.raises(Diverge):  # past depth 2 the greedy step reads index 7
        path.bit(2)


def test_dead_tree_is_input_error_on_both_paths():
    dead = TreeByRule.from_tape(Point.zeros(), "zeros")
    stub = TreeByRule(lambda s: len(s) < 2, "stub")
    assert stub.index_member is None
    with pytest.raises(InputError, match="zeros: dead at depth 1"):
        leftmost_path_point(dead, 1)
    with pytest.raises(InputError, match="stub: dead at depth 2"):
        leftmost_path_point(stub, 2)
    # the root is a member, so depth 0 has a path; it dies past the root
    assert _path_bits(leftmost_path_point(dead, 0), 3) == 0
    assert _path_bits(leftmost_path_point(stub, 1), 3) == 1


def test_rule_tree_levels_test_each_string_once():
    tested: dict = {}

    def rule(s):
        tested[s.bits] = tested.get(s.bits, 0) + 1
        return all(s.bits[i : i + 2] != (1, 1) for i in range(len(s) - 1))

    t = TreeByRule(rule, "counted-no-11")
    assert level_members(t, 8) == level_members(HAND_TREES["no-11"](), 8)
    assert len(tested) == 2**9 - 1 and set(tested.values()) == {1}


def test_orphan_named_is_the_first_one_scanned():
    from wred.kernel import ContractError

    same_level = TreeByRule(lambda s: len(s) <= 1 or s.bits in {(0, 1, 1), (1, 1, 0)}, "two")
    for check in (level_members, measure_at_level, leftmost_path_point):
        with pytest.raises(ContractError) as e:
            check(same_level, 3)
        assert str(e.value) == "two: Prefix(011) present but parent missing"
    # a lower level is scanned before a lexicographically smaller orphan above it
    two_levels = TreeByRule(lambda s: s.bits in {(), (0,), (1, 0), (0, 0, 1)}, "levels")
    with pytest.raises(ContractError) as e:
        level_members(two_levels, 3)
    assert str(e.value) == "levels: Prefix(10) present but parent missing"


def test_orphan_at_the_scan_cap_is_contract_error():
    """2^14 equals _ORPHAN_SCAN_MAX, so level 14 is the last one scanned."""
    from wred.kernel import ContractError
    from wred.problems import _ORPHAN_SCAN_MAX

    assert 1 << 14 == _ORPHAN_SCAN_MAX
    orphan = (1,) * 14  # its parent 1^13 is not in t, whose other members are the 0^d
    t = TreeByRule(lambda s: not any(s.bits) or s.bits == orphan, "late-orphan")
    assert level_members(t, 13) == [Prefix((0,) * 13)]
    with pytest.raises(ContractError) as e:
        level_members(t, 14)
    assert str(e.value) == f"late-orphan: Prefix({'1' * 14}) present but parent missing"


def test_level_measures_match_the_per_level_walk():
    """One walk gives every level's measure: the hand trees, whose rules
    get the orphan scan, and one walked past _ORPHAN_SCAN_MAX to level 15."""
    from wred.kernel import ContractError
    from wred.problems import _ORPHAN_SCAN_MAX

    trees = [HAND_TREES["full"](), HAND_TREES["no-11"](), HAND_TREES["first-bit"](0),
             HAND_TREES["first-bit"](1), HAND_TREES["fix"](2, 1)]
    for t in trees:
        assert level_measures(t, 9) == [measure_at_level(t, d) for d in range(10)], t.label
    assert (1 << 15) > _ORPHAN_SCAN_MAX
    no11 = HAND_TREES["no-11"]()
    deep = level_measures(no11, 15)
    assert deep == [measure_at_level(no11, d) for d in range(16)]
    assert deep[15] == Fraction(1597, 1 << 15)  # Fibonacci: strings of length 15 without 11
    assert level_measures(no11, 0) == [1]
    with pytest.raises(ContractError, match="present but parent missing"):
        level_measures(TreeByRule(lambda s: len(s) != 1, "gap-at-1"), 3)
    with pytest.raises(ContractError, match="root missing"):
        level_measures(TreeByRule(lambda s: False, "empty"), 2)
    with pytest.raises(InputError):
        level_measures(no11, -1)


def test_index_tree_measure_builds_no_strings(monkeypatch):
    import wred.problems as problems

    built = []
    real = problems.index_string
    monkeypatch.setattr(problems, "index_string", lambda i: built.append(i) or real(i))
    t = TreeByRule.from_tape(Point.from_seed(5))
    mu = measure_at_level(t, 8)
    path = leftmost_path_point(TreeByRule.from_tape(Point.from_bits((), tail=1)), 8)
    assert [path.bit(i) for i in range(12)] == [0] * 12
    assert built == []
    assert Fraction(len(level_members(t, 8)), 256) == mu and len(built) == mu * 256


# --- thin solution wire form -----------------------------------------------------


def test_thin_tape_roundtrip():
    tape = thin_solution_tape(Point.from_set({2, 4, 9}), 3)
    sol = thin_solution_from_tape(tape, 5, 16)
    assert sol == ThinSolution.of({2, 4, 9}, 3)


def test_thin_tape_rejects_out_of_range():
    tape = thin_solution_tape(Point.from_set({1}), 4)
    with pytest.raises(InputError):
        thin_solution_from_tape(tape, 3, 8)


def test_rt_spec_sample_verify_cycle():
    spec = rt_spec(1, 2)
    rng = random.Random(0)
    from wred.oracle import SearchBudget

    for _ in range(10):
        tape = spec.sample_instance(rng)
        inst = spec.decode(tape)
        sols = spec.brute_solution_tapes(inst, SearchBudget(horizon=16, size=4))
        assert sols, "sampler must admit desk-scale solutions"
        assert spec.verify_at(inst, sols[0], 16, 4).ok


@pytest.mark.parametrize("make_spec, search", [
    (lambda: rt_spec(2, 2), "find_homogeneous"),
    (lambda: ts_spec(2, 3), "find_thin"),
    (lambda: rrt_spec(2, 2), "find_rainbow"),
], ids=["rt", "ts", "rrt"])
def test_brute_solution_tape_reads_the_members_a_total_set_tape_reads(make_spec, search):
    # a solver's tape is the sample its search saw, a gap beyond it; the
    # members a verifier reads are those of the total set tape it replaces
    from wred import oracle

    spec, find = make_spec(), getattr(oracle, search)
    rng = random.Random(search)
    solved = 0
    for _ in range(200):
        budget = oracle.SearchBudget(horizon=rng.randrange(4, 17), size=rng.randrange(1, 5))
        inst = spec.decode(spec.sample_instance(rng))
        res = find(inst, budget)
        sols = spec.brute_solution_tapes(inst, budget)
        assert len(sols) == res.found
        if not res.found:
            continue
        solved += 1
        total = Point.from_set(res.members)
        for horizon in (budget.horizon - 1, budget.horizon, budget.horizon + 3):
            if search == "find_thin":
                want = thin_solution_from_tape(thin_solution_tape(total, res.omitted), 3, horizon)
                assert thin_solution_from_tape(sols[0], 3, horizon) == want
            else:
                assert set_members_at(sols[0], horizon) == set_members_at(total, horizon)
        with pytest.raises(Diverge):  # the search saw nothing beyond its horizon
            (sols[0].bit(2 * budget.horizon) if search == "find_thin"
             else sols[0].bit(budget.horizon))
    assert solved >= 100


def test_ts_spec_round():
    spec = ts_spec(1, 3)
    inst = spec.decode(Point.zeros())
    tape = thin_solution_tape(Point.from_set(range(8)), 1)
    assert spec.verify_at(inst, tape, 8, 4).ok  # constant 0 never hits 1


def test_coh_spec_is_total_and_inconclusive():
    spec = coh_spec()
    tape = Point.from_seed(3)
    fam = spec.decode(tape)
    assert fam is tape
    assert spec.verify_at(fam, Point.ones(), 16, 4).status == "inconclusive"


def test_wkl_spec_paths():
    spec = wkl_spec()
    t = TreeByRule.full()
    tape = tree_to_point(t)
    inst = spec.decode(tape)
    from wred.oracle import SearchBudget

    sols = spec.brute_solution_tapes(inst, SearchBudget(horizon=12, size=4))
    assert sols and spec.verify_at(inst, sols[0], 12, 4).ok


def test_fail_monotonicity_across_registered_problems():
    # a failing verdict never recovers as the horizon grows
    from wred.problems import thin_solution_tape

    rng = random.Random(3)
    rt = rt_spec(1, 2)
    for _ in range(10):
        inst = rt.decode(rt.sample_instance(rng))
        bad = Point.from_set(range(12))  # mixes colors for non-constant instances
        prior = None
        for n1 in (8, 12, 16, 20):
            v = rt.verify_at(inst, bad, n1, 4)
            if prior == "fail":
                assert v.status == "fail"
            prior = v.status
    ts = ts_spec(1, 3)
    inst = ts.decode(Point.from_seed(17))
    bad = thin_solution_tape(Point.from_set(range(12)), 1)
    prior = None
    for n1 in (8, 12, 16, 20):
        v = ts.verify_at(inst, bad, n1, 4)
        if prior == "fail":
            assert v.status == "fail"
        prior = v.status
