import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from wred.adversaries import (
    Delta2Approx,
    StageLog,
    StageRecord,
    check_defeats,
    cm_coloring,
    delta2_diagonalizer,
    least_cut_width,
    qwwkl_cutter,
    rainbow_measure_coloring,
    rrt_column_splitter,
    ts1_backward_sample,
    ts1_diagonalizer,
    _fresh_double_one,
)
from wred.kernel import (ContractError, Diverge, InputError, Point, Prefix, cantor_pair, evaluate,
                         oblivious, pointwise)
from wred.oracle import SearchBudget, find_rainbow
from wred.problems import index_string, string_index


def identity_tree_map():
    return oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x), "id"))


def const_zero_backward():
    return pointwise(1, lambda ctx, x: 0, "zero")


def never_converging():
    def step(ctx, x):
        while True:
            ctx.tick()

    return pointwise(1, step, "spin")


# --- q-WWKL cutter -------------------------------------------------------------


def test_least_cut_width_example():
    assert least_cut_width(Fraction(1, 2), Fraction(3, 4)) == 3
    assert least_cut_width(Fraction(1, 4), Fraction(1, 2)) == 3  # 1/8 < 1/4, 1/4 not <


def test_cutter_constant_backward_cuts_exactly():
    tree, log = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                             Fraction(1, 2), Fraction(3, 4), stages=24)
    acted = [r for r in log.records if r.case == "2"]
    assert len(acted) == 3  # (7/8)^3 = 343/512 is the first value below 3/4
    for r in acted:
        assert r.measure_after == r.measure_before * Fraction(7, 8)
    assert tree.measure() == Fraction(343, 512)
    assert tree.measure() >= Fraction(1, 2)


def test_cutter_broken_multiplicative_identity_is_contract_error(monkeypatch):
    import wred.adversaries as adversaries

    # a measure that ignores the cuts breaks the identity at the first case-2 stage
    monkeypatch.setattr(adversaries.CutTree, "measure", lambda self: Fraction(1))
    with pytest.raises(ContractError, match=r"multiplicative identity at stage \d+: "
                                            r"measure 1 became 1$"):
        qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                     Fraction(1, 2), Fraction(3, 4), stages=24)


def test_cutter_case2_requires_dense_image():
    _, log = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                          Fraction(1, 2), Fraction(3, 4), stages=24)
    for r in log.records:
        if r.case == "2":
            assert r.image_measure >= Fraction(3, 4)


def test_cutter_case1_only_when_backward_never_converges():
    tree, log = qwwkl_cutter(identity_tree_map(), never_converging(),
                             Fraction(1, 2), Fraction(3, 4), stages=10, fuel=200)
    assert all(r.case == "1" for r in log.records)
    assert tree.measure() == 1


def test_cutter_log_deterministic_and_digestable():
    a = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                     Fraction(1, 2), Fraction(3, 4), stages=16)[1]
    b = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                     Fraction(1, 2), Fraction(3, 4), stages=16)[1]
    assert a.to_csv() == b.to_csv()
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64


def test_cut_tree_membership_matches_counts():
    tree, _ = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                           Fraction(1, 2), Fraction(3, 4), stages=12)
    for level in range(0, 11):
        explicit = sum(
            1 for bits in itertools.product((0, 1), repeat=level) if Prefix(bits) in tree
        )
        assert explicit == tree.level_count(level)


def test_stage_log_append_only():
    log = StageLog()
    log.add(StageRecord(3, "1"))
    with pytest.raises(InputError):
        log.add(StageRecord(2, "1"))


# --- TS1 diagonalizer ------------------------------------------------------------


def embed_2_to_3():
    # identity recoloring: the 2-coloring read back as a 3-coloring point
    def step(ctx, x):
        r, off = divmod(x, 2)  # width of 3 colors is 2 bits
        return (ctx.query(0, r) >> off) & 1 if off == 0 else 0

    def step2(ctx, x):
        r, off = divmod(x, 2)
        v = ctx.query(0, r) % 2
        return (v >> off) & 1

    return pointwise(1, step2, "embed23")


def prefix_echo():
    return pointwise(1, lambda ctx, x: ctx.query(0, x), "echo")


def shifted_echo():
    return pointwise(1, lambda ctx, x: ctx.query(0, x + 1), "echo+1")


def test_ts1_identity_recolor_one_action():
    res = ts1_diagonalizer(embed_2_to_3(), prefix_echo(), 2, 3, stages=24)
    assert len(res.log.action_stages()) == 1
    assert res.invalidated == [0]  # color 0 dies first
    assert set(res.colors[2:]) == {1}  # after the action the tail is the survivor
    assert res.assembled is not None
    assert len(res.assembled_colors) <= 2  # at most j image colors on T
    pulled = ts1_backward_sample(prefix_echo(), res.assembled, 32)
    f_colors = {res.colors[x] for x in pulled if x < len(res.colors)}
    assert f_colors == {0, 1}  # the pulled-back set mixes both source colors


def test_ts1_never_converging_backward_no_action():
    res = ts1_diagonalizer(embed_2_to_3(), never_converging(), 2, 3, stages=16, fuel=200)
    assert res.log.action_stages() == []
    assert set(res.colors) == {0}  # all-least-valid-color tail


def test_ts1_shifted_echo_fires():
    res = ts1_diagonalizer(embed_2_to_3(), shifted_echo(), 2, 3, stages=24)
    assert len(res.log.action_stages()) == 1
    assert res.assembled is not None and len(res.assembled_colors) <= 2


def test_ts1_action_bound_respected():
    for psi in (prefix_echo(), shifted_echo()):
        res = ts1_diagonalizer(embed_2_to_3(), psi, 2, 3, stages=30)
        assert len(res.log.action_stages()) <= 1  # j - 1


def test_ts1_evaluation_budget_truncates_at_pinned_stages():
    # the per-stage budget of 512 backward reads counts one read per
    # eligibility probe and one per (candidate, eligible x) pair
    res = ts1_diagonalizer(embed_2_to_3(), never_converging(), 2, 3, stages=40, fuel=50)
    truncated = [r.stage for r in res.log.records if "truncated" in r.detail]
    assert truncated == list(range(7, 41))


def counted_echo(swept: list):
    """The echo backward, recording each position its step runs at."""
    return pointwise(1, lambda ctx, x: swept.append(x) or ctx.query(0, x), "counted-echo")


def test_ts1_backward_sample_sweeps_each_position_once():
    # one tape per set oracle: horizon 32 runs 32 steps, not 1 + 2 + ... + 32
    swept = []
    members = {2, 3, 5, 31}
    assert ts1_backward_sample(counted_echo(swept), members, 32) == sorted(members)
    assert swept == list(range(32))


def test_ts1_rejects_bad_colors():
    with pytest.raises(InputError):
        ts1_diagonalizer(embed_2_to_3(), prefix_echo(), 3, 3, stages=4)


# --- Delta2 diagonalizer -----------------------------------------------------------


def test_delta2_empty_guess_is_constant_zero():
    g = Delta2Approx(rule=lambda e, i, b, s: 0, limit=lambda e, b: 0)
    colorings, _ = delta2_diagonalizer(3, g, stages=16)
    for i in (0, 1, 2):
        assert all(colorings[i].value((b,)) == 0 for b in range(16))


def test_delta2_evens_guesser_defeated():
    stab = 8

    def rule(e, i, b, s):
        if s < stab:
            return 0
        return 1 if b % 2 == 0 else 0

    g = Delta2Approx(rule=rule, stabilization=stab, limit=lambda e, b: 1 if b % 2 == 0 else 0)
    colorings, _ = delta2_diagonalizer(3, g, stages=64)
    ok, detail = check_defeats(colorings, g, e=2, horizon=64)
    assert ok and "all 3 colors" in detail


def test_delta2_finite_guess_trivially_defeated():
    g = Delta2Approx(rule=lambda e, i, b, s: 1 if b == 0 else 0,
                     limit=lambda e, b: 1 if b == 0 else 0)
    colorings, _ = delta2_diagonalizer(2, g, stages=16)
    ok, detail = check_defeats(colorings, g, e=1, horizon=16)
    assert ok and "members below" in detail


def test_delta2_deterministic():
    g = Delta2Approx(rule=lambda e, i, b, s: (b + s) % 2, limit=None)
    a, loga = delta2_diagonalizer(2, g, stages=20)
    b, logb = delta2_diagonalizer(2, g, stages=20)
    assert loga.digest() == logb.digest()
    assert [[c.value((x,)) for x in range(20)] for c in a] == [
        [c.value((x,)) for x in range(20)] for c in b
    ]


# --- pair-gluing rainbow colorings ------------------------------------------------


def all_ones_functional():
    return pointwise(1, lambda ctx, x: 1, "ones-out")


def single_one_functional():
    return pointwise(1, lambda ctx, x: 1 if x == 0 else 0, "one-at-0")


def test_cm_untriggered_injective():
    res = cm_coloring(single_one_functional())
    assert res.excluded_pair() is None
    f = res.coloring
    vals = [f.value(t) for t in itertools.combinations(range(12), 2)]
    assert len(vals) == len(set(vals))


def test_cm_immediate_trigger():
    res = cm_coloring(all_ones_functional())
    x, y, sigma, stage = res.excluded_pair()
    assert (x, y) == (0, 1) and sigma == Prefix()
    f = res.coloring
    for s in range(stage, stage + 8):
        assert f.value((x, s)) == f.value((y, s)) == cantor_pair(x, s)


def test_cm_two_bounded_exhaustively():
    res = cm_coloring(all_ones_functional())
    counts = {}
    for t in itertools.combinations(range(24), 2):
        v = res.coloring.value(t)
        counts[v] = counts.get(v, 0) + 1
    assert max(counts.values()) <= 2


def test_cm_glued_pair_blocks_rainbows():
    res = cm_coloring(all_ones_functional())
    x, y, sigma, stage = res.excluded_pair()
    budget = SearchBudget(horizon=20, size=5)
    found = find_rainbow(res.coloring, budget)
    assert found.found
    assert not {x, y} <= set(found.members)  # any rainbow avoids the glued pair


def test_fresh_double_one_sweeps_each_position_once():
    swept = []
    echo = counted_echo(swept)
    assert _fresh_double_one(echo, Prefix((0, 1, 0, 1, 1, 1)), used=frozenset({1})) == (3, 4)
    assert swept == [0, 1, 2, 3, 4]
    swept.clear()  # a stall at the end of the string ends the search
    assert _fresh_double_one(echo, Prefix((0, 1))) is None
    assert swept == [0, 1, 2]


# --- arb-bounds cylinder search ----------------------------------------------------


def test_arb_bounds_inert_no_cylinders():
    res = rainbow_measure_coloring(single_one_functional(), Fraction(1, 4))
    assert res.cylinders == []
    f = res.coloring
    vals = [f.value(t) for t in itertools.combinations(range(12), 2)]
    assert len(vals) == len(set(vals))


def test_arb_bounds_immediate_full_cylinder():
    res = rainbow_measure_coloring(all_ones_functional(), Fraction(1, 4))
    assert len(res.cylinders) == 1
    assert res.cylinders[0].strings == (Prefix(),)
    assert res.cylinders[0].measure == 1 >= Fraction(1, 4)


def first_bit_functional():
    # two 1s only when the oracle starts with 0: triggers exactly on [0]
    def step(ctx, x):
        if ctx.query(0, 0) == 0:
            return 1 if x < 2 else 0
        return 1 if x == 2 else 0

    return pointwise(1, step, "first-bit")


def split_functional():
    # commits to witnesses {0,1} on the 0-side and {2,3} on the 1-side
    def step(ctx, x):
        b = ctx.query(0, 0)
        return 1 if x in ((0, 1) if b == 0 else (2, 3)) else 0

    return pointwise(1, step, "split")


def test_arb_bounds_too_many_cylinder_sets_is_contract_error(monkeypatch):
    # with no string a prefix of another, the whole space is found again and
    # again: five sets of measure 1 where at most ceil(1/q) = 4 fit
    monkeypatch.setattr(Prefix, "is_prefix_of", lambda self, other: False)
    with pytest.raises(ContractError, match="^5 disjoint cylinder sets of measure 1/4 or more"):
        rainbow_measure_coloring(all_ones_functional(), Fraction(1, 4))


def test_arb_bounds_split_finds_two_disjoint_sets():
    res = rainbow_measure_coloring(split_functional(), Fraction(1, 2))
    assert len(res.cylinders) == 2
    for cyl in res.cylinders:
        assert cyl.measure >= Fraction(1, 2)
    assert not res.cylinders[0].overlaps(res.cylinders[1])
    assert len(res.cylinders) <= 2  # ceil(1/q)


def test_arb_bounds_count_bound():
    for q in (Fraction(1, 2), Fraction(1, 4)):
        res = rainbow_measure_coloring(all_ones_functional(), q)
        import math

        assert len(res.cylinders) <= math.ceil(1 / q)


def test_arb_bounds_coloring_is_bounded():
    res = rainbow_measure_coloring(split_functional(), Fraction(1, 2))
    counts = {}
    for t in itertools.combinations(range(24), 2):
        v = res.coloring.value(t)
        counts[v] = counts.get(v, 0) + 1
    assert max(counts.values()) <= res.bound


def test_arb_bounds_exclusion():
    res = rainbow_measure_coloring(split_functional(), Fraction(1, 2))
    phi = split_functional()
    for cyl, trig in zip(res.cylinders, res.triggers):
        for sigma, (x, y) in zip(cyl.strings, cyl.used):
            ext = Point(lambda p, s=sigma: s.bits[p] if p < len(s) else 0, "ext")
            assert evaluate(phi, [ext], x, 1000).value == 1
            assert evaluate(phi, [ext], y, 1000).value == 1
            for s in range(trig, trig + 6):
                assert res.coloring.value(tuple(sorted((x, s)))) == res.coloring.value(
                    tuple(sorted((y, s)))
                )


# --- column splitter -----------------------------------------------------------------


def test_column_splitter_single_column_is_half():
    phi = pointwise(1, lambda ctx, x: 1, "ones")
    results = rrt_column_splitter(phi, columns=1)
    assert len(results) == 1
    assert results[0].cylinders and results[0].cylinders[0].measure >= Fraction(1, 2)


def test_column_splitter_targets_decrease():
    phi = pointwise(1, lambda ctx, x: 1, "ones")
    results = rrt_column_splitter(phi, columns=3)
    qs = [Fraction(1, 2 ** (j + 1)) for j in range(3)]
    for res, q in zip(results, qs):
        for cyl in res.cylinders:
            assert cyl.measure >= q


def test_column_restriction_positional_algebra():
    marks = {cantor_pair(5, cantor_pair(0, 1))}
    phi = pointwise(1, lambda ctx, x: 1 if x in marks else 0, "marked")
    from wred.adversaries import _inner_value
    from wred.kernel import EvalContext, Ledger

    ctx = EvalContext([Point.zeros()], Ledger(1000))
    assert _inner_value(phi, ctx, 5, cantor_pair(0, 1)) == 1
    assert _inner_value(phi, ctx, 4, cantor_pair(0, 1)) == 0


def test_cutter_backward_may_read_the_tree_approximation():
    # arity-2 backward: reads the path string and the fixed tree region;
    # queries beyond the current height diverge and the stage retries
    def step(ctx, x):
        ctx.query(1, 0)  # root bit of the approximation: always fixed
        return 0

    psi2 = pointwise(2, step, "tree-reader")
    tree, log = qwwkl_cutter(identity_tree_map(), psi2, Fraction(1, 2), Fraction(3, 4),
                             stages=24)
    assert len([r for r in log.records if r.case == "2"]) == 3


# regression pins: the logs are replayable, so drift means semantics moved
TS1_LOG_DIGEST = "b33bad1d0f55252b5c2ae4d012f4f2319b2ee8995d5b93e506f5151c09931854"
DELTA2_LOG_DIGEST = "4ef4c767c65377df7d2d5f7e753225d7d604fe1fb93768cb3e8749aa44c7aa79"


def test_ts1_log_digest_pinned():
    res = ts1_diagonalizer(embed_2_to_3(), prefix_echo(), 2, 3, stages=24)
    assert res.log.digest() == TS1_LOG_DIGEST


def test_delta2_log_digest_pinned():
    g = Delta2Approx(rule=lambda e, i, b, s: 1 if (s >= 8 and b % 2 == 0) else 0,
                     stabilization=8, limit=lambda e, b: 1 if b % 2 == 0 else 0)
    _, log = delta2_diagonalizer(3, g, stages=32)
    assert log.digest() == DELTA2_LOG_DIGEST


def test_check_defeats_needs_declared_limit():
    g = Delta2Approx(rule=lambda e, i, b, s: 0, limit=None)
    colorings, _ = delta2_diagonalizer(2, g, stages=8)
    with pytest.raises(InputError):
        check_defeats(colorings, g, 0, 8)


# 160-stage cutter runs with the identity forward, one per toy backward
QWWKL_LONG_DIGESTS = {
    "zero": "3d56428d5caa5f747c23e7a2d71a2fc41943ee70d33b5addcb7b6ffef52334c0",
    "echo": "3d56428d5caa5f747c23e7a2d71a2fc41943ee70d33b5addcb7b6ffef52334c0",
    "echo-shift": "0b89126c7bfe58ad1c9029fba5a146778b1941983c55eccb9e2d722f4be5ccc9",
}


def test_cutter_long_run_digests_pinned():
    from wred.cli import TOY_BACKWARD, TOY_FORWARD

    for name, digest in QWWKL_LONG_DIGESTS.items():
        _, log = qwwkl_cutter(TOY_FORWARD["identity"](), TOY_BACKWARD[name](),
                              Fraction(1, 2), Fraction(3, 4), stages=160)
        assert log.digest() == digest, name


def test_image_sweep_levels_match_prefix_walk(monkeypatch):
    # every level the cutter asks for, and every level above it, equals a
    # walk from the root over Prefix children of the image bits
    from wred import adversaries

    def prefix_walk(bits, ell):
        members = [Prefix()]
        for _ in range(ell):
            members = [c for m in members for c in (m.extend(0), m.extend(1))
                       if bits[string_index(c)] == 1]
        return members

    Sweep = adversaries._ImageSweep

    def strings(sweep, ell):
        return [index_string(i) for i in Sweep.members(sweep, ell)]

    asked, sweeps = [], []

    class CheckedSweep(Sweep):
        def members(self, ell):
            got = super().members(ell)
            asked.append(ell)
            sweeps.append(self)
            for e in range(ell + 1):
                assert strings(self, e) == prefix_walk(self.bits, e), (len(asked), e)
            return got

    monkeypatch.setattr(adversaries, "_ImageSweep", CheckedSweep)
    _, log = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                          Fraction(1, 2), Fraction(3, 4), stages=64)
    assert len(asked) == 64 and max(asked) == 12
    assert len(log.action_stages()) == 3  # the image levels were cut
    # levels asked for deepest first, over the same converged bits
    fresh = Sweep(identity_tree_map(), 1)
    fresh.bits = sweeps[-1].bits
    for e in range(12, -1, -1):
        assert strings(fresh, e) == prefix_walk(fresh.bits, e), e


def in_cut_tree(tree, bits):
    """The CutTree docstring, literally: a string no longer than the height
    survives (t, xs, alpha) unless it is longer than t and matches alpha on xs."""
    if len(bits) > tree.height:
        return False
    for t, xs, alpha in tree.constraints:
        if len(bits) > t and all(x < len(bits) and bits[x] == a for x, a in zip(xs, alpha)):
            return False
    return True


def assert_tape_is_literal_membership(tree, tape):
    top = 2 ** (tree.height + 1) - 1  # first index of a string longer than the tree
    for pos in range(2 ** (tree.height + 2) - 1):  # every string up to height + 1
        bits = index_string(pos).bits
        want = in_cut_tree(tree, bits)
        assert (Prefix(bits) in tree) == want, (tree, bits)
        if pos < top:
            assert tape.bit(pos) == (1 if want else 0), (tree, bits)
        else:
            with pytest.raises(Diverge):
                tape.bit(pos)


def test_cut_tree_tape_is_membership_by_index():
    from wred.adversaries import CutTree

    tree, _ = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                           Fraction(1, 2), Fraction(3, 4), stages=12)
    assert tree.constraints
    assert_tape_is_literal_membership(tree, tree.as_partial_point())

    rng = random.Random(19)
    for trial in range(60):
        tree = CutTree(height=rng.randrange(1, 9))
        tape = tree.as_partial_point()  # made before any cut, read after each
        free = list(range(tree.height + 2))
        rng.shuffle(free)
        for _ in range(rng.randrange(1, 4)):
            if not free:
                break
            xs = [free.pop() for _ in range(min(len(free), rng.randrange(1, 4)))]
            # xs unsorted and non-contiguous; a stage may sit below max(xs)
            t = rng.randrange(tree.height + 1)
            tree.constraints.append((t, tuple(xs), tuple(rng.randrange(2) for _ in xs)))
            assert_tape_is_literal_membership(tree, tape)
        tree.height += 1  # the tape reads the grown tree too
        assert_tape_is_literal_membership(tree, tape)


def test_image_sweep_one_context_per_advance_matches_fresh_contexts():
    # a composite parks its inner tape in the advance's context; the bits
    # must be those of a fresh context per position, also across a gap
    # that ends an advance and is filled before the next one
    from wred import adversaries
    from wred.kernel import (DEFAULT_FUEL, EvalContext, Ledger, RuleTape, _run_step,
                             compose_functionals)

    inner = pointwise(1, lambda ctx, x: ctx.query(0, x) ^ ctx.query(0, x // 2), "mix")
    outer = pointwise(1, lambda ctx, x: ctx.query(0, x + 2) & ctx.query(0, x // 3), "and")
    phi = compose_functionals(outer, inner)
    known = []  # the oracle's bits so far; beyond them, a gap

    def rule(pos):
        if pos >= len(known):
            raise Diverge("gap", pos)
        return known[pos]

    oracle = RuleTape(rule)
    rng = random.Random(5)
    sweep = adversaries._ImageSweep(phi, DEFAULT_FUEL)
    for grow in (7, 11, 25, 30):
        known += [rng.randrange(2) for _ in range(grow)]
        sweep.advance(oracle, 60)
        want = []
        for x in range(61):
            try:
                want.append(_run_step(phi, EvalContext([oracle], Ledger(DEFAULT_FUEL)), x))
            except Diverge:
                break
        assert len(sweep.bits) == min(61, len(known) - 2), len(known)  # the gap ended it
        assert sweep.bits == want, len(known)
    assert len(known) > 62 and 1 in sweep.bits and 0 in sweep.bits


def test_cut_tree_level_count_with_an_overwide_support_is_contract_error():
    from wred.adversaries import CutTree

    tree = CutTree(height=2, constraints=[(0, (0, 1), (0, 0))])  # two positions, stage 0
    assert tree.level_count(2) == 3
    with pytest.raises(ContractError):
        tree.level_count(1)


def test_cut_tree_level_count_with_a_shared_position_is_contract_error():
    from wred.adversaries import CutTree

    # both cut on position 0: no string of length 2 survives, yet the
    # product of the per-constraint factors would count one
    tree = CutTree(height=2, constraints=[(0, (0,), (0,)), (1, (0,), (1,))])
    with pytest.raises(ContractError):
        tree.measure()
    assert not any(tree.index_member(idx) for idx in range(3, 7))  # membership stays defined
    tree = CutTree(height=2)
    assert tree.measure() == 1
    tree.constraints.append((0, (0, 0), (1, 1)))  # one xs repeats a position: 2 survive, not 3
    with pytest.raises(ContractError):
        tree.level_count(2)
    disjoint = CutTree(height=2, constraints=[(0, (0,), (0,)), (1, (1,), (1,))])
    assert disjoint.level_count(2) == 1 and disjoint.measure() == Fraction(1, 4)


def literal_level_count(tree, level):
    """A level count as the product of Fractions 2^level * prod (1 - 2^-len(xs))
    over the cuts below the level; ContractError on a shared position or a
    product that is not an integer."""
    support = [x for _t, xs, _alpha in tree.constraints for x in xs]
    if len(set(support)) < len(support):
        raise ContractError("shared position")
    if level > tree.height:
        return 0
    total = Fraction(2**level)
    for t, xs, _alpha in tree.constraints:
        if t < level:
            total *= 1 - Fraction(1, 2 ** len(xs))
    if total.denominator != 1:
        raise ContractError("not an integer")
    return int(total)


def outcome(count, *args):
    try:
        return count(*args)
    except ContractError:
        return "ContractError"


def test_cut_tree_integer_counts_match_a_literal_fraction_product():
    from wred.adversaries import CutTree

    rng = random.Random(23)
    seen = {"counted": 0, "too wide": 0, "shared": 0}
    for trial in range(400):
        tree = CutTree(height=rng.randrange(0, 10))
        positions = rng.sample(range(14), 14)
        for _ in range(rng.randrange(0, 5)):
            width = rng.randrange(0, 5)
            if rng.random() < 0.15:  # now and then a position some cut already uses
                xs = [rng.randrange(14) for _ in range(width)]
            else:
                xs = [positions.pop() for _ in range(min(width, len(positions)))]
            tree.constraints.append((rng.randrange(tree.height + 1), tuple(xs),
                                     tuple(rng.randrange(2) for _ in xs)))
        for level in range(tree.height + 2):
            want = outcome(literal_level_count, tree, level)
            assert outcome(tree.level_count, level) == want, (tree, level)
        want = outcome(literal_level_count, tree, tree.height)
        got = outcome(tree.measure)
        if want == "ContractError":
            assert got == want, tree
            shared = outcome(literal_level_count, tree, tree.height + 1) == want
            seen["shared" if shared else "too wide"] += 1
        else:
            assert got == Fraction(want, 2**tree.height) and type(got) is Fraction, tree
            seen["counted"] += 1
    assert min(seen.values()) >= 30, seen


def test_image_sweep_steps_the_forward_once_per_position():
    # the 64-stage pinned run materializes the image through level 12,
    # positions 0..8190, each stepped once however many stages ask for it
    stepped = []

    def step(ctx, x):
        stepped.append(x)
        return ctx.query(0, x)

    tree, log = qwwkl_cutter(pointwise(1, step, "id"), const_zero_backward(),
                             Fraction(1, 2), Fraction(3, 4), stages=64)
    assert len(stepped) == 8191 and sorted(stepped) == list(range(8191))
    assert tree.measure() == Fraction(343, 512) and len(log.action_stages()) == 3


# sha256 of the log CSV followed by repr of the tables f_i(0..stages-1)
DELTA2_TABLE_DIGESTS = {
    (3, "evens", 128): "071c21a8c821aad525a1d4089b15eb59c0413f1df7581c2dd9faaf98d2b4d1d7",
    (2, "empty", 20): "252b3779cf2e2498af3104bafcfe34bbd362545cdd1c9ea109c1d012a25c08a2",
}


def reference_delta2_tables(k, rule, stages):
    """The diagonalizer's tables and cases straight from its definition."""
    tables, cases = [], []
    for i in range(stages):
        f_i, case_i = [], []
        for s in range(stages):
            used = {f_i[b] for b in range(s) if rule(i, i, b, s) == 1}
            if used != set(range(k)):
                f_i.append(min(c for c in range(k) if c not in used))
                case_i.append("1")
            else:
                f_i.append(max(range(k), key=f_i.index))  # latest first occurrence
                case_i.append("2")
        tables.append(f_i)
        cases.append(case_i)
    return tables, cases


def delta2_test_rules():
    """(k, rule, stages, dense): sparse rules (those the definition was
    first checked on, and two with k = 5), under which case 1 is the rule;
    their complements, under which case 2 is common; and the CLI's toy
    guessers at 64 stages, for k = 2..5."""
    from wred.cli import TOY_GUESSERS

    out = []
    for seed, k in [(seed, 2 + seed % 3) for seed in range(6)] + [(6, 5), (7, 5)]:
        m = 3 + seed % 4

        def sparse(e, i, b, s, seed=seed, m=m):
            return 1 if (b * 7 + s * 13 + e * 5 + seed) % m == 0 else 0

        def dense(e, i, b, s, seed=seed, m=m):
            return 0 if (b * 7 + s * 13 + e * 5 + seed) % m == 0 else 1

        out += [(k, sparse, 24, False), (k, dense, 24, True)]
    for k in range(2, 6):
        out += [(k, TOY_GUESSERS[name]().rule, 64, False) for name in ("empty", "evens")]
    return out


def test_delta2_tables_match_the_definition():
    dense_cases = []
    for k, rule, stages, dense in delta2_test_rules():
        colorings, log = delta2_diagonalizer(k, Delta2Approx(rule=rule), stages=stages)
        tables = [[c.value((x,)) for x in range(stages)] for c in colorings]
        want_tables, want_cases = reference_delta2_tables(k, rule, stages)
        assert tables == want_tables, (k, stages)
        assert [r.case for r in log.records] == [want_cases[i][i] for i in range(stages)]
        if dense:
            dense_cases += [c for case_i in want_cases for c in case_i]
    assert dense_cases.count("2") > len(dense_cases) // 2


def stop_at_k_reads(k, rule, stages):
    """The cells (i, b, s) read by scanning b = 0, 1, ... until all k
    colors are seen, the scan the diagonalizer's per-color scan replaced."""
    reads = set()
    for i in range(stages):
        f_i: list[int] = []
        first: dict[int, int] = {}
        for s in range(stages):
            used = set()
            for b in range(s):
                reads.add((i, b, s))
                if rule(i, i, b, s) == 1:
                    used.add(f_i[b])
                    if len(used) == k:
                        break
            if len(used) < k:
                choice = min(c for c in range(k) if c not in used)
            else:
                choice = max(first, key=first.__getitem__)
            first.setdefault(choice, s)
            f_i.append(choice)
    return reads


def test_delta2_reads_a_subset_of_the_stop_at_k_scan():
    from wred.cli import TOY_GUESSERS

    evens = TOY_GUESSERS["evens"]().rule
    for k, rule, stages, _ in delta2_test_rules() + [(3, evens, 128, False)]:
        calls = []

        def recorded(e, i, b, s, rule=rule):
            calls.append((e, i, b, s))
            return rule(e, i, b, s)

        delta2_diagonalizer(k, Delta2Approx(rule=recorded), stages=stages)
        assert all(e == i and b < s for e, i, b, s in calls), (k, stages)
        assert len(set(calls)) == len(calls), (k, stages)
        assert {(i, b, s) for _, i, b, s in calls} <= stop_at_k_reads(k, rule, stages), (k, stages)
    assert len(calls) <= 64256  # (3, evens, 128); the stop-at-k scan reads 171 776


def test_delta2_log_and_tables_pinned():
    from wred.cli import TOY_GUESSERS

    for (k, guesser, stages), digest in DELTA2_TABLE_DIGESTS.items():
        colorings, log = delta2_diagonalizer(k, TOY_GUESSERS[guesser](), stages=stages)
        tables = [[c.value((x,)) for x in range(stages)] for c in colorings]
        got = hashlib.sha256((log.to_csv() + repr(tables)).encode()).hexdigest()
        assert got == digest, (k, guesser, stages)
