import hashlib
import itertools
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
from wred.kernel import (Diverge, InputError, Point, Prefix, cantor_pair, evaluate, oblivious,
                         pointwise)
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

    asked, sweeps = [], []

    class CheckedSweep(adversaries._ImageSweep):
        def level(self, ell):
            got = super().level(ell)
            asked.append(ell)
            sweeps.append(self)
            for e in range(ell + 1):
                assert list(super().level(e)) == prefix_walk(self.bits, e), (len(asked), e)
            return got

    monkeypatch.setattr(adversaries, "_ImageSweep", CheckedSweep)
    _, log = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                          Fraction(1, 2), Fraction(3, 4), stages=64)
    assert len(asked) == 64 and max(asked) == 12
    assert len(log.action_stages()) == 3  # the image levels were cut
    # levels asked for deepest first, over the same converged bits
    fresh = adversaries._ImageSweep(identity_tree_map(), 1)
    fresh.bits = sweeps[-1].bits
    for e in range(12, -1, -1):
        assert list(fresh.level(e)) == prefix_walk(fresh.bits, e), e


def test_cut_tree_tape_is_membership_by_index():
    tree, _ = qwwkl_cutter(identity_tree_map(), const_zero_backward(),
                           Fraction(1, 2), Fraction(3, 4), stages=12)
    assert tree.constraints
    tape = tree.as_partial_point()
    top = 2 ** (tree.height + 1) - 1  # first index of a string longer than the tree
    for pos in range(top):
        assert tape.bit(pos) == (1 if index_string(pos) in tree else 0), pos
    with pytest.raises(Diverge):
        tape.bit(top)


# sha256 of the log CSV followed by repr of the tables f_i(0..stages-1)
DELTA2_TABLE_DIGESTS = {
    (3, "evens", 128): "071c21a8c821aad525a1d4089b15eb59c0413f1df7581c2dd9faaf98d2b4d1d7",
    (2, "empty", 20): "252b3779cf2e2498af3104bafcfe34bbd362545cdd1c9ea109c1d012a25c08a2",
}


def reference_delta2_tables(k, rule, stages):
    """The diagonalizer's tables straight from its definition."""
    tables = []
    for i in range(stages):
        f_i = []
        for s in range(stages):
            used = {f_i[b] for b in range(s) if rule(i, i, b, s) == 1}
            if used != set(range(k)):
                f_i.append(min(c for c in range(k) if c not in used))
            else:
                f_i.append(max(range(k), key=f_i.index))  # latest first occurrence
        tables.append(f_i)
    return tables


def test_delta2_tables_match_the_definition():
    for seed in range(6):
        k = 2 + seed % 3

        def rule(e, i, b, s, seed=seed):
            return 1 if (b * 7 + s * 13 + e * 5 + seed) % (3 + seed % 4) == 0 else 0

        colorings, _ = delta2_diagonalizer(k, Delta2Approx(rule=rule), stages=24)
        tables = [[c.value((x,)) for x in range(24)] for c in colorings]
        assert tables == reference_delta2_tables(k, rule, 24), seed


def test_delta2_log_and_tables_pinned():
    from wred.cli import TOY_GUESSERS

    for (k, guesser, stages), digest in DELTA2_TABLE_DIGESTS.items():
        colorings, log = delta2_diagonalizer(k, TOY_GUESSERS[guesser](), stages=stages)
        tables = [[c.value((x,)) for x in range(stages)] for c in colorings]
        got = hashlib.sha256((log.to_csv() + repr(tables)).encode()).hexdigest()
        assert got == digest, (k, guesser, stages)
