import gc
import hashlib
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wred.catalog import (
    ENTRIES,
    CatalogEntry,
    _agreement_coloring,
    _distinct_count_coloring,
    _restrict_coloring,
    _wkl_measure_checks,
    SQUASH_CONFIGS,
    assemble_path,
    blowup_once,
    blowup_tree,
    coh_interleave,
    cube_classes,
    cube_dispatch,
    cube_solve,
    ext_in_tree,
    half_measure_tree,
    rt_arity_lift,
    rt_color_embed,
    rt_product,
    run_entry,
    squash_config_coh,
    squash_config_projection,
    squash_config_trivial_q,
    ts3_cube_coloring,
    ts33_pipeline,
    ts_aca_coloring,
    ts_aca_largest_index,
    ts_aca_range_query,
    ts_collapse,
    ts_pigeonhole_coloring,
    ts_pigeonhole_extract,
    ts_step_coloring,
    ts_step_extract,
    wkl_from_seqwwkl_witness,
    wkl_interleave,
)
from wred.combinators import (
    SoundnessRow,
    SquashConfig,
    Witness,
    check_witness_soundness,
    compose_witness,
    fanout_rt,
    iterate_finite,
    lift_seq,
    parallel_product,
    squash,
    squash_forward,
    squash_markers,
    triv_spec,
    witness_parallel,
)
from wred.kernel import (
    DEFAULT_FUEL,
    ContractError,
    EvalContext,
    FunctionalTape,
    InputError,
    Ledger,
    Point,
    Prefix,
    cantor_pair,
    cantor_unpair,
    evaluate,
    family_column,
    interleave_tapes,
    oblivious,
    pointwise,
)
from wred.oracle import SearchBudget, find_homogeneous, find_thin
from wred.problems import (
    HAND_TREES,
    PASS,
    Coloring,
    ThinSolution,
    TreeByRule,
    coloring_from_tape,
    coloring_to_point,
    index_bits,
    leftmost_path_point,
    level_measures,
    level_members,
    measure_at_level,
    set_members_at,
    string_index,
    thin_solution_from_tape,
    thin_solution_tape,
    tree_to_point,
    verify_homogeneous_at,
    verify_path_at,
    verify_thin_at,
)

from helpers import echo_pair_witness, soundness_failures


def rng():
    return random.Random(999)


NO11 = HAND_TREES["no-11"]()
FIRST1 = HAND_TREES["first-bit"](1)


# --- Ramsey witnesses --------------------------------------------------------


def test_color_embed_rejects_bad_params():
    with pytest.raises(InputError):
        rt_color_embed(1, 5, 2)


def test_color_embed_same_coloring_both_sides():
    w = rt_color_embed(1, 2, 3)
    f = Coloring(1, 2, lambda t: t[0] % 2, "par")
    img = w.forward_image(coloring_to_point(f))
    g = coloring_from_tape(img, 1, 3)
    assert all(g.value((x,)) == f.value((x,)) for x in range(16))


def test_color_embed_homogeneous_sets_coincide():
    f = Coloring(1, 2, lambda t: t[0] % 2, "par")
    w = rt_color_embed(1, 2, 3)
    g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 1, 3)
    hf = find_homogeneous(f, SearchBudget(horizon=10, size=4)).members
    hg = find_homogeneous(g, SearchBudget(horizon=10, size=4)).members
    assert hf == hg


def test_arity_lift_forward():
    w = rt_arity_lift(1, 2, 2)
    f = Coloring(1, 2, lambda t: t[0] % 2, "par")
    g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 2, 2)
    for x, y in itertools.combinations(range(8), 2):
        assert g.value((x, y)) == f.value((x,))


def test_arity_lift_transfers_brute_solutions():
    w = rt_arity_lift(1, 2, 2)
    f = Coloring(1, 2, lambda t: t[0] % 2, "par")
    g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 2, 2)
    h = find_homogeneous(g, SearchBudget(horizon=8, size=5))
    assert h.found
    pulled = w.pull_back(coloring_to_point(f), Point.from_set(h.members))
    assert verify_homogeneous_at(f, [x for x in range(8) if _safe_bit(pulled, x)], 8, 4).ok


def test_arity_lift_pulls_a_brute_solution_back_to_a_gap_at_its_last_member():
    # the solver's tape is the sample its search saw, so the backward's scan
    # for a member after the last one stops at the horizon, not at the fuel
    from wred.kernel import Diverge

    w = rt_arity_lift(1, 2, 2)
    budget = SearchBudget(horizon=16, size=4 + w.solve_slack)
    rng = random.Random(7)
    solved = 0
    for _ in range(12):
        a_tape = w.source.sample_instance(rng)
        inst = w.target.decode(w.forward_image(a_tape, 4096))
        sols = w.target.brute_solution_tapes(inst, budget)
        if not sols:
            continue
        solved += 1
        members = set_members_at(sols[0], budget.horizon + 4)
        last = members[-1]
        pulled = w.pull_back(a_tape, sols[0], 4096)
        assert set_members_at(pulled, budget.horizon) == members[:-1]
        with pytest.raises(Diverge) as stall:
            pulled.bit(last)
        assert (stall.value.reason, stall.value.position) == ("gap", last)
        # the entry charge, the member's own read, then one read per later
        # position, the last of them at the horizon
        assert pulled.ctx.ledger.steps == 2 + budget.horizon - last
        # a total tape of the same set runs the scan into the fuel limit
        total = w.pull_back(a_tape, Point.from_set(members), 4096)
        with pytest.raises(Diverge) as stall:
            total.bit(last)
        assert stall.value.reason == "fuel"
    assert solved >= 6


def _safe_bit(tape, x):
    from wred.kernel import Diverge

    try:
        return tape.bit(x) == 1
    except Diverge:
        return False


def test_rt_product_pairing_value():
    # f parity (j=2), g constant 1 (k=3): h = f + 2*g takes exactly 2 values
    w = rt_product(1, 2, 3)
    f = Coloring(1, 2, lambda t: t[0] % 2, "par")
    g = Coloring(1, 3, lambda t: 1, "one")
    pair = interleave_tapes(coloring_to_point(f), coloring_to_point(g))
    h = coloring_from_tape(w.forward_image(pair), 1, 6)
    values = {h.value((x,)) for x in range(8)}
    assert values == {2, 3}  # 0+2*1 and 1+2*1


def test_rt_product_solution_serves_both():
    w = rt_product(1, 2, 3)
    r = rng()
    for _ in range(5):
        a = w.source.sample_instance(r)
        inst = w.source.decode(a)
        h = w.target.decode(w.forward_image(a))
        res = find_homogeneous(h, SearchBudget(horizon=10, size=4))
        if not res.found:
            continue
        back = w.pull_back(a, Point.from_set(res.members))
        assert w.source.verify_at(inst, back, 10, 4).ok


# --- COH and WKL interleaves ---------------------------------------------------


def test_coh_columns_identity():
    w = coh_interleave(2)
    a, b = Point.from_seed(10), Point.from_seed(11)
    img = w.forward_image(interleave_tapes(a, b))
    for i in range(8):
        for t in range(16):
            assert family_column(img, 2 * i).bit(t) == family_column(a, i).bit(t)
            assert family_column(img, 2 * i + 1).bit(t) == family_column(b, i).bit(t)


def test_wkl_interleave_full_trees():
    w = wkl_interleave(2)
    img = w.forward_image(interleave_tapes(tree_to_point(TreeByRule.full()),
                                           tree_to_point(TreeByRule.full())))
    s = TreeByRule.from_tape(img)
    assert measure_at_level(s, 6) == 1


def test_wkl_interleave_measure_is_product():
    w = wkl_interleave(2)
    img = w.forward_image(interleave_tapes(tree_to_point(NO11), tree_to_point(FIRST1)),
                          fuel=1 << 20)
    s = TreeByRule.from_tape(img)
    for d in range(7):
        assert measure_at_level(s, 2 * d) == measure_at_level(NO11, d) * measure_at_level(FIRST1, d)


def test_level_measures_match_the_per_level_walk_on_index_trees():
    """One walk down a tape-decoded image and down the tracking trees gives
    the per-level measures, each read from a tree decoded afresh."""
    w = wkl_interleave(2)

    def image():
        img = w.forward_image(interleave_tapes(tree_to_point(NO11), tree_to_point(FIRST1)),
                              fuel=1 << 20)
        return TreeByRule.from_tape(img)

    walked = level_measures(image(), 12)
    assert walked == [measure_at_level(image(), d) for d in range(13)]
    assert walked[12] == measure_at_level(NO11, 6) * measure_at_level(FIRST1, 6)
    for tree in (TreeByRule.full(), FIRST1, NO11):
        for sigma in (Prefix(), Prefix((1,)), Prefix((0, 1))):
            walked = level_measures(half_measure_tree(tree, sigma), 10)
            assert walked == [measure_at_level(half_measure_tree(tree, sigma), d)
                              for d in range(11)], (tree.label, sigma)


def test_wkl_interleave_paths_split():
    from wred.problems import level_members

    w = wkl_interleave(2)
    img = w.forward_image(interleave_tapes(tree_to_point(NO11), tree_to_point(FIRST1)),
                          fuel=1 << 20)
    s = TreeByRule.from_tape(img)
    for sigma in level_members(s, 8):
        assert Prefix(sigma.bits[0::2]) in NO11
        assert Prefix(sigma.bits[1::2]) in FIRST1


def test_tree_forwards_metered_queries_pinned():
    tape = Point.from_seed(7)
    for count, steps, use in ((2, 605, {0: 5}), ("omega", 603, {0: 5})):
        out = evaluate(wkl_interleave(count).forward, [tape], 600, 4096)
        assert (out.status, out.value, out.steps, out.use) == ("converged", 0, steps, use)
    out = evaluate(wkl_from_seqwwkl_witness().backward, [tape], 12, 4096)
    assert (out.status, out.value, out.steps, out.use) == ("converged", 1, 104, {0: 22777875})
    # the SeqWWKL forward: its cost at x = 600, and every instance cell it
    # reads, in order, while forward bits 0..1999 are read
    w = wkl_from_seqwwkl_witness()
    for base, steps, use, cells in (
        (Point.ones(), 637, {0: 54},
         "2c67279f178f38a69c63339a5d5814a9ce9354424e67a837a8e3d1784382dc48"),
        (tree_to_point(NO11), 629, {0: 52},
         "be0e5ea7a0c24b8cadb7c31e43e16bf0b2bcdf03dce52f4ce8a0982c337a33e3"),
    ):
        out = evaluate(w.forward, [base], 600, 4096)
        assert (out.status, out.value, out.steps, out.use) == ("converged", 1, steps, use)
        rec = _RecordingTape(base)
        img = w.forward_image(rec)
        for i in range(2000):
            img.bit(i)
        digest = hashlib.sha256(",".join(map(str, rec.reads)).encode()).hexdigest()
        assert digest == cells, base.label


def test_use_soundness_check_costs_reads_not_use():
    # the backward's use is astronomically sparse: a check that materialized
    # the truncated oracle could not finish
    import time

    from wred.kernel import check_use_soundness

    backward, tape = wkl_from_seqwwkl_witness().backward, Point.from_seed(7)
    assert evaluate(backward, [tape], 40, 4096).use[0] > 10**15
    start = time.perf_counter()
    assert check_use_soundness(backward, [tape], 40, 4096)
    assert time.perf_counter() - start < 1.0


# --- thin set collapse -----------------------------------------------------------


def test_ts_collapse_forward_values():
    w = ts_collapse(1, 2, 4)
    f = Coloring(1, 4, lambda t: 3, "three")
    g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 1, 2)
    assert all(g.value((x,)) == 1 for x in range(10))


def test_ts_collapse_omega_case():
    w = ts_collapse(1, 2, None)
    f = Coloring(1, None, lambda t: t[0], "id")
    g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 1, 2)
    assert g.value((0,)) == 0
    assert all(g.value((x,)) == 1 for x in range(1, 10))
    # thin solution ({1,2,...}, 0) transfers: f never takes 0 there
    sol = thin_solution_tape(Point.from_set(range(1, 9)), 0)
    pulled = w.pull_back(coloring_to_point(f), sol)
    got = thin_solution_from_tape(pulled, None, 10)
    assert got.omitted == 0
    assert verify_thin_at(f, got, 10, 4).ok


def test_ts_collapse_exhaustive_transfer():
    # all f:[0..10) -> 4 drawn from a seeded family, j = 2
    w = ts_collapse(1, 2, 4)
    r = rng()
    checked = 0
    for _ in range(30):
        table = [r.randrange(4) for _ in range(10)]
        f = Coloring(1, 4, lambda t, tb=tuple(table): tb[t[0]] if t[0] < 10 else 0, "tbl")
        g = coloring_from_tape(w.forward_image(coloring_to_point(f)), 1, 2)
        res = find_thin(g, SearchBudget(horizon=10, size=4))
        if not res.found:
            continue
        checked += 1
        pulled = w.pull_back(coloring_to_point(f),
                             thin_solution_tape(Point.from_set(res.members), res.omitted))
        got = thin_solution_from_tape(pulled, 4, 10)
        assert verify_thin_at(f, got, 10, 4).ok
    assert checked >= 20


# --- the SeqWWKL tracking trees ----------------------------------------------------


def test_half_measure_levels():
    for tree in (TreeByRule.full(), FIRST1, NO11):
        for sigma in (Prefix(), Prefix((1,)), Prefix((0,)), Prefix((1, 0))):
            t = half_measure_tree(tree, sigma)
            for d in range(1, 13):
                assert measure_at_level(t, d) in (Fraction(1), Fraction(1, 2))


def test_half_measure_kills_dead_side():
    # in first-1, extending sigma=empty by 0 dies at length 1
    t = half_measure_tree(FIRST1, Prefix())
    assert measure_at_level(t, 4) == Fraction(1, 2)
    assert Prefix((1, 0, 0, 0)) in t and Prefix((0, 0, 0, 0)) not in t


def test_ext_predicate():
    assert ext_in_tree(FIRST1, Prefix((1,)), 5)
    assert not ext_in_tree(FIRST1, Prefix((0,)), 2)
    assert ext_in_tree(FIRST1, Prefix((0,)), 1)  # k <= |rho| counts as extendible


def test_assemble_path_through_no11():
    paths = {}

    def path_for(sigma):
        if sigma.bits not in paths:
            paths[sigma.bits] = leftmost_path_point(half_measure_tree(NO11, sigma), 8)
        return paths[sigma.bits]

    c = assemble_path(path_for)
    assert verify_path_at(NO11, c, 10).ok


def test_wkl_from_seqwwkl_witness_sound():
    rows = check_witness_soundness(wkl_from_seqwwkl_witness(), rng(), 5, 12, 3)
    assert not soundness_failures(rows)


def _ref_ext_in_tree(s, rho, k):
    # depth-first search on Prefix strings, the 1-child popped first
    if k <= len(rho):
        return True
    if rho not in s:
        return False
    stack = [rho]
    while stack:
        cur = stack.pop()
        if len(cur) == k:
            return True
        for b in (0, 1):
            child = cur.extend(b)
            if child in s:
                stack.append(child)
    return False


def _ref_tracking_member(ext, sigma, tau):
    # the tracking-tree rule written on Prefix strings
    if len(tau) == 0:
        return True
    s0, s1 = sigma.extend(0), sigma.extend(1)
    if tau.bits[0] == 0 and ext(s0, len(tau)):
        return True
    if tau.bits[0] == 1 and ext(s1, len(tau)):
        return True
    for k in range(len(tau)):
        if tau.bits[0] == 0 and ext(s0, k) and not ext(s1, k):
            return True
        if tau.bits[0] == 1 and ext(s1, k) and not ext(s0, k):
            return True
        if ext(s0, k) and ext(s1, k) and not ext(s0, k + 1) and not ext(s1, k + 1):
            return True
    return False


def _tracking_bases():
    yield TreeByRule.full()
    yield NO11
    yield FIRST1
    for k in range(20):
        yield TreeByRule.from_tape(Point.from_seed(k), f"seed{k}")


TRACKING_SIGMAS = (Prefix(), Prefix((1,)), Prefix((0, 1)))


def test_tracking_tree_by_index_matches_prefix_rule():
    for base in _tracking_bases():
        for sigma in TRACKING_SIGMAS:
            cache = {}

            def ext(rho, k, base=base, cache=cache):
                if (rho.bits, k) not in cache:
                    cache[(rho.bits, k)] = _ref_ext_in_tree(base, rho, k)
                return cache[(rho.bits, k)]

            t = half_measure_tree(base, sigma)
            assert t.index_member is not None
            for n in range(10):
                for bits in itertools.product((0, 1), repeat=n):
                    tau = Prefix(bits)
                    want = _ref_tracking_member(ext, sigma, tau)
                    assert (tau in t) == want, (base.label, sigma, tau)
                    assert t.index_member(string_index(tau)) == want, (base.label, sigma, tau)
            for rho in (sigma.extend(0), sigma.extend(1), Prefix(), Prefix((1, 0))):
                for k in range(10):
                    assert ext_in_tree(base, rho, k) == ext(rho, k), (base.label, rho, k)


def test_ext_in_tree_tests_rule_trees_in_prefix_search_order():
    # a rule tree is searched on string indices; it must test the same
    # strings, in the same order, as the depth-first search on Prefix strings
    def counting(tree):
        asked = []

        def member(sigma):
            asked.append(sigma.bits)
            return sigma in tree

        return TreeByRule(member, tree.label), asked

    for base in (NO11, HAND_TREES["fix"](1, 0)):
        tested = 0
        for sigma in TRACKING_SIGMAS:
            for rho in (sigma.extend(0), sigma.extend(1)):
                for k in range(10):
                    t, got = counting(base)
                    ref, want = counting(base)
                    assert ext_in_tree(t, rho, k) == _ref_ext_in_tree(ref, rho, k)
                    assert got == want, (base.label, rho, k)
                    tested += len(got)
        assert tested > 100, base.label


def test_tracking_tree_levels_match_orphan_scan():
    # the rule-backed copy has no index_member, so it runs the orphan scan
    for base in _tracking_bases():
        for sigma in TRACKING_SIGMAS:
            t = half_measure_tree(base, sigma)
            rule_copy = TreeByRule(t.member, t.label)
            for d in range(10):
                assert level_members(t, d) == level_members(rule_copy, d), (base.label, sigma, d)


def test_wkl_from_seqwwkl_forward_image_pinned():
    pins = {
        0: "b02d7e838674f3b7b7f4d8c0f58407fcc18adac9a9400e65c81a984473d1274d",
        6: "b13f2b8d407efe65b87dd3961a183a101060bdbef521eecef26504a38e73b8c9",
        7: "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
    }
    for seed, digest in pins.items():
        img = wkl_from_seqwwkl_witness().forward_image(Point.from_seed(seed))
        bits = bytes(img.bit(i) for i in range(2000))
        assert hashlib.sha256(bits).hexdigest() == digest, seed


def test_dropping_a_swept_seqwwkl_forward_frees_its_context(monkeypatch):
    # the sweep parks S, which reads ctx.tape(0), and its tracking trees in
    # its own scratch; the view shares the context's ledger, not the context,
    # so dropping the tape frees the context and the parked trees without
    # waiting for a gc collection
    from wred import catalog

    members, build = [], catalog.half_measure_tree

    def recorded(s, sigma):
        tree = build(s, sigma)
        members.append(weakref.ref(tree.index_member))  # what the sweep parks
        return tree

    monkeypatch.setattr(catalog, "half_measure_tree", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = FunctionalTape(wkl_from_seqwwkl_witness().forward, [Point.from_seed(5)], 4096)
        for x in range(200):
            tape.bit(x)
        assert len(members) > 3 and all(ref() is not None for ref in members)
        ctx = weakref.ref(tape.ctx)
        del tape
        assert ctx() is None and all(ref() is None for ref in members)
    finally:
        if enabled:
            gc.enable()


def _ref_in_s(query, count, bits):
    # the interleave's membership test on bit tuples, reading through query
    def member_via(bit_of, col):
        idx = 0
        for b in col:
            idx = 2 * idx + 1 + b
            if bit_of(idx) != 1:
                return False
        return True

    if count == 2:
        return member_via(lambda p: query(2 * p), bits[0::2]) and member_via(
            lambda p: query(2 * p + 1), bits[1::2])
    cols = {}
    for pos, b in enumerate(bits):
        cols.setdefault(cantor_unpair(pos)[0], []).append(b)
    return all(member_via(lambda p, i=i: query(cantor_pair(i, p)), col)
               for i, col in cols.items())


class _RecordingTape:
    def __init__(self, base):
        self.base, self.reads = base, []

    def bit(self, pos):
        self.reads.append(pos)
        return self.base.bit(pos)


def test_wkl_interleave_queries_match_tuple_reference():
    bases = (Point.from_seed(7), Point.from_seed(12), Point(lambda p: 1, "ones"),
             Point(lambda p: 0 if p % 11 == 10 else 1, "sparse-zeros"))
    for count in (2, "omega"):
        forward = wkl_interleave(count).forward
        for base in bases:
            for x in range(1 << 10):
                got = _RecordingTape(base)
                value = forward.step(EvalContext([got], Ledger(1 << 20)), x)
                want = _RecordingTape(base)
                expect = 1 if _ref_in_s(want.bit, count, index_bits(x)) else 0
                assert (value, got.reads) == (expect, want.reads), (count, base.label, x)


def test_wkl_interleave_memo_agrees_with_walk():
    # a sweep answers each node from its parent's memoized answer; a step on a
    # fresh scratch walks every column.  Same bits, and the sweep reads at
    # most the one cell of x's walk that x's last bit adds.
    from wred.kernel import FunctionalTape, check_use_soundness

    bases = (Point.from_seed(7), Point.from_seed(12), Point(lambda p: 1, "ones"),
             Point(lambda p: 0 if p % 11 == 10 else 1, "sparse-zeros"))
    for count in (2, "omega"):
        forward = wkl_interleave(count).forward
        for base in bases:
            seen = _RecordingTape(base)
            image = FunctionalTape(forward, [seen], 4096)
            for x in range(1 << 10):
                seen.reads.clear()
                bit = image.bit(x)
                walked = _RecordingTape(base)
                assert bit == forward.step(EvalContext([walked], Ledger(4096)), x), (
                    count, base.label, x)
                assert len(seen.reads) <= min(x, 1), (count, base.label, x)
                assert set(seen.reads) <= set(walked.reads), (count, base.label, x)
            assert check_use_soundness(forward, [base], 600, 4096), (count, base.label)


# --- blow-up ---------------------------------------------------------------------


def test_blowup_identity_when_already_big():
    b = blowup_tree(FIRST1, Fraction(1, 2), Fraction(1, 4), depth=6)
    assert b.tree is FIRST1 and b.shifts == []


def test_blowup_once_bound_exact():
    b = blowup_once(FIRST1, Fraction(1, 2), Fraction(1, 10), depth=8)
    complement = 1 - measure_at_level(b.tree, 8)
    assert complement <= Fraction(11, 10) * Fraction(1, 4)


def test_blowup_paths_map_into_base():
    from wred.kernel import FunctionalTape
    from wred.problems import level_members

    b = blowup_once(FIRST1, Fraction(1, 2), Fraction(1, 10), depth=8)
    for sigma in level_members(b.tree, 8):
        src = Point.from_bits(sigma.bits, tail=1)
        img = FunctionalTape(b.path_map, [src], 100000)
        shift = next((len(sh) for sh in b.shifts if sigma.bits[: len(sh)] == sh.bits), 0)
        assert Prefix(tuple(img.bit(i) for i in range(8 - shift))) in FIRST1


def test_blowup_reaches_target():
    b = blowup_tree(FIRST1, Fraction(1, 2), Fraction(3, 4), depth=8)
    assert measure_at_level(b.tree, 8) >= Fraction(3, 4)


# --- thin set machinery -------------------------------------------------------------


def test_ts_step_trivial_n1():
    f = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "par")
    g = ts_step_coloring(1, 1, 2, f)
    assert all(g.value(t) == f.value(t) for t in itertools.combinations(range(8), 2))


def test_ts_step_extract_parity_example():
    f = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity-sum")
    g = ts_step_coloring(1, 2, 2, f)
    res = find_thin(g, SearchBudget(horizon=14, size=7, node_limit=500_000))
    assert res.found
    avoided = tuple((res.omitted >> i) & 1 for i in range(2))
    got = ts_step_extract(f, 1, 2, 2, res.members, avoided, horizon=14)
    assert got is not None
    members, omitted, _ = got
    assert verify_thin_at(f, ThinSolution.of(members, omitted), 14, 3).ok


def test_ts_step_extract_frees_its_colorings_at_once():
    # the oracle's search (find_thin) and the chain lookup keep their open
    # levels in plain lists, not in self-recursive closures, so with gc
    # disabled the colorings are freed as soon as the caller drops them
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity-sum")
        g = ts_step_coloring(1, 2, 2, f)
        res = find_thin(g, SearchBudget(horizon=14, size=7, node_limit=500_000))
        avoided = tuple((res.omitted >> i) & 1 for i in range(2))
        assert ts_step_extract(f, 1, 2, 2, res.members, avoided, horizon=14) is not None
        refs = weakref.ref(f), weakref.ref(g)
        del f, g
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_ts_step_rejects_non_thin_input():
    f = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "par")
    with pytest.raises(InputError):
        ts_step_extract(f, 1, 2, 2, list(range(10)), (0, 1), horizon=12)


def test_ts_aca_identity_unfolds():
    g = ts_aca_coloring(1, lambda z: z)
    assert all(g.value(t) == 0 for t in itertools.combinations(range(8), 3))
    h = list(range(2, 16))
    m = ts_aca_largest_index(g, h, b=1, horizon=16)
    for y in (0, 1):
        assert ts_aca_range_query(lambda z: z, g, h, 1, m, y, 16) is True


def test_ts_aca_doubling():
    f = lambda z: 2 * z
    g = ts_aca_coloring(1, f)
    h = list(range(2, 16))
    m = ts_aca_largest_index(g, h, b=1, horizon=16)
    assert ts_aca_range_query(f, g, h, 1, m, 3, 16) is False
    assert ts_aca_range_query(f, g, h, 1, m, 4, 16) is True


def test_ts_pigeonhole_cases_and_extract():
    par = Coloring(1, 2, lambda t: t[0] % 2, "par")
    g = ts_pigeonhole_coloring(par)
    assert g.value((0, 1)) == 2  # f(0) < f(1)
    assert g.value((1, 2)) == 1  # f(1) > f(2)
    assert g.value((0, 2)) == 0
    capped = Coloring(1, 6, lambda t: min(t[0], 5), "cap")
    got = ts_pigeonhole_extract(capped, range(5, 16), omitted=1, horizon=16)
    assert got == (list(range(5, 16)), 5)
    with pytest.raises(InputError):
        ts_pigeonhole_extract(par, range(8), omitted=0, horizon=8)


def test_ts33_constant_short_circuits():
    const = Coloring(2, 3, lambda t: 1, "one")
    members, color, log = ts33_pipeline(const, horizon=12, size=4)
    assert color == 1 and len(members) >= 4
    assert verify_homogeneous_at(const, members, 12, 4).ok


def test_ts33_agreement_values_bounded():
    # whenever the stage-1 set omits distinct-count 2, the four agreement
    # cases are exhaustive: the pattern never needs a fifth value
    f = Coloring(2, 2, lambda t: (t[0] * t[1]) % 2, "prod")
    g = _distinct_count_coloring(f)
    h = [x for x in range(10)]
    for t in itertools.combinations(h, 3):
        assert g.value(t) in (0, 1)  # 2-colorings never take three values


# --- every coloring memoizes its rule per tuple, derived ones included ------------


def _scramble(k):
    return lambda t: sum((i + 3) * x * x + x for i, x in enumerate(t)) % k


def _counting(rule, calls):
    """rule, counting its runs per tuple in calls."""

    def counting(t):
        calls[t] += 1
        return rule(t)

    return counting


# the plain rules, without a memo, that the derived colorings must agree with
def _plain_step(m, n, k):
    return lambda f: lambda z: sum(f.value((z[0],) + z[1 + i * m:1 + (i + 1) * m]) * k**i
                                   for i in range(n))


def _plain_distinct_count(f):
    return lambda t: len({f.value((t[0], t[1])), f.value((t[0], t[2])),
                          f.value((t[1], t[2]))}) - 1


BASE = [1, 3, 4, 7, 8, 10, 12, 13, 15, 18]


def _plain_restrict(f):
    return lambda t: f.value(tuple(BASE[i] for i in t))


def _plain_agreement(f):
    # the four-way pattern on the restriction, patterns 2 and 3 collapsed
    def pattern(t):
        a, b, c = f.value((t[1], t[2])), f.value((t[0], t[1])), f.value((t[0], t[2]))
        if a == b == c:
            return 0
        if b == c != a:
            return 1
        if b == a != c:
            return 2
        return 3

    return lambda t: min(pattern(tuple(BASE[i] for i in t)), 2)


# (derived coloring of f, its plain rule, f's arity and colors, base reads per tuple)
MEMOIZED = {
    "ts_step(1,2,2)": (lambda f: ts_step_coloring(1, 2, 2, f), _plain_step(1, 2, 2), 2, 2, 2),
    "ts_step(2,2,3)": (lambda f: ts_step_coloring(2, 2, 3, f), _plain_step(2, 2, 3), 3, 3, 2),
    "distinct-count": (_distinct_count_coloring, _plain_distinct_count, 2, 3, 3),
    "restrict": (lambda f: _restrict_coloring(f, BASE), _plain_restrict, 2, 3, 1),
    "agreement": (lambda f: _agreement_coloring(f, BASE), _plain_agreement, 2, 2, 3),
}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_memoized_coloring_reads_its_base_once_per_tuple(name):
    derive, plain, arity, k, reads = MEMOIZED[name]
    calls, runs = Counter(), Counter()
    g = derive(Coloring(arity, k, _counting(_scramble(k), calls), "counted"))
    g.rule = _counting(g.rule, runs)
    read = []  # every base tuple the plain rule reads, repeats included
    ref = plain(SimpleNamespace(value=lambda t: read.append(t) or _scramble(k)(t)))
    tuples = list(itertools.combinations(range(len(BASE)), g.arity))
    assert [g.value(t) for t in tuples] == [ref(t) for t in tuples]
    assert len(read) == reads * len(tuples)
    # the base is a Coloring too: its rule runs once per base tuple read
    assert calls == Counter({t: 1 for t in read})
    assert runs == Counter({t: 1 for t in tuples}) and g.memo == dict(zip(tuples, map(ref, tuples)))
    for t in tuples:
        g.value(t)
    assert calls == Counter({t: 1 for t in read}) and runs == Counter({t: 1 for t in tuples})


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_memoized_coloring_keeps_its_checks_and_memoizes_no_error(name):
    derive, _, arity, k, _ = MEMOIZED[name]
    calls, runs = Counter(), Counter()
    # out of range on every base tuple from 0 or BASE[0], which the least
    # derived tuple reads
    base = Coloring(arity, k, _counting(lambda t: k if t[0] in (0, BASE[0]) else 0, calls),
                    "counted")
    g = derive(base)
    g.rule = _counting(g.rule, runs)
    for bad in [tuple(range(g.arity))[::-1], (0,) * g.arity, tuple(range(g.arity + 1))]:
        with pytest.raises(InputError):
            g.value(bad)
    assert not calls and not runs and not g.memo
    least = tuple(range(g.arity))
    with pytest.raises(ContractError):
        g.value(least)
    first = calls.copy()
    wrong = [t for t in first if t[0] in (0, BASE[0])]
    assert wrong and all(first[t] == 1 for t in first)
    with pytest.raises(ContractError):
        g.value(least)
    # asked again: the derived rule and the wrong base tuple run again, while
    # the base tuples read before it were memoized
    assert runs == Counter({least: 2}) and least not in g.memo
    assert calls == first + Counter(wrong)
    assert all(t not in base.memo for t in wrong) and set(base.memo) == set(first) - set(wrong)
    over_runs = Counter()
    over = Coloring(2, 2, _counting(lambda t: 2, over_runs), "over")
    for _ in range(2):
        with pytest.raises(ContractError):
            over.value((0, 1))  # checked on every read, and never stored
    assert over_runs == Counter({(0, 1): 2}) and not over.memo


# --- cube colorings -----------------------------------------------------------------


def test_cube_class_counts():
    assert len(cube_classes("none")) == 8
    assert len(cube_classes("transitive-pair")) == 7
    assert len(cube_classes("hereditary-pairs")) == 6


def test_cube_dispatch_table():
    assert cube_dispatch(frozenset([(0, 0, 0)])) == ("STRIV", "semi-trivial")
    assert cube_dispatch(frozenset([(0, 1, 0)])) == ("CAC", "semi-transitive")
    assert cube_dispatch(frozenset([(0, 0, 1)])) == ("SHER", "semi-hereditary")
    assert cube_dispatch(frozenset([(0, 1, 0), (1, 0, 1)])) == ("ADS", "transitive")


def test_cube_zero_coloring_striv():
    zero = Coloring(2, 2, lambda t: 0, "zero")
    g, classes = ts3_cube_coloring(zero, "none")
    assert all(g.value(t) == 0 for t in itertools.combinations(range(8), 3))
    solver, prop, got = cube_solve(zero, range(14), frozenset([(1, 1, 1)]), 14, 4)
    assert solver == "STRIV" and got is not None
    assert verify_homogeneous_at(zero, got, 14, 4).ok


def test_cube_semi_transitive_scan():
    order = Coloring(2, 2, lambda t: 1, "const1")  # trivially semi-transitive
    solver, prop, got = cube_solve(order, range(14), frozenset([(0, 1, 0)]), 14, 4)
    assert prop == "semi-transitive" and got is not None


# --- squash configurations ------------------------------------------------------------


def test_projection_markers_are_stage_plus_one():
    ms = squash_markers(squash_config_projection(), 8)
    assert ms.markers == list(range(9))


def test_trivial_q_squash_soundness():
    w = squash(squash_config_trivial_q(), stages=30, columns=2)
    rows = check_witness_soundness(w, rng(), 5, 16, 4)
    assert not soundness_failures(rows)


def test_coh_squash_markers_and_identity():
    cfg = squash_config_coh()
    ms = squash_markers(cfg, 22)
    assert all(ms[s + 1] > s for s in range(len(ms) - 1))
    table = squash_forward(cfg, ms, Point.from_seed(5), 16, count=4)
    assert len(table) == 5


def test_squash_backward_coh_reproduces_columns():
    # Theta is the identity for COH: the unraveled chain's bookkeeping
    # keeps handing the same cohesive set to every column
    t0 = Point.from_seed(77)
    sols = squash(squash_config_coh(), 24, 3).pull_back(None, t0)
    expect = [t0.bit(x) for x in range(12)]
    for i in range(3):
        assert [family_column(sols, i).bit(x) for x in range(12)] == expect, i


def _xor_plain_squash_config():
    """A plain <TRIV,TRIV> <= TRIV: Phi(<A, B>) = A xor B, backward = instance xor solution."""
    t = triv_spec()
    fwd = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, 2 * x) ^ ctx.query(0, 2 * x + 1),
                              "xor"))
    back = pointwise(2, lambda ctx, x: ctx.query(0, x) ^ ctx.query(1, x), "inst-xor-sol")
    w = Witness(parallel_product(t, t), t, fwd, back, label="xor-plain")
    return SquashConfig(q_spec=t, witness=w, label="xor-plain")


def test_plain_squash_backward_reads_the_pair_instance():
    # TRIV's tolerance is the identity, so the unravel is P_i = <A_i, B_{i+1}>
    # xor R_i with R_0 = T and R_{i+1} the odd half of P_i; S_i is the even half
    cfg = _xor_plain_squash_config()
    ms = squash_markers(cfg, 40)
    assert ms.markers == list(range(41))
    fam, sol = Point.from_seed(21), Point.from_seed(22)

    def a(i, x):
        return family_column(fam, i).bit(x)

    def b(i, x):  # B_i(x) = A_i(x) xor B_{i+1}(x) from m_i = i on, and C(x) = 0 below
        return sum(a(k, x) for k in range(i, x + 1)) % 2

    t = sol.bit
    want = [
        lambda u: a(0, u) ^ t(2 * u),
        lambda u: a(1, u) ^ b(1, 2 * u) ^ t(4 * u + 1),
        lambda u: a(2, u) ^ b(2, 2 * u) ^ b(1, 4 * u + 1) ^ t(8 * u + 3),
    ]
    row = squash_forward(cfg, ms, fam, 30, count=1)[1]
    assert row[:30] == [b(1, x) for x in range(30)]
    pulled = squash(cfg, 40, 3).pull_back(fam, sol)
    for i in range(3):
        expect = [want[i](u) for u in range(8)]
        assert [family_column(pulled, i).bit(u) for u in range(8)] == expect, i

    # the row tapes the backward reads are charged to its caller: with a
    # forward that spends 300 ticks, position 3 (column 2 at 0) reads
    # B_1(1), one forward step
    def heavy(ctx, x):
        ctx.tick(300)
        return ctx.query(0, 2 * x) ^ ctx.query(0, 2 * x + 1)

    cheap = squash(_xor_plain_squash_config(), 6).backward
    cfg.witness.forward = oblivious(pointwise(1, heavy, "heavy-xor"))
    heavy = squash(cfg, 6).backward
    assert evaluate(cheap, [fam, sol], 3, 200).converged
    out = evaluate(heavy, [fam, sol], 3, 200)
    assert (out.status, out.reason, out.position) == ("diverged", "fuel", 3)


def test_plain_squash_backward_builds_each_level_once(monkeypatch):
    # the unravel reads B_1..B_4 as one stage-major table, on one display
    from wred.combinators import _Display

    built = {}  # (display, j) -> the level tape T_j
    level = _Display.level

    def counted(self, j):
        return built.setdefault((self, j), level(self, j))

    monkeypatch.setattr(_Display, "level", counted)
    backward = squash(_xor_plain_squash_config(), 70, 4).backward
    assert evaluate(backward, [Point.from_seed(21), Point.from_seed(22)], 40,
                    DEFAULT_FUEL).converged
    levels = {j for _, j in built}
    assert len({id(t) for t in built.values()}) == len(levels) == 35
    assert len({d for d, _ in built}) == 1


def test_iterate_wkl_interleave():
    w = wkl_interleave(2)
    it = iterate_finite(w, 3)
    members = {0: TreeByRule.full(), 1: NO11, 2: FIRST1}
    from wred.kernel import family_tape

    fam = family_tape(lambda i: tree_to_point(members.get(i, TreeByRule.full())))
    img = it.forward_image(fam, fuel=1 << 20)
    merged = TreeByRule.from_tape(img)
    path = leftmost_path_point(merged, 12)
    pulled = it.pull_back(fam, path, fuel=1 << 20)
    for i in range(3):
        v = verify_path_at(members[i], family_column(pulled, i), 3)
        assert v.ok, f"column {i}: {v.detail}"


# --- registry ---------------------------------------------------------------------


def test_entry_ids_stable():
    ids = sorted(ENTRIES)
    assert "rt_product" in ids and "squash_coh_interleave" in ids and "ts3_cube" in ids


def test_run_entry_calls_a_grid_independent_check_once(monkeypatch):
    """An entry's checks run once per run_entry call, given the whole grid."""
    calls = []

    def checks(grid, rng, horizon, size):
        calls.append(grid)
        return [SoundnessRow("probe", f"call{len(calls)}-{i}", PASS) for i in range(2)]

    grid = [{"x": 0}, {"x": 1}, {"x": 2}]
    monkeypatch.setitem(ENTRIES, "probe", CatalogEntry("probe", None, grid, checks))
    rows = run_entry("probe", rng(), 1, 8, 2)
    assert calls == [grid]
    assert [r.check for r in rows] == ["call1-0", "call1-1"]
    # a second run_entry call runs the checks again: nothing is kept between calls
    assert run_entry("probe", rng(), 1, 8, 2) == [
        SoundnessRow("probe", f"call2-{i}", PASS) for i in range(2)]
    assert calls == [grid, grid]
    # an entry without a grid hands its checks the one empty grid point
    monkeypatch.setitem(ENTRIES, "probe", CatalogEntry("probe", None, [], checks))
    run_entry("probe", rng(), 1, 8, 2)
    assert calls[-1] == [{}]


def test_grid_independent_checks_read_neither_params_nor_rng():
    """`_wkl_measure_checks` reads neither the grid points nor the rng: it
    leaves a fresh rng's state as it found it and returns len(grid) equal
    copies of its rows."""
    entry = ENTRIES["wkl_interleave"]
    assert entry.checks is _wkl_measure_checks and len(entry.grid) == 2
    r = rng()
    before = r.getstate()
    rows = _wkl_measure_checks(entry.grid, r, 16, 4)
    assert r.getstate() == before
    once = _wkl_measure_checks([{}], rng(), 16, 4)
    assert once and rows == once * len(entry.grid)


def test_unknown_entry_rejected():
    with pytest.raises(InputError):
        run_entry("nope", rng(), 1, 8, 2)


def test_compose_rt_embeds_bit_for_bit():
    w1 = rt_color_embed(1, 2, 3)
    w2 = rt_color_embed(1, 3, 4)
    comp = compose_witness(w1, w2)
    direct = rt_color_embed(1, 2, 4)
    r = rng()
    for _ in range(20):
        tape = Point.from_seed(r.getrandbits(32))
        a = comp.forward_image(tape)
        b = direct.forward_image(tape)
        assert [a.bit(i) for i in range(24)] == [b.bit(i) for i in range(24)]


def test_catalog_functionals_honor_kernel_contracts():
    # determinism, use soundness, and downward closure, sampled over the
    # named forward functionals against random total oracles
    from hypothesis import given, settings, strategies as st
    from wred.kernel import check_downward_closure, check_use_soundness, evaluate

    witnesses = [
        rt_color_embed(1, 2, 3),
        rt_arity_lift(1, 2, 2),
        rt_product(1, 2, 3),
        coh_interleave(2),
        wkl_interleave(2),
        wkl_interleave("omega"),
        ts_collapse(1, 2, 4),
    ]

    @given(st.integers(0, 2**30), st.integers(0, 18), st.integers(64, 4096))
    @settings(max_examples=25, deadline=None)
    def run(seed, x, fuel):
        tape = Point.from_seed(seed)
        for w in witnesses:
            f = w.forward
            a = evaluate(f, [tape], x, fuel)
            assert a == evaluate(f, [tape], x, fuel)
            assert check_use_soundness(f, [tape], x, fuel)
            assert check_downward_closure(f, [tape], x, fuel)

    run()

    # the forward and the backward of every catalog witness and of the
    # composites the combinators build, deep enough for nested tapes
    composites = [w for e in ENTRIES.values() for w in e.witnesses()] + [
        compose_witness(rt_color_embed(1, 2, 3), rt_color_embed(1, 3, 4)),
        iterate_finite(echo_pair_witness(), 2),
        iterate_finite(echo_pair_witness(), 3),
        witness_parallel(rt_color_embed(1, 2, 3), coh_interleave(2)),
        lift_seq(rt_product(1, 2, 3)),
        fanout_rt(rt_color_embed(1, 2, 2), 2),
        wkl_from_seqwwkl_witness(),
        *(squash(make(), 70, 2) for make in SQUASH_CONFIGS.values()),
        squash(_xor_plain_squash_config(), 70, 2),
    ]
    functionals = [f for w in composites for f in (w.forward, w.backward)]
    functionals.append(blowup_tree(FIRST1, Fraction(1, 2), Fraction(3, 4), depth=8).path_map)
    tapes = [Point.from_seed(7), Point.from_seed(12)]
    for f in functionals:
        for x in (0, 5, 17, 40, 64):
            out = evaluate(f, tapes[: f.arity], x, 4096)
            assert out.converged and out == evaluate(f, tapes[: f.arity], x, 4096), (f, x)
            assert check_use_soundness(f, tapes[: f.arity], x, 4096), (f, x)

    # every read map is exact: the step is value-oblivious
    mapped = [f for f in [w.forward for w in witnesses] + functionals if f.reads is not None]
    mapped += [make().witness.forward for make in SQUASH_CONFIGS.values()]
    assert len(mapped) >= 30  # not vacuous
    for f in mapped:
        assert _read_map_is_exact(f), f

    # a value-dependent step wrapped in `oblivious` is caught: on zeros it
    # reads x and x + 1, where bit x is 1 only x
    either = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x) or ctx.query(0, x + 1),
                                 "either"))
    assert set(either.reads(3)) == {(0, 3), (0, 4)}
    assert not _read_map_is_exact(either)


def _read_map_is_exact(f, seeds=(3, 17, 29), below=64) -> bool:
    """At each x < below, on seeded oracles, the cells step(x) queries in a
    fresh context are set(f.reads(x))."""
    for seed in seeds:
        for x in range(below):
            tapes = [_RecordingTape(Point.from_seed(seed + t)) for t in range(f.arity)]
            f.step(EvalContext(tapes, Ledger(DEFAULT_FUEL)), x)
            if {(t, p) for t, tape in enumerate(tapes) for p in tape.reads} != set(f.reads(x)):
                return False
    return True


def test_blowup_search_exhaustion_is_resource_error():
    from wred.kernel import ResourceError

    # the only minimal non-member sits at depth 5, out of a depth-3 search
    deep = TreeByRule(lambda s: s.bits[:5] != (1, 1, 1, 1, 1), "deep-death")
    with pytest.raises(ResourceError):
        blowup_once(deep, Fraction(31, 32), Fraction(1, 10), depth=3)


def test_rt_product_every_brute_solution_serves_both():
    # enumerate all minimal homogeneous samples for the paired coloring
    w = rt_product(1, 2, 3)
    f = Coloring(1, 2, lambda t: (t[0] // 6) % 2, "blocks6")
    g = Coloring(1, 3, lambda t: (t[0] // 8) % 3, "blocks8")
    pair = interleave_tapes(coloring_to_point(f), coloring_to_point(g))
    h = coloring_from_tape(w.forward_image(pair), 1, 6)
    import itertools as it

    found = 0
    for members in it.combinations(range(12), 4):
        if len({h.value((x,)) for x in members}) == 1:
            found += 1
            assert verify_homogeneous_at(f, members, 12, 4).ok
            assert verify_homogeneous_at(g, members, 12, 4).ok
    assert found > 0
