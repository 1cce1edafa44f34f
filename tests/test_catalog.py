import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from wred.catalog import (
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
    entry_ids,
)
from wred.combinators import (
    check_witness_soundness,
    compose_witness,
    iterate_finite,
    soundness_failures,
    squash,
    squash_forward,
    squash_markers,
)
from wred.kernel import (
    EvalContext,
    InputError,
    Point,
    Prefix,
    cantor_pair,
    cantor_unpair,
    evaluate,
    family_column,
    interleave_tapes,
)
from wred.oracle import SearchBudget, find_homogeneous, find_thin
from wred.problems import (
    Coloring,
    ThinSolution,
    TreeByRule,
    coloring_from_tape,
    coloring_to_point,
    index_bits,
    leftmost_path_point,
    level_members,
    measure_at_level,
    string_index,
    thin_solution_from_tape,
    thin_solution_tape,
    tree_to_point,
    verify_homogeneous_at,
    verify_path_at,
    verify_thin_at,
)


def rng():
    return random.Random(999)


NO11 = TreeByRule(lambda s: all(s.bits[i : i + 2] != (1, 1) for i in range(len(s) - 1)), "no-11")
FIRST1 = TreeByRule(lambda s: len(s) == 0 or s.bits[0] == 1, "first-1")


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
    for count, steps, use in ((2, 1455, {0: 12}), ("omega", 1201, {0: 5})):
        out = evaluate(wkl_interleave(count).forward, [tape], 600, 4096)
        assert (out.status, out.value, out.steps, out.use) == ("converged", 0, steps, use)
    out = evaluate(wkl_from_seqwwkl_witness().backward, [tape], 12, 4096)
    assert (out.status, out.value, out.steps, out.use) == ("converged", 1, 104, {0: 22777875})


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

    c = assemble_path(path_for, 10)
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
                value = forward.step(EvalContext([got], 1 << 20), x)
                want = _RecordingTape(base)
                expect = 1 if _ref_in_s(want.bit, count, index_bits(x)) else 0
                assert (value, got.reads) == (expect, want.reads), (count, base.label, x)


# --- blow-up ---------------------------------------------------------------------


def test_blowup_identity_when_already_big():
    b = blowup_tree(FIRST1, Fraction(1, 2), Fraction(1, 4), depth=6)
    assert b.tree is FIRST1 and b.shifts == []


def test_blowup_once_bound_exact():
    b = blowup_once(FIRST1, Fraction(1, 2), Fraction(1, 10), depth=8)
    complement = 1 - measure_at_level(b.tree, 8)
    assert complement <= Fraction(11, 10) * Fraction(1, 4)


def test_blowup_paths_map_into_base():
    from wred.kernel import apply_functional
    from wred.problems import level_members

    b = blowup_once(FIRST1, Fraction(1, 2), Fraction(1, 10), depth=8)
    for sigma in level_members(b.tree, 8):
        src = Point.from_bits(sigma.bits, tail=1)
        img = apply_functional(b.path_map, [src], 100000)
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
    g = Coloring(3, 3, lambda t: len({f.value((t[0], t[1])), f.value((t[0], t[2])),
                                      f.value((t[1], t[2]))}) - 1, "dc")
    h = [x for x in range(10)]
    for t in itertools.combinations(h, 3):
        assert g.value(t) in (0, 1)  # 2-colorings never take three values


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
    run = squash_forward(cfg, ms, Point.from_seed(5), 16, count=4)
    assert len(run.table) == 5


def test_squash_backward_coh_reproduces_columns():
    # Theta is the identity for COH: the unraveled chain's bookkeeping
    # keeps handing the same cohesive set to every column
    from wred.combinators import squash_backward

    cfg = squash_config_coh()
    ms = squash_markers(cfg, 24)
    t0 = Point.from_seed(77)
    sols = squash_backward(cfg, ms, t0, 3)
    for i, s in enumerate(sols):
        expect = [t0.bit(x) for x in range(12)]
        assert [s.bit(x) for x in range(12)] == expect


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
    ids = entry_ids()
    assert "rt_product" in ids and "squash_coh_interleave" in ids and "ts3_cube" in ids


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
