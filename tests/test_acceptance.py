"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import random
import time
from fractions import Fraction

from wred.adversaries import qwwkl_cutter, ts1_backward_sample, ts1_diagonalizer
from wred.catalog import (
    SQUASH_CONFIGS,
    blowup_once,
    entry_ids,
    half_measure_tree,
    rt_color_embed,
    run_entry,
    wkl_interleave,
)
from wred.codings import (
    BoundedPredicate,
    LimitPredicate,
    audit_limit,
    audit_predicate,
    jump_coloring,
    jump_decode,
    kummer_claim_check,
    kummer_coloring,
    seq_rrt1_greedy,
    true_homogeneous_set,
)
from wred.combinators import (
    check_witness_soundness,
    fanout_rt,
    merge_base,
    soundness_failures,
    split_base,
    squash_forward,
    squash_markers,
)
from wred.harness import SuiteConfig, run_suite
from wred.kernel import Point, Prefix, interleave_tapes, oblivious, pointwise
from wred.oracle import SearchBudget, enumerate_thin
from wred.problems import (
    HAND_TREES,
    Coloring,
    TreeByRule,
    measure_at_level,
    tree_to_point,
    verify_rainbow_at,
)

SEED = 2026
QWWKL_LOG_DIGEST = "2589f3fe395635b2eeef8a6142ad4e1852275b0233fcb4af3d6de646d51c25d8"


def _report(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- 1: generic witness soundness ----------------------------------------------


def test_criterion_1_generic_soundness():
    t0 = time.time()
    total_rows, failures = 0, []
    for eid in entry_ids():
        rows = run_entry(eid, random.Random(SEED), 100, 16, 4, fuel=4096)
        total_rows += len(rows)
        failures.extend((eid, r) for r in rows if r.status == "fail")
    elapsed = time.time() - t0
    detail = (f"{total_rows} checks over {len(entry_ids())} entries, "
              f"{len(failures)} failures, {elapsed:.1f}s")
    _report(1, not failures and elapsed < 600, detail)


# -- 2: squashing structural identity --------------------------------------------


def test_criterion_2_squash_identity():
    horizon, outcomes = 24, []
    for name in sorted(SQUASH_CONFIGS):
        cfg1, cfg2 = SQUASH_CONFIGS[name](), SQUASH_CONFIGS[name]()
        ms1 = squash_markers(cfg1, horizon + 6)
        ms2 = squash_markers(cfg2, horizon + 6)
        assert ms1.markers == ms2.markers, f"{name}: markers differ across runs"
        assert all(ms1[s + 1] > s for s in range(len(ms1) - 1)), f"{name}: marker bound"
        fam_a, fam_b = Point.from_seed(101), Point.from_seed(909)
        for fam in (fam_a, fam_b):
            squash_forward(cfg1, ms1, fam, horizon, count=5)  # raises on any mismatch
        outcomes.append(name)
    _report(2, len(outcomes) >= 3,
            f"identity exact on [m_i, {horizon}) for i <= 4 in {outcomes}; "
            "markers instance-independent")


# -- 3: exact measure identities ---------------------------------------------------


def test_criterion_3_exact_measures():
    no11 = HAND_TREES["no-11"]()
    first1 = HAND_TREES["first-bit"](1)
    w = wkl_interleave(2)
    img = TreeByRule.from_tape(
        w.forward_image(interleave_tapes(tree_to_point(no11), tree_to_point(first1)),
                        fuel=1 << 20))
    for d in range(7):
        lhs = measure_at_level(img, 2 * d)
        rhs = measure_at_level(no11, d) * measure_at_level(first1, d)
        assert lhs == rhs, f"interleave level {2 * d}: {lhs} != {rhs}"

    for base in (TreeByRule.full(), first1, no11):
        for sigma in (Prefix(), Prefix((1,)), Prefix((0, 1))):
            t = half_measure_tree(base, sigma)
            for d in range(13):
                mu = measure_at_level(t, d)
                assert mu in (Fraction(1), Fraction(1, 2)), f"T_sigma level {d}: {mu}"

    p, eps = Fraction(1, 2), Fraction(1, 10)
    blown = blowup_once(first1, p, eps, depth=8)
    complement = 1 - measure_at_level(blown.tree, 8)
    bound = (1 + eps) * (1 - p) ** 2
    assert complement <= bound, f"blow-up complement {complement} > {bound}"
    _report(3, True,
            f"interleave product d<=6 exact; tracking levels in {{1, 1/2}} to 12; "
            f"blow-up complement {complement} <= {bound}")


# -- 4: qWWKL adversary bookkeeping ---------------------------------------------------


def test_criterion_4_qwwkl_bookkeeping():
    phi = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x), "id"))
    psi = pointwise(1, lambda ctx, x: 0, "zero")
    t0 = time.time()
    tree, log = qwwkl_cutter(phi, psi, Fraction(1, 2), Fraction(3, 4), stages=64)
    elapsed = time.time() - t0
    from wred.adversaries import least_cut_width

    assert least_cut_width(Fraction(1, 2), Fraction(3, 4)) == 3
    for rec in log.records:
        if rec.case == "2":
            assert rec.measure_after == rec.measure_before * Fraction(7, 8), \
                f"stage {rec.stage} cut is not exactly 7/8"
    assert elapsed < 60, f"64-stage run took {elapsed:.1f}s"
    assert log.digest() == QWWKL_LOG_DIGEST, f"log digest drifted: {log.digest()}"
    _report(4, True,
            f"a=3; every cut exactly 7/8; mu(T)={tree.measure()}; "
            f"{elapsed:.2f}s; digest pinned")


# -- 5: TS1 diagonalizer bounds -------------------------------------------------------


def _embed23():
    return pointwise(1, lambda ctx, x: ((ctx.query(0, x // 2) % 2) >> (x % 2)) & 1,
                     "embed23")


def test_criterion_5_ts1_bounds():
    def echo():
        return pointwise(1, lambda ctx, x: ctx.query(0, x), "echo")

    def echo_shift():
        return pointwise(1, lambda ctx, x: ctx.query(0, x + 1), "echo+1")

    def spin():
        def step(ctx, x):
            while True:
                ctx.tick()

        return pointwise(1, step, "spin")

    outcomes = []
    for label, psi, fuel in (("echo", echo(), 50_000), ("echo-shift", echo_shift(), 50_000),
                             ("spin", spin(), 200)):
        res = ts1_diagonalizer(_embed23(), psi, 2, 3, stages=24, fuel=fuel, horizon=32)
        actions = len(res.log.action_stages())
        assert actions <= 1, f"{label}: {actions} action stages"
        assert res.assembled is not None, f"{label}: no assembled set"
        assert len(res.assembled_colors) <= 2, f"{label}: too many image colors"
        if actions == 1:
            pulled = ts1_backward_sample(psi, res.assembled, 32, fuel=fuel)
            f_colors = {res.colors[x] for x in pulled if x < len(res.colors)}
            assert f_colors == {0, 1}, f"{label}: backward output misses a color"
        outcomes.append(f"{label}({actions} action)")
    _report(5, True, "; ".join(outcomes) + "; T shows <= 2 image colors at 32")


# -- 6: coding decoders ----------------------------------------------------------------


def _depth1_predicates():
    return [
        BoundedPredicate(lambda i, x: int(x == i), 1, lambda i: 1, label="x=i"),
        BoundedPredicate(lambda i, x: 0, 1, lambda i: 0, label="never"),
        BoundedPredicate(lambda i, x: int(i % 2 == 0 and x >= i), 1,
                         lambda i: int(i % 2 == 0), label="evens"),
        BoundedPredicate(lambda i, x: int(i % 3 == 0 and x == 2 * i), 1,
                         lambda i: int(i % 3 == 0), label="3s-late"),
        BoundedPredicate(lambda i, x: int(x > 2 * i), 1, lambda i: 1, label="gt-2i"),
        BoundedPredicate(lambda i, x: int(i < 4 and x == i * i), 1,
                         lambda i: int(i < 4), label="small-sq"),
        BoundedPredicate(lambda i, x: int(i % 2 == 1 and x == i + 5), 1,
                         lambda i: int(i % 2 == 1), label="odd+5"),
        BoundedPredicate(lambda i, x: int(i >= 3 and x == 0), 1,
                         lambda i: int(i >= 3), label="ge3-at0"),
        BoundedPredicate(lambda i, x: int(x * x == i), 1,
                         lambda i: int(round(i ** 0.5) ** 2 == i), label="squares"),
        BoundedPredicate(lambda i, x: int(x == i % 7), 1, lambda i: 1, label="mod7"),
    ]


def _depth2_predicates():
    def stable(psi, rho, truth, label):
        # phi = psi(i, x0) or x1 < rho(i, x0): forall x1 collapses to psi
        return BoundedPredicate(
            lambda i, x0, x1: int(psi(i, x0) or x1 < rho(i, x0)), 2, truth, label=label)

    return [
        stable(lambda i, x0: i % 2 == 0 and x0 >= i, lambda i, x0: 0,
               lambda i: int(i % 2 == 0), "s2-evens"),
        stable(lambda i, x0: False, lambda i, x0: x0,
               lambda i: 0, "s2-never"),
        stable(lambda i, x0: i < 3, lambda i, x0: x0,
               lambda i: int(i < 3), "s2-threshold"),
        stable(lambda i, x0: x0 == i and False, lambda i, x0: 0 if x0 != i else x0 + 1,
               lambda i: 0, "s2-spike"),
        stable(lambda i, x0: i % 3 == 0 and x0 >= 2 * i, lambda i, x0: 0,
               lambda i: int(i % 3 == 0), "s2-3s"),
        stable(lambda i, x0: i % 4 == 1 and x0 >= i, lambda i, x0: x0 % 3,
               lambda i: int(i % 4 == 1), "s2-mod4"),
        stable(lambda i, x0: x0 == 2 * i, lambda i, x0: 0,
               lambda i: 1, "s2-always"),
        stable(lambda i, x0: False, lambda i, x0: i,
               lambda i: 0, "s2-none"),
        stable(lambda i, x0: i in (1, 2, 3) and x0 >= 5, lambda i, x0: x0,
               lambda i: int(i in (1, 2, 3)), "s2-123"),
        stable(lambda i, x0: i % 2 == 1 and x0 == i + 3, lambda i, x0: min(x0, 2),
               lambda i: int(i % 2 == 1), "s2-odd+3"),
    ]


def test_criterion_6_coding_decoders():
    preds = _depth1_predicates() + _depth2_predicates()
    assert len(preds) == 20
    mismatches = []
    for pred in preds:
        assert audit_predicate(pred, range(6)) == [], f"{pred.label}: declaration lies"
        cols = jump_coloring(pred)
        h = lambda i, p=pred: true_homogeneous_set(p, i, 20, 4)
        got = jump_decode(pred, cols, h, range(6), 64)
        for i in range(6):
            if got[i] != pred.truth(i):
                mismatches.append((pred.label, i))
    assert not mismatches, f"jump decode mismatches: {mismatches}"

    checked = 0
    for k in (2, 3, 4):
        pred = LimitPredicate(
            lambda i, y: int((i % 2 == 0 and y >= 3) or (i % 3 == 0 and y in (0, 1))),
            1, lambda i: int(i % 2 == 0), lambda i: 3, label="k-lim")
        assert audit_limit(pred, range(6)) == []
        for xs in itertools.combinations(range(5), k - 1):
            f = kummer_coloring(pred, k)(xs)
            for res in enumerate_thin(f, SearchBudget(horizon=20, size=6), limit=20):
                ok, msg = kummer_claim_check(pred, k, xs, res.members, res.omitted, 20)
                assert ok is True, f"k={k} {xs}: {msg}"
                checked += 1
    _report(6, checked > 100,
            f"20 predicates x 6 indices decode with zero mismatches; "
            f"{checked} thin solutions pass the claim check")


# -- 7: fan-out correctness --------------------------------------------------------------


def test_criterion_7_fanout():
    for k in (2, 3, 4):
        for s in (1, 2, 3):
            for v in range(k**s):
                assert merge_base(split_base(v, k, s), k) == v
            f = Coloring(2, k**s, lambda t, m=k**s: (t[0] * 5 + t[1]) % m, "probe")
            for t in itertools.combinations(range(8), 2):
                digits = split_base(f.value(t), k, s)
                assert merge_base(digits, k) == f.value(t)
    w = fanout_rt(rt_color_embed(2, 2, 2), 2)
    assert w.source.params == {"n": 2, "k": 4}
    rows = check_witness_soundness(w, random.Random(SEED), 30, 16, 8, fuel=4096)
    fails = soundness_failures(rows)
    passes = sum(r.status == "pass" for r in rows)
    _report(7, not fails and passes >= 40,
            f"split/merge identity exhaustive (k<=4, s<=3, domain [0,8)); "
            f"fan-out of the identity witness: {passes} passes, {len(fails)} failures")


# -- 8: rainbow constructions --------------------------------------------------------------


def test_criterion_8_rainbows():
    import math

    from wred.adversaries import cm_coloring, rainbow_measure_coloring

    ones = pointwise(1, lambda ctx, x: 1, "ones")
    res = cm_coloring(ones)
    counts = {}
    for t in itertools.combinations(range(24), 2):
        v = res.coloring.value(t)
        counts[v] = counts.get(v, 0) + 1
    assert max(counts.values()) <= 2, "cm coloring not 2-bounded on [0,24)^2"

    def split_phi():
        def step(ctx, x):
            b = ctx.query(0, 0)
            return 1 if x in ((0, 1) if b == 0 else (2, 3)) else 0

        return pointwise(1, step, "split")

    for q in (Fraction(1, 2), Fraction(1, 4)):
        for phi in (ones, split_phi()):
            arb = rainbow_measure_coloring(phi, q)
            assert len(arb.cylinders) <= math.ceil(1 / q)
            for cyl in arb.cylinders:
                assert cyl.measure >= q
            for a, b in itertools.combinations(arb.cylinders, 2):
                assert not a.overlaps(b)

    rng = random.Random(SEED)
    solved = 0
    for trial in range(50):
        b = rng.randrange(2, 6)
        shift = rng.randrange(16)
        cols = lambda i, b=b, shift=shift: Coloring(
            1, None, lambda t: (t[0] + shift + 7 * i) // b, f"b{b}")
        out = seq_rrt1_greedy(cols, count=4, size=8, horizon=64)
        for i, sol in enumerate(out):
            assert sol is not None
            assert verify_rainbow_at(cols(i), sol, 64, 8).ok
        solved += 1
    _report(8, solved == 50,
            "cm 2-bounded on [0,24)^2; cylinder counts <= ceil(1/q) with exact "
            f"measures >= q; greedy rainbows verified on {solved * 4} columns at N=64")


# -- 9: determinism ---------------------------------------------------------------------


def test_criterion_9_determinism():
    cfg = SuiteConfig(samples=10, horizon=16, size=4, fuel=4096, seed=SEED)
    a = run_suite("rt_product", cfg).to_csv()
    b = run_suite("rt_product", cfg).to_csv()
    assert a == b, "suite reports differ between identical runs"

    phi = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x), "id"))
    psi = pointwise(1, lambda ctx, x: 0, "zero")
    log1 = qwwkl_cutter(phi, psi, Fraction(1, 2), Fraction(3, 4), stages=32)[1].to_csv()
    log2 = qwwkl_cutter(phi, psi, Fraction(1, 2), Fraction(3, 4), stages=32)[1].to_csv()
    assert log1 == log2, "adversary logs differ between identical runs"

    cfgq = SQUASH_CONFIGS["coh-interleave"]()
    m1 = squash_markers(cfgq, 20).markers
    m2 = squash_markers(SQUASH_CONFIGS["coh-interleave"](), 20).markers
    assert m1 == m2
    _report(9, True, "byte-identical suite reports, adversary logs, and markers "
                     "under fixed seed/horizon/fuel")
