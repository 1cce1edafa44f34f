import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from wred.combinators import (
    MarkerSequence,
    SquashConfig,
    Witness,
    alternative_embed,
    alternative_product,
    check_witness_soundness,
    combine_verdicts,
    compose_witness,
    compositional_product,
    fanout_rt,
    iterate_finite,
    lift_seq,
    merge_base,
    parallel_product,
    seq,
    squash,
    squash_forward,
    squash_markers,
    triv_spec,
    witness_parallel,
)
from wred.kernel import (
    DEFAULT_FUEL,
    Diverge,
    Functional,
    InputError,
    Point,
    evaluate,
    family_column,
    identity_functional,
    interleave_tapes,
    oblivious,
    pointwise,
)
from wred.problems import PASS, rt_spec

from helpers import (
    echo_pair_witness,
    echo_spec,
    projection_functional,
    soundness_failures,
    split_base,
)


def identity_witness(spec):
    return Witness(spec, spec, identity_functional(), identity_functional(),
                   label=f"id[{spec.name}]")


def rng():
    return random.Random(12345)


# --- witness basics -----------------------------------------------------------


def test_witness_arity_checked_structurally():
    # the backward's arity is the kind: 1 is strong, 2 is plain, no other arity is a witness
    spec = triv_spec()
    assert Witness(spec, spec, identity_functional(), projection_functional(0, 1)).kind == "strong"
    assert Witness(spec, spec, identity_functional(), projection_functional(1)).kind == "plain"
    with pytest.raises(InputError, match="got 3"):
        Witness(spec, spec, identity_functional(), projection_functional(1, arity=3))
    with pytest.raises(InputError, match="forward"):
        Witness(spec, spec, projection_functional(1), identity_functional())


def test_identity_witness_sound_on_rt():
    rows = check_witness_soundness(identity_witness(rt_spec(1, 2)), rng(), 20, 16, 4)
    assert not soundness_failures(rows)
    assert sum(r.status == PASS for r in rows) >= 30


# --- parallel product ----------------------------------------------------------


def test_parallel_identity_pair_sound():
    w = witness_parallel(identity_witness(rt_spec(1, 2)), identity_witness(rt_spec(1, 3)))
    rows = check_witness_soundness(w, rng(), 15, 12, 3)
    assert not soundness_failures(rows)


def test_parallel_components_roundtrip():
    p, q = rt_spec(1, 2), rt_spec(1, 3)
    r = rng()
    pair = parallel_product(p, q)
    a, b = p.sample_instance(r), q.sample_instance(r)
    inst = pair.decode(interleave_tapes(a, b))
    fa, fb = p.decode(a), q.decode(b)
    for x in range(10):
        assert inst[0].value((x,)) == fa.value((x,))
        assert inst[1].value((x,)) == fb.value((x,))


def test_parallel_kind_mismatch_downgrades():
    strong = identity_witness(triv_spec())
    plain = Witness(triv_spec(), triv_spec(), identity_functional(),
                    projection_functional(1, arity=2))
    assert witness_parallel(strong, plain).kind == "plain"
    assert witness_parallel(strong, strong).kind == "strong"


def test_mixed_kind_backwards_read_the_right_oracles():
    # a strong witness (flip forward, shift backward) and a plain one whose
    # backward is instance XOR solution: each pulled-back bit below is
    # worked out by hand from the definitions of the combinators
    spec = triv_spec()
    flip = pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip")
    shift = pointwise(1, lambda ctx, x: ctx.query(0, x + 1), "shift")
    xor = pointwise(2, lambda ctx, x: ctx.query(0, x) ^ ctx.query(1, x), "xor")
    strong = Witness(spec, spec, flip, shift)
    plain = Witness(spec, spec, identity_functional(), xor)
    a, u = Point.from_seed(11), Point.from_seed(12)
    cases = [
        (compose_witness(strong, plain), lambda x: 1 ^ a.bit(x + 1) ^ u.bit(x + 1)),
        (compose_witness(plain, strong), lambda x: a.bit(x) ^ u.bit(x + 1)),
        (witness_parallel(strong, plain),
         lambda x: u.bit(x + 2) if x % 2 == 0 else a.bit(x) ^ u.bit(x)),
        (lift_seq(plain), lambda x: a.bit(x) ^ u.bit(x)),
    ]
    for w, want in cases:
        assert w.kind == "plain"
        pulled = w.pull_back(a, u)
        assert [pulled.bit(x) for x in range(24)] == [want(x) for x in range(24)], w.label


# --- alternative product ---------------------------------------------------------


def test_alternative_singleton_behaves_as_component():
    p = rt_spec(1, 2)
    alt = alternative_product([p])
    r = rng()
    from wred.combinators import tag_tape

    tape = p.sample_instance(r)
    t, inst = alt.decode(tag_tape(0, tape))
    assert t == 0
    from wred.oracle import SearchBudget

    sols = alt.brute_solution_tapes((t, inst), SearchBudget(horizon=16, size=4))
    assert sols and alt.verify_at((t, inst), sols[0], 16, 4).ok


def test_alternative_embedding_sound():
    specs = [triv_spec(), rt_spec(1, 2)]
    rows = check_witness_soundness(alternative_embed(specs, 1), rng(), 10, 16, 4)
    assert not soundness_failures(rows)


def test_alternative_dispatch_by_tag():
    from wred.combinators import tag_tape

    specs = [triv_spec(), rt_spec(1, 2), rt_spec(1, 3)]
    alt = alternative_product(specs)
    t, _ = alt.decode(tag_tape(2, Point.zeros()))
    assert t == 2
    with pytest.raises(InputError):
        alt.decode(tag_tape(3, Point.zeros()))


# --- composition ------------------------------------------------------------------


def test_compose_identity_identity():
    w = compose_witness(identity_witness(triv_spec()), identity_witness(triv_spec()))
    img = w.forward_image(Point.alternating())
    assert [img.bit(i) for i in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_compose_kind_algebra():
    spec = triv_spec()
    strong = identity_witness(spec)
    plain = Witness(spec, spec, identity_functional(), projection_functional(1, arity=2))
    assert compose_witness(strong, strong).kind == "strong"
    assert compose_witness(strong, plain).kind == "plain"
    assert compose_witness(plain, strong).kind == "plain"


def test_compose_spec_mismatch_rejected():
    with pytest.raises(InputError):
        compose_witness(identity_witness(triv_spec()), identity_witness(rt_spec(1, 2)))


def test_compose_plain_backward_sound():
    spec = rt_spec(1, 2)
    plain = Witness(spec, spec, identity_functional(), projection_functional(1, arity=2),
                    label="plain-id")
    w = compose_witness(plain, plain)
    rows = check_witness_soundness(w, rng(), 10, 16, 4)
    assert not soundness_failures(rows)


def test_nested_work_is_charged_to_the_callers_fuel():
    # a step that spends 300 ticks cannot hide inside a composite run at
    # fuel 200; every composite converges at fuel ENOUGH
    from wred.catalog import SQUASH_CONFIGS

    ENOUGH = 2000

    def heavy(ctx, x):
        ctx.tick(300)
        return ctx.query(0, x)

    def heavy_witness(source, target, arity=1):  # a plain backward (arity 2) reads the instance
        return Witness(source, target, pointwise(1, heavy, "heavy"),
                       pointwise(arity, heavy, "heavy"))

    def heavy_squash(arity):
        w = heavy_witness(parallel_product(e, e), e, arity)
        return squash(SquashConfig(q_spec=e, witness=w, label=f"heavy-{w.kind}"), 6)

    e, rt = echo_spec(), rt_spec(1, 2)
    composites = [
        compose_witness(heavy_witness(e, e), heavy_witness(e, e)),
        witness_parallel(heavy_witness(e, e), heavy_witness(e, e)),
        lift_seq(heavy_witness(e, e)),
        iterate_finite(heavy_witness(parallel_product(e, e), e), 2),
        fanout_rt(heavy_witness(rt, rt), 2),
        heavy_squash(1),
        heavy_squash(2),
    ]
    for w in composites:
        for f in (w.forward, w.backward):
            out = evaluate(f, [Point.zeros()] * f.arity, 3, 200)
            assert (out.status, out.reason) == ("diverged", "fuel"), (w.label, f.label)
            assert evaluate(f, [Point.zeros()] * f.arity, 3, ENOUGH).converged, (w.label, f.label)

    # the squash display's levels: position 10 sweeps level 10 from scratch
    # (11 positions) and one new position of each level below it, 21
    # forward steps of 302 (entry, ticks, read) after the entry charge
    cfg = SQUASH_CONFIGS["projection-toy"]()
    cfg.witness.forward = oblivious(
        pointwise(1, lambda ctx, x: heavy(ctx, 2 * x + 1), "heavy-snd"))
    forward = squash(cfg, 40, 2).forward
    out = evaluate(forward, [Point.from_seed(5)], 10, 200)
    assert (out.status, out.reason) == ("diverged", "fuel")
    assert evaluate(forward, [Point.from_seed(5)], 10, 1 + 21 * 302).converged


# --- compositional product ---------------------------------------------------------


def test_compositional_product_projection_glue():
    p = rt_spec(1, 2)
    glue = projection_functional(0, arity=2)  # Theta(A, B) = A
    qp = compositional_product(p, p, glue)
    r = rng()
    tape = p.sample_instance(r)
    inst = qp.decode(tape)
    from wred.oracle import SearchBudget

    sols = qp.brute_solution_tapes(inst, SearchBudget(horizon=16, size=4))
    assert sols and qp.verify_at(inst, sols[0], 16, 4).ok


def test_compositional_product_corrupted_second_half_fails():
    p = rt_spec(1, 2)
    glue = projection_functional(0, arity=2)
    qp = compositional_product(p, p, glue)
    inst_tape = Point(lambda x: x % 2, "parity")  # coloring f(x) = x mod 2
    inst = qp.decode(inst_tape)
    good_b = Point.from_set({0, 2, 4, 6, 8})
    bad_c = Point.from_set({1, 2, 3, 4})  # mixed colors: not homogeneous for A
    assert qp.verify_at(inst, interleave_tapes(good_b, bad_c), 10, 4).failed


# --- seq and lift ------------------------------------------------------------------


def test_lift_identity_is_columnwise_identity():
    w = lift_seq(identity_witness(rt_spec(1, 2)))
    fam = Point.from_seed(77)
    img = w.forward_image(fam)
    for i in range(4):
        for x in range(16):
            assert family_column(img, i).bit(x) == family_column(fam, i).bit(x)


def test_lift_forward_is_phi_per_column():
    flip = oblivious(pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip"))
    spec = triv_spec()
    w = lift_seq(Witness(spec, spec, flip, identity_functional()))
    fam = Point.from_seed(5)
    img = w.forward_image(fam)
    for i in range(4):
        col = family_column(fam, i)
        expect = [1 - col.bit(x) for x in range(16)]
        assert [family_column(img, i).bit(x) for x in range(16)] == expect


def test_lift_preserves_kind():
    spec = triv_spec()
    plain = Witness(spec, spec, identity_functional(), projection_functional(1, arity=2))
    assert lift_seq(plain).kind == "plain"
    assert lift_seq(identity_witness(spec)).kind == "strong"


def test_seq_of_total_is_total():
    assert seq(rt_spec(1, 2)).is_total
    rows = check_witness_soundness(lift_seq(identity_witness(rt_spec(1, 2))), rng(), 5, 12, 3)
    assert not soundness_failures(rows)


# --- finite iteration ---------------------------------------------------------------


def test_iterate_requires_positive_count():
    with pytest.raises(InputError):
        iterate_finite(echo_pair_witness(), 0)


def test_iterate_n1_is_first_column():
    w = iterate_finite(echo_pair_witness(), 1)
    fam = Point.from_seed(9)
    img = w.forward_image(fam)
    assert [img.bit(x) for x in range(12)] == [family_column(fam, 0).bit(x) for x in range(12)]


def test_iterate_nesting_puts_first_instance_outermost():
    # forward that projects the LEFT component: the n-fold nesting collapses to A_0
    spec = triv_spec()
    left = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, 2 * x), "left"))
    w = Witness(parallel_product(spec, spec), spec, left, identity_functional())
    it = iterate_finite(w, 4)
    fam = Point.from_seed(31)
    img = it.forward_image(fam)
    a0 = family_column(fam, 0)
    assert [img.bit(x) for x in range(16)] == [a0.bit(x) for x in range(16)]


def test_iterate_echo_recovers_all_columns():
    w = echo_pair_witness()
    it = iterate_finite(w, 3)
    fam = Point.from_seed(41)
    b = it.forward_image(fam)
    sol = interleave_tapes(b, Point.zeros())  # <0, B> solves the merged instance
    recovered = it.pull_back(fam, sol)
    e = echo_spec()
    src = it.source
    assert src.verify_at(src.decode(fam), recovered, 12, 3).ok
    for i in range(3):
        col_inst = family_column(fam, i)
        assert e.verify_at(col_inst, family_column(recovered, i), 12, 3).ok


def test_iterate_soundness_suite():
    rows = check_witness_soundness(iterate_finite(echo_pair_witness(), 3), rng(), 8, 12, 3)
    assert not soundness_failures(rows)


# --- squashing -----------------------------------------------------------------------


def echo_squash_config():
    e = echo_spec()
    return SquashConfig(q_spec=e, witness=echo_pair_witness(), label="echo")


def projection_squash_config():
    t = triv_spec()
    fwd = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, 2 * x + 1), "snd"))
    back = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x // 2), "dup"))
    w = Witness(parallel_product(t, t), t, fwd, back, label="<TRIV,TRIV><=TRIV")
    return SquashConfig(q_spec=t, witness=w, label="projection")


def test_marker_sequence_invariants_enforced():
    with pytest.raises(InputError):
        MarkerSequence([1, 2])
    with pytest.raises(InputError):
        MarkerSequence([0, 2, 2])
    with pytest.raises(InputError):
        MarkerSequence([0, 1, 1])  # m_2 must exceed 1
    MarkerSequence([0, 1, 2, 5])


def test_squash_requires_total_and_tolerant():
    e = echo_spec()
    w = echo_pair_witness()
    nt = rt_spec(1, 2)
    nt.is_total = False
    with pytest.raises(InputError):
        SquashConfig(q_spec=e, witness=Witness(w.source, nt, w.forward, w.backward, w.label))
    no_tol = echo_spec()
    no_tol.tolerance = None
    with pytest.raises(InputError):
        SquashConfig(q_spec=e, witness=Witness(w.source, no_tol, w.forward, w.backward, w.label))


def test_projection_markers_match_hand_simulation():
    cfg = projection_squash_config()
    ms = squash_markers(cfg, 6)
    assert ms.markers[0] == 0 and ms.markers[1] == 1  # least n>0 converging on all of 2^n


def test_markers_instance_independent_and_reproducible():
    cfg = echo_squash_config()
    a = squash_markers(cfg, 8)
    b = squash_markers(echo_squash_config(), 8)
    assert a.markers == b.markers


def _without_reads(make):
    cfg = make()
    cfg.witness.forward.reads = None  # no read map: the config derives one by branching
    return cfg


def test_dfs_and_closure_marker_engines_agree():
    # the markers on the declared read map and on the map derived for a
    # forward without one (`branching_reads`), which is the same map for a
    # value-oblivious step
    from wred.catalog import SQUASH_CONFIGS

    def agree(make, stages):
        return squash_markers(make(), stages).markers == squash_markers(
            _without_reads(make), stages).markers

    assert agree(echo_squash_config, 5)
    for name in ("projection-toy", "trivial-q-rt12"):
        assert agree(SQUASH_CONFIGS[name], 30), name
    # forwards that do read what they declare; their markers lie above the
    # first candidate, so a stage's search tries several
    for name in ("ahead-1", "constant"):
        assert agree(_reading(SYNTHETIC_READS[name]), 8), name


def test_readless_coh_interleave_gets_its_declared_maps_markers_and_table():
    # its forward reads instance bits ahead of the level it answers; with
    # no map it gets one derived for it, and with it the declared map's
    # markers and table
    from wred.catalog import SQUASH_CONFIGS

    make = SQUASH_CONFIGS["coh-interleave"]
    declared, derived = make(), _without_reads(make)
    markers = squash_markers(declared, 35)
    assert squash_markers(derived, 35).markers == markers.markers
    fam = Point.from_seed(3)
    assert (squash_forward(derived, markers, fam, 30, count=4)
            == squash_forward(declared, markers, fam, 30, count=4))


def test_read_map_that_misses_the_levels_is_a_contract_error():
    # projection-toy's map with every V-side (odd) cell dropped: the markers
    # then come out too low, and the table's first read of a level the map
    # did not fill is caught
    from wred.catalog import SQUASH_CONFIGS
    from wred.kernel import ContractError

    cfg = SQUASH_CONFIGS["projection-toy"]()
    plain = cfg.witness.forward.reads
    cfg.witness.forward.reads = lambda x: [(t, p) for t, p in plain(x) if p % 2 == 0]
    markers = squash_markers(cfg, 20)
    assert markers.markers == list(range(21))
    with pytest.raises(ContractError, match="read map missed level 1 at position 1"):
        squash_forward(cfg, markers, Point.from_seed(3), 12, count=4)


def test_value_dependent_step_gets_a_superset_read_map():
    # the step reads A(x), then B(x + 1) or B(x) as A(x) says: the derived
    # map holds both branches' cells, where `oblivious` sees only one; on
    # it the markers leave room for B(x + 1), and the table's identity holds
    from wred.kernel import branching_reads

    def step(ctx, x):
        return ctx.query(0, 2 * (x + 1) + 1) if ctx.query(0, 2 * x) else ctx.query(0, 2 * x + 1)

    want = {(0, 2 * 5), (0, 2 * 5 + 1), (0, 2 * 6 + 1)}
    assert set(branching_reads(pointwise(1, step, "either"), 4)(5)) == want
    assert set(oblivious(pointwise(1, step, "either")).reads(5)) == want - {(0, 2 * 6 + 1)}
    cfg = synthetic_squash_config(None, step)
    assert set(cfg.read_profile().reads(5)) == want
    markers = squash_markers(cfg, 20)
    assert markers.markers == list(range(0, 41, 2))  # as for "ahead-1"
    squash_forward(cfg, markers, Point.from_seed(3), 14, count=4)  # raises unless it holds


def test_squash_forward_identity_checked_exactly():
    cfg = echo_squash_config()
    horizon = 16
    ms = squash_markers(cfg, horizon + 5)
    fam = Point.from_seed(1001)
    table = squash_forward(cfg, ms, fam, horizon, count=4)
    for i in range(5):
        for x in range(ms[i]):
            assert table[i][x] == 0  # C = 0^omega below the marker


def test_squash_forward_projection_all_zeros():
    cfg = projection_squash_config()
    ms = squash_markers(cfg, 21)
    table = squash_forward(cfg, ms, Point.from_seed(7), 16, count=4)
    assert all(all(v == 0 for v in row) for row in table)


def test_squash_backward_chain_and_mutation():
    cfg = echo_squash_config()
    w = squash(cfg, 90, 3)  # deep: column i of the chain reads B_0 at ~2^(i+1) h
    fam = Point.from_seed(314)
    b0 = w.forward_image(fam)
    t0 = interleave_tapes(b0, Point.zeros())  # honest solution <0, B_0>
    sols = w.pull_back(fam, t0)
    e = cfg.q_spec
    for i in range(3):
        assert e.verify_at(family_column(fam, i), family_column(sols, i), 8, 2).ok, f"column {i}"
    # corrupt the solution tail: some recovered column must fail
    bad = interleave_tapes(
        Point(lambda p: 1 - b0.bit(p), "corrupt"), Point.zeros()
    )
    bad_sols = w.pull_back(fam, bad)
    verdicts = [e.verify_at(family_column(fam, i), family_column(bad_sols, i), 8, 2)
                for i in range(3)]
    assert any(v.failed for v in verdicts)


def test_dropping_a_swept_squash_row_frees_its_context():
    # the row's display is parked in its sweep's own context, and so are the
    # display's levels; the display refers to the context weakly and the
    # levels share its ledger, so dropping the row frees the context without
    # waiting for a gc collection
    w = squash(echo_squash_config(), 30)
    enabled = gc.isenabled()
    gc.disable()
    try:
        row = w.forward_image(Point.from_seed(314))
        for x in range(12):
            row.bit(x)
        assert "display" in row.ctx.scratch and 0 in row.ctx.scratch
        ctx = weakref.ref(row.ctx)
        del row
        assert ctx() is None
    finally:
        if enabled:
            gc.enable()


def test_squash_witness_end_to_end_soundness():
    w = squash(echo_squash_config(), stages=90, columns=2)
    rows = check_witness_soundness(w, rng(), 4, 8, 2)
    assert not soundness_failures(rows)
    assert sum(r.status == PASS for r in rows) == 8  # honest passes, both directions
    assert w.kind == "strong"


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def synthetic_squash_config(reads, step=lambda ctx, x: 0):
    """TRIV squashing whose forward declares `reads` on the pair tape.

    The default step reads nothing: the read-closure engine sees only the map.
    """
    t = triv_spec()
    fwd = Functional(1, step, "synthetic", reads)
    back = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x // 2), "dup"))
    w = Witness(parallel_product(t, t), t, fwd, back, label="synthetic")
    return SquashConfig(q_spec=t, witness=w, label="synthetic")


def _reading(reads):
    """A synthetic config whose forward reads every cell its map declares."""

    def step(ctx, x):
        return sum(ctx.query(0, q) for _, q in reads(x)) % 2

    return lambda: synthetic_squash_config(reads, step)


# pair-tape read maps: odd positions are the B_{i+1} half, even ones the A_i half
SYNTHETIC_READS = {
    "ahead-1": lambda x: [(0, 2 * (x + 1) + 1)],
    "ahead-3": lambda x: [(0, 2 * (x + 3) + 1), (0, 2 * x)],
    "instance-ahead-2": lambda x: [(0, 2 * (x + 2)), (0, 2 * x + 1)],
    "doubling": lambda x: [(0, 4 * x + 1)],
    "constant": lambda x: [(0, 0), (0, 5)],  # A_i(0) and B_{i+1}(2), which is below m_1 = 3
}

# sha256 of repr(markers) and of repr(table), confirmed on the recursive engines
SQUASH_MARKER_SHA = "0cd80d5220feeaa6f85f0ee30ccf8a5c7a657e16ae325a1da3ba5ce2a3d6a82f"
SQUASH_TABLE_SHA = {
    "coh-interleave": "69034c296e434d6b9382036038a73b3f1df656a91025304adb3af48cdd9278c9",
    "projection-toy": "bbbcc439d5291cae1847cd6f2f22f9c28120746e357627822db3d5fdae3d3155",
    "trivial-q-rt12": "bbbcc439d5291cae1847cd6f2f22f9c28120746e357627822db3d5fdae3d3155",
}


def test_squash_config_markers_and_tables_pinned():
    from wred.catalog import SQUASH_CONFIGS

    for name in sorted(SQUASH_CONFIGS):
        cfg = SQUASH_CONFIGS[name]()
        ms = squash_markers(cfg, 64)
        assert _sha256(ms.markers) == SQUASH_MARKER_SHA, name
        table = squash_forward(cfg, ms, Point.from_seed(3), 44, count=4)
        assert _sha256(table) == SQUASH_TABLE_SHA[name], name


def test_synthetic_read_map_markers_pinned():
    from wred.kernel import ResourceError

    def markers(name):
        return squash_markers(synthetic_squash_config(SYNTHETIC_READS[name]), 14).markers

    assert markers("ahead-1") == list(range(0, 29, 2))
    assert markers("ahead-3") == list(range(0, 57, 4))
    assert markers("instance-ahead-2") == [0] + list(range(3, 17))
    with pytest.raises(ResourceError) as exc:
        markers("doubling")
    assert exc.value.context == {"stage": 4, "first_candidate": 50}


def reference_closure_check(forward, markers, s, n):
    """The memoized recursive closure engine, kept as the reference.

    can(j, p): Phi(<sigma_j, V_{j+1}>) converges at p for all sigma, i.e.
    every read of every y <= p is available; pair position r reads
    sigma_j(r // 2) when r is even and V_{j+1}(r // 2) when r is odd.
    V_j(q) is available below m_j or where can(j, q) holds, and V_{s+1} = C|n.
    """
    memo = {}

    def avail(j, q):
        if j == s + 1:
            return q < n
        return q < markers[j] or can(j, q)

    def can(j, p):
        if (j, p) not in memo:
            memo[(j, p)] = all(r // 2 < n if r % 2 == 0 else avail(j + 1, r // 2)
                               for y in range(p + 1) for _, r in forward.reads(y))
        return memo[(j, p)]

    return all(can(i, s) for i in range(s, -1, -1))


def test_closure_engine_matches_recursive_reference():
    from wred.catalog import squash_config_coh
    from wred.combinators import CANDIDATE_BUDGET, _closure_check_stage, _ReadProfile
    from wred.kernel import ResourceError

    configs = [synthetic_squash_config(r) for r in SYNTHETIC_READS.values()]
    configs.append(squash_config_coh())
    for cfg in configs:
        forward = cfg.witness.forward
        profile = _ReadProfile(forward.reads)  # shared across stages, as squash_markers does
        markers = [0]
        for s in range(11):
            start = max(markers[-1], s) + 1
            for n in range(start, start + 4):
                want = reference_closure_check(forward, markers, s, n)
                assert _closure_check_stage(profile, markers, s, n) == want
                assert _closure_check_stage(_ReadProfile(forward.reads), markers, s, n) == want
            found = next((n for n in range(start, start + CANDIDATE_BUDGET)
                          if reference_closure_check(forward, markers, s, n)), None)
            if found is None:
                break
            markers.append(found)
    with pytest.raises(ResourceError) as exc:
        _closure_check_stage(_ReadProfile(configs[0].witness.forward.reads), [0, 2, 4], 2, 6,
                             node_budget=5)
    assert exc.value.context == {"stage": 2, "candidate": 6}


def _closure_loop_reference(forward, markers, s, n, node_budget=1 << 20, profile=None):
    """`_closure_check_stage` as it was before its loops were made lean: the
    profile extended every level, `max` for the demand and the node count."""
    from bisect import bisect_left

    from wred.combinators import _ReadProfile
    from wred.kernel import ResourceError

    profile = profile or _ReadProfile(forward.reads)
    top0, top1 = profile.top
    demand = [s]
    nodes = s + 1
    for j in range(1, s + 1):
        profile.extend(demand[-1])
        q = top1[demand[-1]]
        demand.append(max(s, q) if q >= markers[j] else s)
        nodes += max(0, demand[-1] - markers[j] + 1)
        if nodes > node_budget:
            raise ResourceError(f"marker closure exceeded {node_budget} nodes", stage=s, candidate=n)
    profile.extend(demand[-1])
    lim = n
    for j in range(s, -1, -1):
        end = demand[j] + 1
        first_bad = min(bisect_left(top0, n, 0, end), bisect_left(top1, lim, 0, end))
        if first_bad <= s:
            return False
        lim = max(markers[j], first_bad)
    return True


def _verdict_or_error(check, *args, **kwargs):
    from wred.kernel import ResourceError

    try:
        return check(*args, **kwargs)
    except ResourceError as e:
        return str(e), e.context


def test_lean_closure_check_matches_the_loop_it_replaced():
    from wred.catalog import SQUASH_CONFIGS
    from wred.combinators import CANDIDATE_BUDGET, _closure_check_stage, _ReadProfile

    configs = [synthetic_squash_config(r) for r in SYNTHETIC_READS.values()]
    configs += [SQUASH_CONFIGS[name]() for name in sorted(SQUASH_CONFIGS)]
    budgets_failed = 0
    for cfg in configs:
        forward = cfg.witness.forward
        shared = _ReadProfile(forward.reads)  # one per search, as squash_markers keeps it
        markers = [0]
        for s in range(12):
            start = max(markers[-1], s) + 1
            for n in range(start, start + 4):
                want = _closure_loop_reference(forward, markers, s, n)
                assert _closure_check_stage(_ReadProfile(forward.reads), markers, s, n) == want
                assert _closure_check_stage(shared, markers, s, n) == want
                for budget in range(1, 65):
                    want = _verdict_or_error(_closure_loop_reference, forward, markers, s, n, budget)
                    budgets_failed += isinstance(want, tuple)
                    assert _verdict_or_error(_closure_check_stage, _ReadProfile(forward.reads),
                                             markers, s, n, budget) == want, (cfg.label, s, n, budget)
            found = next((n for n in range(start, start + CANDIDATE_BUDGET)
                          if _closure_loop_reference(forward, markers, s, n)), None)
            if found is None:
                break
            markers.append(found)
    assert budgets_failed > 1000  # the budgets end many checks, at many stages


affine = st.tuples(st.integers(0, 2), st.integers(0, 3))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(affine, st.one_of(affine, st.integers(0, 6)))
def test_lean_closure_check_matches_the_loop_on_generated_read_maps(sigma, v):
    """A_i read at a*x + b, and B_{i+1} at c*x + d or at a constant e."""
    from wred.combinators import CANDIDATE_BUDGET, _closure_check_stage, _ReadProfile

    (a, b), (c, d) = sigma, v if isinstance(v, tuple) else (0, v)
    forward = Functional(1, lambda ctx, x: 0, "affine",
                         lambda x: [(0, 2 * (a * x + b)), (0, 2 * (c * x + d) + 1)])
    shared = _ReadProfile(forward.reads)
    markers = [0]
    for s in range(10):
        start = max(markers[-1], s) + 1
        for n in range(start, start + 4):
            for budget in (1, 8, 64, 1 << 20):
                want = _verdict_or_error(_closure_loop_reference, forward, markers, s, n, budget)
                for profile in (shared, _ReadProfile(forward.reads)):
                    assert _verdict_or_error(_closure_check_stage, profile, markers, s, n,
                                             budget) == want, (s, n, budget)
        for n in range(start, start + CANDIDATE_BUDGET):
            verdict = _verdict_or_error(_closure_loop_reference, forward, markers, s, n)
            if verdict is not False:
                break
        if verdict is not True:  # no marker, or the budget ended the search
            break
        markers.append(n)


def _table_charges(cfg, markers, stages, fuel=DEFAULT_FUEL, width=5):
    """The squash table of rows 0..width-1 through `stages`, read position
    by position: each position's bit and the steps charged to it, and the
    stall (row, stage, reason) that ended it, if one did."""
    from wred.combinators import _squash_table
    from wred.kernel import FunctionalTape

    rows = FunctionalTape(_squash_table(cfg, markers, range(width)), [Point.from_seed(3)], fuel)
    out, spent = [], 0
    for p in range(stages * width):
        try:
            out.append((rows.bit(p), rows.steps - spent))
        except Diverge as d:
            stage, row = divmod(d.position, width)
            return out, (row, stage, d.reason)
        spent = rows.steps
    return out, None


def test_read_map_table_fills_what_the_lazy_pull_computes():
    # the same table on the declared read map and on the map derived for a
    # forward without one (`branching_reads`): the same bits, the same steps
    # charged to each position, and the same first stall, on the real
    # markers (also at a fuel that ends the table partway) and on m_j = j,
    # too low for the forwards that read ahead
    from wred.catalog import SQUASH_CONFIGS
    from wred.kernel import ResourceError

    makes = {name: SQUASH_CONFIGS[name] for name in SQUASH_CONFIGS}
    makes.update({name: _reading(reads) for name, reads in SYNTHETIC_READS.items()})
    stages = 44  # horizon 40, as squash_forward extends it
    ends = []
    for name, make in sorted(makes.items()):
        try:
            markers = squash_markers(make(), stages + 1).markers
        except ResourceError:  # "doubling" has no markers; these end its chains
            markers = [0] + [4 ** j for j in range(1, stages + 2)]
        charges = sorted({steps for _, steps in _table_charges(make(), markers, stages)[0]})
        # a fuel below the largest charge ends the table partway
        for ms, fuel in ((markers, DEFAULT_FUEL), (list(range(stages + 2)), DEFAULT_FUEL),
                         (markers, charges[len(charges) // 2])):
            filled = _table_charges(make(), ms, stages, fuel)
            assert _table_charges(_without_reads(make), ms, stages, fuel) == filled, name
            ends.append(filled[1] and filled[1][2])
        assert ends[-3] is None and ends[-1] == "fuel" and filled[1][1] > 0, name
    assert ends.count("fuel") == 8 and ends.count("gap") == 4, ends


def test_marker_search_and_table_read_the_map_once(monkeypatch):
    # the config keeps one profile per read map, so the table reads none
    # of the positions the marker search has read, and a new map (or none)
    # gets a profile of its own (or one on a map derived for the forward)
    from wred.catalog import SQUASH_CONFIGS

    for name in sorted(SQUASH_CONFIGS):
        cfg = SQUASH_CONFIGS[name]()
        forward, read = cfg.witness.forward, []
        plain = forward.reads
        monkeypatch.setattr(forward, "reads", lambda x: read.append(x) or plain(x))
        markers = squash_markers(cfg, 50)
        assert read == list(range(50)), name
        squash_forward(cfg, markers, Point.from_seed(3), 44, count=4)
        assert read == list(range(50)), name
        profile = cfg.read_profile()
        assert cfg.read_profile() is profile and profile.reads is forward.reads
        forward.reads = plain
        assert cfg.read_profile() is not profile and cfg.read_profile().reads is plain
        forward.reads = None
        derived = cfg.read_profile()
        assert derived is not profile and cfg.read_profile() is derived
        assert derived.reads is not plain and derived.reads(7) == plain(7)


def test_squash_backward_builds_one_pull_back_per_column(monkeypatch):
    # one unravel serves every column of the sweep: column i reuses the
    # pulled levels of the columns before it instead of rebuilding them
    from wred.catalog import SQUASH_CONFIGS
    from wred.kernel import EvalContext

    w = squash(SQUASH_CONFIGS["projection-toy"](), 70, 4)
    parked = []
    apply = EvalContext.apply

    def counted(self, func, tapes, key):
        if key not in self.scratch and key[0] == "pulled":
            parked.append(key)
        return apply(self, func, tapes, key)

    monkeypatch.setattr(EvalContext, "apply", counted)
    out = evaluate(w.backward, [Point.from_seed(5)], 64, 4096)
    assert out.converged
    assert parked == [("pulled", i) for i in range(4)]


def test_squash_forward_fuel_exhaustion_is_resource_error():
    from wred.kernel import DEFAULT_FUEL, Diverge, ResourceError

    cfg = projection_squash_config()
    ms = squash_markers(cfg, 12)
    w = squash(cfg, 12)  # its forward reads the config's forward when it runs

    def heavy(ctx, x):  # each chain step spends more than a whole read's budget
        ctx.tick(DEFAULT_FUEL + 1)
        return ctx.query(0, 2 * x + 1)

    # it declares snd's map: a map derived from heavy would run out of fuel
    cfg.witness.forward = Functional(1, heavy, "heavy-snd", cfg.witness.forward.reads)
    with pytest.raises(ResourceError) as exc:
        squash_forward(cfg, ms, Point.from_seed(7), 8, count=2)
    assert exc.value.context == {"row": 0, "stage": 0, "reason": "fuel"}
    # the squash forward's image is a lazy tape: it stalls where B_0 first
    # leaves C, at m_0 = 0
    with pytest.raises(Diverge) as stall:
        w.forward_image(Point.from_seed(7)).bit(3)
    assert (stall.value.reason, stall.value.position) == ("fuel", 0)


def test_squash_readers_reject_bad_rows_and_counts():
    cfg, fam = projection_squash_config(), Point.from_seed(7)
    ms = squash_markers(cfg, 12)  # markers m_0..m_12
    bad = [
        lambda: squash_forward(cfg, ms, fam, -1, count=2),
        lambda: squash_forward(cfg, ms, fam, 4, count=-1),
        lambda: squash_forward(cfg, ms, fam, 4, count=13),  # B_13 needs m_13
        lambda: squash(cfg, 12, -1),
        lambda: squash(cfg, 12, 13),
    ]
    for call in bad:
        with pytest.raises(InputError):
            call()
    assert len(squash_forward(cfg, ms, fam, 4, count=12)) == 13
    assert squash_forward(cfg, ms, fam, 8, count=12)[12][11] == 0
    # m_12 is the last marker, so 12 columns are the most; "dup" hands T to each
    assert family_column(squash(cfg, 12, 12).pull_back(fam, fam), 11).bit(0) == fam.bit(0)


def test_squash_forward_markers_too_small_diverge_at_the_stage():
    # Phi(A, B)(x) = B(x+1) needs m_{s+1} >= s+2; with m_s = s the stagewise
    # chain of stage 0 reads C|m_1 = C|1 at position 1
    from wred.kernel import ResourceError

    cfg = synthetic_squash_config(SYNTHETIC_READS["ahead-1"],
                                  step=lambda ctx, x: ctx.query(0, 2 * (x + 1) + 1))
    assert squash_markers(cfg, 3).markers == [0, 2, 4, 6]
    with pytest.raises(ResourceError) as exc:
        squash_forward(cfg, MarkerSequence(list(range(13))), Point.from_seed(5), 8, count=2)
    assert exc.value.context == {"row": 0, "stage": 0, "reason": "gap"}


def test_squash_forward_needs_no_deep_recursion():
    import sys

    from wred.catalog import SQUASH_CONFIGS

    cfg = SQUASH_CONFIGS["projection-toy"]()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(400)  # a chain nested through 68 levels would need far more
    try:
        ms = squash_markers(cfg, 68)
        table = squash_forward(cfg, ms, Point.from_seed(3), 64, count=4)
    finally:
        sys.setrecursionlimit(old)
    assert [len(row) for row in table] == [68] * 5


# --- fan-out ---------------------------------------------------------------------------


def test_split_merge_inverse_exhaustive_small():
    for base in (2, 3, 4):
        for count in (1, 2, 3):
            for v in range(base**count):
                assert merge_base(split_base(v, base, count), base) == v


def test_digit_split_example():
    assert split_base(5, 3, 2) == (2, 1)


def test_fanout_refuses_plain():
    spec2, spec2b = rt_spec(1, 2), rt_spec(1, 2)
    plain = Witness(spec2, spec2b, identity_functional(), projection_functional(1, arity=2))
    with pytest.raises(InputError, match="strong"):
        fanout_rt(plain, 2)


def test_fanout_s1_identity_behavior():
    w = fanout_rt(identity_witness(rt_spec(1, 2)), 1)
    tape = Point.from_seed(8)
    img = w.forward_image(tape)
    assert [img.bit(x) for x in range(24)] == [tape.bit(x) for x in range(24)]


def test_fanout_identity_witness_sound():
    w = fanout_rt(identity_witness(rt_spec(1, 2)), 2)
    assert w.source.params["k"] == 4 and w.target.params["k"] == 4
    rows = check_witness_soundness(w, rng(), 10, 16, 4)
    assert not soundness_failures(rows)


# --- misc -------------------------------------------------------------------------------


def test_combine_verdicts_order():
    from wred.problems import Verdict

    assert combine_verdicts(Verdict(PASS), Verdict("fail", "x")).failed
    assert combine_verdicts(Verdict(PASS), Verdict("inconclusive")).status == "inconclusive"
    assert combine_verdicts(Verdict(PASS), Verdict(PASS)).ok


def test_squash_markers_never_converging_forward_is_resource_error(monkeypatch):
    from wred import combinators
    from wred.kernel import ResourceError

    def spin(ctx, x):
        while True:
            ctx.tick()

    t = triv_spec()
    w = Witness(parallel_product(triv_spec(), triv_spec()), triv_spec(),
                pointwise(1, spin, "spin"), pointwise(1, lambda ctx, x: ctx.query(0, x // 2),
                                                      "dup"))
    cfg = SquashConfig(q_spec=t, witness=w)
    monkeypatch.setattr(combinators, "CANDIDATE_BUDGET", 4)
    with pytest.raises(ResourceError, match="read map of spin diverged at position 0") as exc:
        squash_markers(cfg, 2)
    assert exc.value.context == {"position": 0, "reason": "fuel"}


def test_squash_marker_dfs_width_budget_is_resource_error(monkeypatch):
    from wred import combinators
    from wred.kernel import ResourceError

    # a forward with no declared reads whose step reads x + 1 cells: deriving
    # its map runs 2^(x+1) branches at x, so it gives up loudly at x = 3
    def xor_all(ctx, x):
        v = 0
        for p in range(x + 1):
            v ^= ctx.query(0, 2 * p)  # left component bits
        return v

    t = triv_spec()
    w = Witness(parallel_product(triv_spec(), triv_spec()), triv_spec(),
                pointwise(1, xor_all, "xor"), pointwise(1, lambda ctx, x: ctx.query(0, x // 2),
                                                        "dup"))
    cfg = SquashConfig(q_spec=t, witness=w)
    monkeypatch.setattr(combinators, "WIDTH_BUDGET", 8)
    monkeypatch.setattr(combinators, "CANDIDATE_BUDGET", 4)
    with pytest.raises(ResourceError, match="read map of xor exceeded 8 branches at position 3") \
            as exc:
        squash_markers(cfg, 6)
    assert exc.value.context == {"position": 3, "branches": 9}


def test_squash_forward_runs_on_the_real_context_of_the_pair_tape():
    # a forward that parks the metered pair tape in scratch computes the
    # projection: the display hands it the real context, one per level
    def step(ctx, x):
        if "pair" not in ctx.scratch:
            ctx.scratch["pair"] = ctx.tape(0)  # metered pair view, valid for the sweep
        return ctx.scratch["pair"].bit(2 * x + 1)

    stateless = projection_squash_config()
    stateful = projection_squash_config()
    stateful.witness.forward = pointwise(1, step, "scratchy-snd")  # no read map: derived
    stateless.witness.forward.reads = None
    ms = squash_markers(stateful, 21)
    assert ms.markers == squash_markers(stateless, 21).markers
    fam = Point.from_seed(11)
    assert (squash_forward(stateful, ms, fam, 16, count=4)
            == squash_forward(stateless, ms, fam, 16, count=4))


def test_marker_engines_agree_with_literal_enumeration():
    # the definition: for every tuple of length-n strings, one per level,
    # the nested expression converges at the stage; the closure check
    # decides it on the declared map and on the derived one
    import itertools

    from wred.combinators import _closure_check_stage, _ReadProfile
    from wred.kernel import FunctionalTape, Prefix, branching_reads, continuation

    def converges(forward, c, markers, strings, s, i):
        # V_{s+1} = C|n, V_j = C|m_j followed by T_j = Phi(<sigma_j, V_{j+1}>)
        v = c.prefix(markers[s + 1])
        for j in range(s, i - 1, -1):
            t = FunctionalTape(forward, [interleave_tapes(strings[j], v)], 10_000)
            v = continuation(c.prefix(markers[j]), t)
        try:
            t.bit(s)
        except Diverge:
            return False
        return True

    def brute(forward, c, markers, s, n):
        live = [*markers[:s + 1], n]
        strings = [Prefix(b) for b in itertools.product((0, 1), repeat=n)]
        return all(converges(forward, c, live, dict(zip(range(i, s + 1), combo)), s, i)
                   for i in range(s + 1)
                   for combo in itertools.product(strings, repeat=s + 1 - i))

    # the last two reject candidates: they read B_{i+1} or A_i ahead
    cases = [(projection_squash_config, 3), (echo_squash_config, 3),
             (_reading(SYNTHETIC_READS["ahead-1"]), 2),
             (_reading(SYNTHETIC_READS["instance-ahead-2"]), 2)]
    rejected = 0
    for make, stages in cases:
        cfg = make()
        forward = cfg.witness.forward
        derived = _ReadProfile(branching_reads(forward, 4096))
        markers = [0]
        for s in range(stages):
            for n in range(max(markers[-1], s) + 1, max(markers[-1], s) + 4):
                want = brute(forward, Point.zeros(), markers, s, n)
                got_closure = _closure_check_stage(_ReadProfile(forward.reads), markers, s, n)
                got_derived = _closure_check_stage(derived, markers, s, n)
                assert want == got_closure == got_derived, (cfg.label, s, n)
                if want:
                    markers.append(n)
                    break
                rejected += 1
    assert rejected == 4


# --- algebraic laws (behavioral equality of forward images) -----------------------


def _flip_witness():
    spec = triv_spec()
    flip = oblivious(pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip"))
    return Witness(spec, spec, flip, identity_functional(), label="flip")


def _shift_witness():
    spec = triv_spec()
    shift = oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x + 1), "shift"))
    return Witness(spec, spec, shift, identity_functional(), label="shift")


def _image_bits(w, tape, n=20):
    img = w.forward_image(tape)
    return [img.bit(i) for i in range(n)]


def test_law_composition_associative():
    from hypothesis import given, settings, strategies as st

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def run(seed):
        tape = Point.from_seed(seed)
        a, b, c = _flip_witness(), _shift_witness(), _flip_witness()
        left = compose_witness(compose_witness(a, b), c)
        right = compose_witness(a, compose_witness(b, c))
        assert _image_bits(left, tape) == _image_bits(right, tape)

    run()


def test_law_identity_is_composition_unit():
    from hypothesis import given, settings, strategies as st

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def run(seed):
        tape = Point.from_seed(seed)
        w = _shift_witness()
        ident = identity_witness(triv_spec())
        assert (_image_bits(compose_witness(ident, w), tape)
                == _image_bits(compose_witness(w, ident), tape)
                == _image_bits(w, tape))

    run()


def test_law_parallel_projections_commute():
    from hypothesis import given, settings, strategies as st
    from wred.kernel import even_part, odd_part, interleave_tapes

    @given(st.integers(0, 2**30), st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def run(s1, s2):
        a, b = Point.from_seed(s1), Point.from_seed(s2)
        w = witness_parallel(_flip_witness(), _shift_witness())
        img = w.forward_image(interleave_tapes(a, b))
        left = [even_part(img).bit(i) for i in range(16)]
        right = [odd_part(img).bit(i) for i in range(16)]
        assert left == _image_bits(_flip_witness(), a, 16)
        assert right == _image_bits(_shift_witness(), b, 16)

    run()


def test_law_lift_is_functorial():
    from hypothesis import given, settings, strategies as st

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def run(seed):
        fam = Point.from_seed(seed)
        composed_then_lifted = lift_seq(compose_witness(_flip_witness(), _shift_witness()))
        lifted_then_composed = compose_witness(lift_seq(_flip_witness()),
                                               lift_seq(_shift_witness()))
        for i in range(3):
            for t in range(10):
                a = family_column(composed_then_lifted.forward_image(fam), i).bit(t)
                b = family_column(lifted_then_composed.forward_image(fam), i).bit(t)
                assert a == b

    run()
