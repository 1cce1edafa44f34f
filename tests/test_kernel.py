import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from wred.kernel import (
    ContractError,
    Diverge,
    EvalContext,
    FunctionalTape,
    InputError,
    Ledger,
    Point,
    Prefix,
    RuleTape,
    cantor_pair,
    cantor_unpair,
    check_downward_closure,
    check_use_soundness,
    compose_functionals,
    continuation,
    evaluate,
    even_part,
    family_column,
    family_tape,
    identity_functional,
    interleave_tapes,
    map_tape,
    max_entry_below_rank,
    odd_part,
    pointwise,
    rank_tuple,
    tuple_rank,
    _run_step,
    _step,
    _truncated,
)

from helpers import constant_functional, interleave_functional, projection_functional


# --- pairing and ranking ----------------------------------------------------


@given(st.integers(0, 500), st.integers(0, 500))
def test_cantor_pair_roundtrip(i, x):
    assert cantor_unpair(cantor_pair(i, x)) == (i, x)


@given(st.integers(0, 5000))
def test_cantor_unpair_roundtrip(p):
    i, x = cantor_unpair(p)
    assert cantor_pair(i, x) == p


def test_tuple_rank_least_pair():
    assert tuple_rank((0, 1)) == 0


def test_rank_tuple_5_2_by_enumeration():
    # colex order over all pairs with max < 5 pins rank 5 exactly
    pairs = sorted(
        ((a, b) for b in range(6) for a in range(b)),
        key=lambda t: tuple_rank(t),
    )
    assert pairs[5] == rank_tuple(5, 2) == (2, 3)


@given(st.integers(0, 199))
def test_rank_roundtrip_arity3(r):
    assert tuple_rank(rank_tuple(r, 3)) == r


@given(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
def test_rank_roundtrip_from_tuples(xs):
    t = tuple(sorted(xs))
    assert rank_tuple(tuple_rank(t), len(t)) == t


def test_rank_rejects_nonincreasing():
    with pytest.raises(InputError):
        tuple_rank((3, 3))


def test_max_entry_below_rank():
    # ranks 0..3 at arity 2 are (0,1),(0,2),(1,2),(0,3)
    assert max_entry_below_rank(4, 2) == 3
    assert max_entry_below_rank(0, 2) == -1


def test_max_entry_below_rank_matches_the_scan():
    # the scan over every rank below m, run once per arity: best is its
    # answer for m before rank m is read
    for n in range(1, 5):
        best = -1
        for m in range(400):
            assert max_entry_below_rank(m, n) == best, (m, n)
            best = max(best, rank_tuple(m, n)[n - 1])


# --- tapes -------------------------------------------------------------------


def test_point_memo_deterministic():
    p = Point.from_seed(7)
    first = [p.bit(i) for i in range(64)]
    assert [p.bit(i) for i in range(64)] == first
    assert [Point.from_seed(7).bit(i) for i in range(64)] == first


def test_prefix_gap_diverges():
    pre = Prefix((1, 0, 1))
    assert pre.bit(2) == 1
    with pytest.raises(Diverge):
        pre.bit(3)


def test_continuation_matches_paper_definition():
    sigma = Prefix((1, 1))
    tail = Point.zeros()
    cont = continuation(sigma, tail)
    assert [cont.bit(i) for i in range(4)] == [1, 1, 0, 0]


def test_interleave_constant_tapes():
    t = interleave_tapes(Point.zeros(), Point.ones())
    assert [t.bit(i) for i in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]


@given(st.integers(0, 2**30), st.integers(0, 31))
def test_interleave_even_bits_reproduce_left(seed, pos):
    a, b = Point.from_seed(seed), Point.from_seed(seed + 1)
    t = interleave_tapes(a, b)
    assert even_part(t).bit(pos) == a.bit(pos)
    assert odd_part(t).bit(pos) == b.bit(pos)


def test_family_column_roundtrip():
    members = {i: Point(lambda _, i=i: i % 2, f"c{i}") for i in range(8)}
    fam = family_tape(lambda i: members[i])
    for i in range(8):
        for x in range(16):
            assert family_column(fam, i).bit(x) == i % 2



_HEAD = 20  # the continuation's prefix length


def _views(seed: int):
    """Every view constructor over bases that log their reads, each with the
    literal definition it must match (None: a gap)."""
    reads = []

    def base(k):
        point = Point.from_seed(seed + k)
        return point, RuleTape(lambda p: reads.append((k, p)) or point.bit(p))

    (a, ta), (b, tb) = base(0), base(1)
    members = {}

    def member(i):
        if i not in members:
            members[i] = base(2 + i)
        return members[i]

    def family_literal(p):
        i, x = cantor_unpair(p)
        return member(i)[0].bit(x)

    head = Prefix(tuple(1 - a.bit(p) for p in range(_HEAD)))
    views = {
        "map_tape": (map_tape(ta, lambda p: 3 * p + 1), lambda p: a.bit(3 * p + 1)),
        "even_part": (even_part(ta), lambda p: a.bit(2 * p)),
        "odd_part": (odd_part(ta), lambda p: a.bit(2 * p + 1)),
        "family_column": (family_column(ta, 3), lambda x: a.bit(cantor_pair(3, x))),
        "interleave_tapes": (interleave_tapes(ta, tb),
                             lambda p: a.bit(p // 2) if p % 2 == 0 else b.bit(p // 2)),
        "family_tape": (family_tape(lambda i: member(i)[1]), family_literal),
        "continuation": (continuation(head, ta),
                         lambda p: head.bits[p] if p < len(head) else a.bit(p)),
        "_truncated": (_truncated(ta, 40), lambda p: a.bit(p) if p <= 40 else None),
    }
    return views, reads


@pytest.mark.parametrize("name", list(_views(0)[0]))
def test_every_view_is_a_rule_tape_that_rereads_its_base(name):
    # a view is a RuleTape whose rule is its literal definition, and it
    # keeps no memo: a second read of a position reads the base again
    for seed in (1, 7, 23):
        views, reads = _views(seed)
        view, literal = views[name]
        assert type(view) is RuleTape
        for p in range(64):
            want = literal(p)
            if want is None:
                with pytest.raises(Diverge) as gap:
                    view.bit(p)
                assert (gap.value.reason, gap.value.position) == ("gap", p)
                continue
            reads.clear()
            assert view.bit(p) == want
            first = list(reads)
            assert view.bit(p) == want
            assert reads == first * 2, (name, seed, p)
            assert first or (name == "continuation" and p < _HEAD), (name, seed, p)


# --- evaluation --------------------------------------------------------------


def test_identity_on_alternating():
    out = evaluate(identity_functional(), [Point.alternating()], 3, 100)
    assert out.converged and out.value == 1
    assert out.use == {0: 3}


def test_fuel_zero_always_diverges():
    out = evaluate(constant_functional(0), [Point.zeros()], 0, 0)
    assert not out.converged and out.reason == "fuel"


def test_each_query_costs_one_step_of_fuel():
    # the entry charge plus k queries needs exactly k + 1 steps
    for k in range(4):
        reads = pointwise(1, lambda ctx, x, k=k: sum(ctx.query(0, i) for i in range(k)) % 2,
                          f"read{k}")
        out = evaluate(reads, [Point.zeros()], 0, k + 1)
        assert out.converged and out.steps == k + 1
        out = evaluate(reads, [Point.zeros()], 0, k)
        assert not out.converged and out.reason == "fuel"


def test_arity_mismatch_is_input_error():
    with pytest.raises(InputError):
        evaluate(identity_functional(), [], 0, 10)


def test_oracle_rule_failure_propagates():
    bad = Point(lambda p: 1 // 0, "bad")
    with pytest.raises(ZeroDivisionError):
        evaluate(identity_functional(), [bad], 0, 10)


def test_even_bits_extractor_against_deinterleave_oracle():
    a, b = Point.from_seed(3), Point.from_seed(4)
    merged = interleave_tapes(a, b)
    extractor = pointwise(1, lambda ctx, x: ctx.query(0, 2 * x), "even-bits")
    for d in range(16):
        out = evaluate(extractor, [merged], d, 1000)
        assert out.converged and out.value == a.bit(d)


def test_prefix_oracle_gap_signals_divergence_not_error():
    out = evaluate(identity_functional(), [Prefix((1, 0))], 5, 100)
    assert out.status == "diverged" and out.reason == "gap" and out.position == 2


@given(st.integers(0, 2**30), st.integers(0, 24), st.integers(1, 64))
@settings(max_examples=60)
def test_determinism_and_contracts_on_samples(seed, x, fuel):
    funcs = [identity_functional(), interleave_functional(), projection_functional(1)]
    tapes = [Point.from_seed(seed), Point.from_seed(seed ^ 0x5EED)]
    for f in funcs:
        oracles = tapes[: f.arity]
        a = evaluate(f, oracles, x, fuel)
        b = evaluate(f, oracles, x, fuel)
        assert a == b
        assert check_use_soundness(f, oracles, x, fuel)
        assert check_downward_closure(f, oracles, x, fuel)


def test_functional_tape_lazy_and_terminal_divergence():
    tape = FunctionalTape(identity_functional(), [Prefix((1, 1, 0))], 50)
    assert [tape.bit(i) for i in range(3)] == [1, 1, 0]
    with pytest.raises(Diverge):
        tape.bit(3)
    with pytest.raises(Diverge):
        tape.bit(10)


def test_compose_functionals_is_plain_composition():
    flip = pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip")
    comp = compose_functionals(flip, flip)
    out = evaluate(comp, [Point.alternating()], 7, 1000)
    assert out.converged and out.value == 1  # flip(flip(x)) = x


def test_declared_reads_match_actual_use():
    # at each position of a sweep, the cells queried are exactly the read map's
    for f in (identity_functional(), interleave_functional(), projection_functional(0),
              constant_functional(1, 2)):
        assert f.reads is not None
        cells = set()  # each (tape, pos) the sweep asks for
        tapes = [map_tape(Point.from_seed(1 + t), lambda p, t=t: cells.add((t, p)) or p)
                 for t in range(f.arity)]
        sweep = FunctionalTape(f, tapes, 100)
        for x in range(12):
            cells.clear()
            sweep.bit(x)
            assert cells == set(f.reads(x)), (f, x)


def test_negative_positions_are_input_errors():
    tape = FunctionalTape(identity_functional(), [Point.ones()], 50)
    with pytest.raises(InputError):
        tape.bit(-1)  # a fresh tape
    assert tape.bit(3) == 1
    with pytest.raises(InputError):
        tape.bit(-1)  # not the last materialized bit
    with pytest.raises(InputError):
        evaluate(identity_functional(), [Point.ones()], -3, 50)
    with pytest.raises(InputError):
        evaluate(pointwise(1, lambda ctx, x: ctx.query(0, x - 1), "back1"), [Point.ones()], 0, 50)


# --- the sweep against its one-position definition --------------------------

# position x reads cells 0..x, so it needs x + 2 ticks with the entry charge
PARITY = pointwise(1, lambda ctx, x: sum(ctx.query(0, i) for i in range(x + 1)) % 2, "parity")


def _read_by_run_step(func, tapes, fuel, pos):
    """A FunctionalTape read of pos, as _run_step position by position."""
    ctx = EvalContext(tapes, Ledger(fuel))
    steps = 0
    for x in range(pos + 1):
        try:
            v = _run_step(func, ctx, x)
        except Diverge as d:
            return "diverged", d.reason, x, steps, ctx.use
        steps += ctx.ledger.steps
    return "converged", v, pos, steps, ctx.use


def _read_by_tape(func, tapes, fuel, pos):
    tape = FunctionalTape(func, tapes, fuel)
    try:
        v = tape.bit(pos)
    except Diverge as d:
        return "diverged", d.reason, d.position, tape.steps, tape.ctx.use
    return "converged", v, pos, tape.steps, tape.ctx.use


@pytest.mark.parametrize("fuel", [0, 1, 5, 6, 7])
@pytest.mark.parametrize("pos", [0, 4])
def test_tape_sweep_agrees_with_run_step_at_the_fuel_edges(pos, fuel):
    # position 4 needs 6: fuel 6 converges through it, fuel 5 stalls there
    tapes = [Point.from_seed(3)]
    assert _read_by_tape(PARITY, tapes, fuel, pos) == _read_by_run_step(PARITY, tapes, fuel, pos)


def test_tape_sweep_agrees_with_run_step_on_a_gap():
    tapes = [Prefix((1, 0, 1))]
    got = _read_by_tape(PARITY, tapes, 50, 5)
    assert got == _read_by_run_step(PARITY, tapes, 50, 5)
    assert got[:3] == ("diverged", "gap", 3)


@pytest.mark.parametrize("fuel", [0, 34, 35])
def test_parked_tape_agrees_with_run_step_on_the_callers_ledger(fuel):
    # a cell read through the caller's view costs two ticks, the nested query
    # and the caller's, so positions 0..4 charge 5 + 2 * 15 = 35 to its ledger
    def sides():
        caller = EvalContext([Point.from_seed(8)], Ledger(fuel))
        nested = EvalContext([caller.tape(0)], caller.ledger)
        return caller, nested

    caller, _ = sides()
    tape = caller.apply(PARITY, [caller.tape(0)], "parked")
    try:
        got = ("converged", tape.bit(4))
    except Diverge as d:
        got = ("diverged", d.reason, d.position)
    ref_caller, nested = sides()
    want = None
    for x in range(5):
        try:
            v = _step(PARITY, nested, x)
        except Diverge as d:
            want = ("diverged", d.reason, x)
            break
    want = want or ("converged", v)
    assert got == want
    assert (caller.ledger.steps, caller.use, tape.steps, tape.ctx.use) == (
        ref_caller.ledger.steps, ref_caller.use, 0, nested.use)
    assert got[0] == ("converged" if fuel == 35 else "diverged")


def test_non_bit_step_raises_the_same_contract_error():
    count = pointwise(1, lambda ctx, x: x, "count")
    ctx = EvalContext([Point.ones()], Ledger(50))
    with pytest.raises(ContractError) as want:
        for x in range(4):
            _run_step(count, ctx, x)
    tape = FunctionalTape(count, [Point.ones()], 50)
    with pytest.raises(ContractError) as got:
        tape.bit(3)
    assert str(got.value) == str(want.value)
    assert tape.bit(1) == 1  # a contract error is not a stall


def test_nested_run_charges_the_callers_position_without_restarting_it():
    # a position costs its entry charge, the caller's 10 ticks, the nested
    # entry charge and the nested 10 ticks: 22 on one ledger, though each
    # side alone stays under 21
    inner = pointwise(0, lambda ctx, x: ctx.tick(10) or 0, "ten")

    def step(ctx, x):
        ctx.tick(10)
        return ctx.run(inner, [], x)

    outer = pointwise(0, step, "ten-then-ten")
    assert evaluate(inner, [], 3, 21).converged
    out = evaluate(outer, [], 3, 21)
    assert (out.status, out.reason, out.position) == ("diverged", "fuel", 0)
    out = evaluate(outer, [], 3, 22)
    assert (out.status, out.value, out.steps) == ("converged", 0, 4 * 22)


def test_views_and_parked_tapes_outlive_their_sweep():
    # a view and a parked tape share the sweep's tapes, use and ledger, not
    # its context, so after the sweep is dropped they read on as a live one
    flip = pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip")
    comp = compose_functionals(flip, flip)

    def sweep():
        tape = FunctionalTape(comp, [Point.from_seed(4)], 1000)
        assert [tape.bit(x) for x in range(4)] == list(Point.from_seed(4).prefix(4).bits)
        return tape

    live = sweep()
    dropped = sweep()
    view, inner = dropped.ctx.tape(0), dropped.ctx.scratch["inner"]
    del dropped
    live_view, live_inner = live.ctx.tape(0), live.ctx.scratch["inner"]
    assert [view.bit(x) for x in range(10)] == [live_view.bit(x) for x in range(10)]
    assert [inner.bit(x) for x in range(10)] == [live_inner.bit(x) for x in range(10)]
    assert [inner.bit(x) for x in range(10)] == [1 - b for b in Point.from_seed(4).prefix(10).bits]


def test_dropping_a_swept_composite_frees_its_context():
    # the composite parks its inner tape, which reads ctx.tape(0) on ctx's
    # ledger, in ctx's own scratch; both share ctx's ledger, not ctx, so
    # dropping the tape frees the context without waiting for a gc collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        flip = pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip")
        tape = FunctionalTape(compose_functionals(flip, flip), [Point.from_seed(2)], 1000)
        assert tuple(tape.bit(x) for x in range(8)) == Point.from_seed(2).prefix(8).bits
        assert "inner" in tape.ctx.scratch
        ctx = weakref.ref(tape.ctx)
        del tape
        assert ctx() is None
    finally:
        if enabled:
            gc.enable()
