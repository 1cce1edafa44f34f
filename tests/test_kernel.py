import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from wred.kernel import (
    Continuation,
    ContractError,
    Diverge,
    EvalContext,
    FunctionalTape,
    InputError,
    MapTape,
    Point,
    Prefix,
    cantor_pair,
    cantor_unpair,
    check_downward_closure,
    check_use_soundness,
    compose_functionals,
    constant_functional,
    evaluate,
    even_part,
    family_column,
    family_tape,
    identity_functional,
    interleave_functional,
    interleave_tapes,
    max_entry_below_rank,
    odd_part,
    pointwise,
    projection_functional,
    rank_tuple,
    tuple_rank,
    _run_step,
)


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
    cont = Continuation(sigma, tail)
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
        tapes = [MapTape(Point.from_seed(1 + t), lambda p, t=t: cells.add((t, p)) or p)
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
    ctx = EvalContext(tapes, fuel)
    steps = 0
    for x in range(pos + 1):
        try:
            v = _run_step(func, ctx, x)
        except Diverge as d:
            return "diverged", d.reason, x, steps, ctx.use
        steps += ctx.steps
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
        caller = EvalContext([Point.from_seed(8)], fuel)
        nested = EvalContext([caller.tape(0)], None)
        nested.ledger = weakref.ref(caller)
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
            v = _run_step(PARITY, nested, x)
        except Diverge as d:
            want = ("diverged", d.reason, x)
            break
    want = want or ("converged", v)
    assert got == want
    assert (caller.steps, caller.use, tape.steps, tape.ctx.use) == (
        ref_caller.steps, ref_caller.use, 0, nested.use)
    assert got[0] == ("converged" if fuel == 35 else "diverged")


def test_non_bit_step_raises_the_same_contract_error():
    count = pointwise(1, lambda ctx, x: x, "count")
    ctx = EvalContext([Point.ones()], 50)
    with pytest.raises(ContractError) as want:
        for x in range(4):
            _run_step(count, ctx, x)
    tape = FunctionalTape(count, [Point.ones()], 50)
    with pytest.raises(ContractError) as got:
        tape.bit(3)
    assert str(got.value) == str(want.value)
    assert tape.bit(1) == 1  # a contract error is not a stall


def test_dropping_a_swept_composite_frees_its_context():
    # the composite parks its inner tape, which reads ctx.tape(0) on ctx's
    # ledger, in ctx's own scratch; both refer to ctx weakly, so dropping the
    # tape frees the context without waiting for a gc collection
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
