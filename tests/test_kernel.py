import pytest
from hypothesis import given, settings, strategies as st

from wred.kernel import (
    Continuation,
    Diverge,
    InputError,
    Point,
    Prefix,
    apply_functional,
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
    tape = apply_functional(identity_functional(), [Prefix((1, 1, 0))], 50)
    assert [tape.bit(i) for i in range(3)] == [1, 1, 0]
    with pytest.raises(Diverge):
        tape.bit(3)
    with pytest.raises(Diverge):
        tape.bit(10)


def test_compose_functionals_is_plain_composition():
    flip = pointwise(1, lambda ctx, x: 1 - ctx.query(0, x), "flip")
    comp = compose_functionals(flip, flip, fuel=100)
    out = evaluate(comp, [Point.alternating()], 7, 1000)
    assert out.converged and out.value == 1  # flip(flip(x)) = x


def test_declared_reads_match_actual_use():
    for f in (identity_functional(), interleave_functional(), projection_functional(0)):
        assert f.reads is not None
        tapes = [Point.from_seed(1), Point.from_seed(2)][: f.arity]
        for x in range(12):
            _, use, _ = (evaluate(f, tapes, x, 100).value, evaluate(f, tapes, x, 100).use, 0)
            declared = set()
            for y in range(x + 1):
                declared |= set(f.reads(y))
            for t, p in use.items():
                assert any(t == dt and p <= dp for dt, dp in declared) or (t, p) in declared
