"""Toy fixtures and small filters that only the tests use.

`echo_spec` and `echo_pair_witness` give squashing and iteration a total
problem whose solutions can fail verification; the functionals are the
smallest oblivious machines; the rest are one-line filters.
"""

from wred.combinators import SoundnessRow, Witness, parallel_product
from wred.kernel import (
    Diverge,
    EvalContext,
    Functional,
    Point,
    Prefix,
    continuation,
    even_part,
    identity_functional,
    interleave_tapes,
    oblivious,
    odd_part,
    pointwise,
)
from wred.problems import (
    FAIL,
    ProblemSpec,
    read_unary,
    verdict_fail,
    verdict_inconclusive,
    verdict_pass,
)


def constant_functional(bit: int, arity: int = 1) -> Functional:
    return oblivious(pointwise(arity, lambda ctx, x: bit, f"const{bit}"))


def projection_functional(tape: int, arity: int = 2) -> Functional:
    return oblivious(pointwise(arity, lambda ctx, x: ctx.query(tape, x), f"proj{tape}"))


def interleave_functional() -> Functional:
    """Arity 2: output even bits from tape 0, odd bits from tape 1."""

    def step(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        return ctx.query(r, q)

    return oblivious(pointwise(2, step, "interleave"))


def soundness_failures(rows: list[SoundnessRow]) -> list[SoundnessRow]:
    return [r for r in rows if r.status == FAIL]


def split_base(value: int, base: int, count: int) -> tuple[int, ...]:
    """Digits of value in the given base, least significant first."""
    return tuple((value // base**i) % base for i in range(count))


def echo_spec() -> ProblemSpec:
    """Tail echo: a solution is <d, T> with T(x) = A(x) for all x >= d.

    Total, finitely verifiable, and with honest finite tolerance (bump d
    to the agreement bound), so it exercises squashing and iteration with
    solutions that can actually fail verification.  Wire form: even bits
    the tail T, odd bits d in unary.
    """

    def verify(inst_tape, sol_tape, horizon, size):
        try:
            d = read_unary(odd_part(sol_tape), horizon)
            if d >= horizon:
                return verdict_inconclusive("exception bound reaches the horizon")
            for x in range(d, horizon):
                if even_part(sol_tape).bit(x) != inst_tape.bit(x):
                    return verdict_fail(f"echo broken at {x}")
        except Diverge as dv:
            return verdict_inconclusive(f"solution tape diverged ({dv.reason})")
        if horizon - d < size:
            return verdict_inconclusive(f"echoed window {horizon - d} < required {size}")
        return verdict_pass(f"echoes beyond {d}")

    def tolerance(sol_tape, m):
        # unary of max(d, m): ones below m, then the original unary
        return interleave_tapes(even_part(sol_tape),
                                continuation(Prefix((1,) * m), odd_part(sol_tape)))

    return ProblemSpec(
        name="ECHO",
        is_total=True,
        decode=lambda tape: tape,
        verify_at=verify,
        tolerance=tolerance,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=lambda inst, budget: [interleave_tapes(inst, Point.zeros())],
        params={},
    )


def echo_pair_witness() -> Witness:
    """<ECHO,ECHO> <= ECHO: the interleaved pair is itself an instance.

    A solution <d, T> of the merged instance deinterleaves into component
    solutions with the same exception bound d.
    """
    e = echo_spec()

    def bstep(ctx, x):
        q, r = divmod(x, 2)  # r = component
        u, v = divmod(q, 2)  # v = 0 tail bit, 1 unary bit
        if v == 0:
            return ctx.query(0, 4 * u + 2 * r)
        return ctx.query(0, 2 * u + 1)

    backward = oblivious(pointwise(1, bstep, "echo-pair-split"))
    return Witness(parallel_product(e, e), e, identity_functional(), backward,
                   label="<ECHO,ECHO><=ECHO")
