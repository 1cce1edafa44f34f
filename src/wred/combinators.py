"""The algebra of problems and witnesses, and the squashing engine.

Wire conventions, fixed once for the whole package:

* pair instances and pair solutions are 2-ary interleaves (even bits the
  first component);
* omega-families merge along cantor columns (member i, position x at
  cantor_pair(i, x));
* alternative-product instances put a unary tag on the even bits and the
  payload on the odd bits;
* compositional-product solutions interleave the first solution with the
  second.

A Witness packages a claimed reduction: a forward functional on
instances and a backward functional on solutions (which also reads the
source instance when the reduction is plain rather than strong).  The
generic soundness check is the master property every catalog entry must
pass: forward images decode as valid target instances, and brute-forced
target solutions pull back to verified source solutions.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .kernel import (
    DEFAULT_FUEL,
    ContractError,
    Diverge,
    EvalContext,
    Functional,
    FunctionalTape,
    InputError,
    Point,
    Prefix,
    ResourceError,
    apply_functional,
    cantor_pair,
    cantor_unpair,
    even_part,
    family_column,
    interleave_tapes,
    odd_part,
    pointwise,
    _run_step,
)
from .problems import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ProblemSpec,
    Verdict,
    verdict_fail,
    verdict_inconclusive,
    verdict_pass,
)


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class Witness:
    """A claimed reduction source <= target via (forward, backward).

    solve_slack asks the soundness suite for target solutions that many
    elements larger than the source check needs; reductions that spend
    boundary elements in transport (e.g. arity lifts) declare it.
    """

    source: ProblemSpec
    target: ProblemSpec
    forward: Functional
    backward: Functional
    kind: str  # 'strong' | 'plain'
    label: str = ""
    solve_slack: int = 0

    def __post_init__(self):
        if self.kind not in ("strong", "plain"):
            raise InputError(f"witness kind {self.kind!r}")
        if self.forward.arity != 1:
            raise InputError("forward functional must read exactly the instance tape")
        want = 1 if self.kind == "strong" else 2
        if self.backward.arity != want:
            raise InputError(
                f"{self.kind} backward must have arity {want}, got {self.backward.arity}"
            )
        if not self.label:
            self.label = f"{self.source.name}<={self.target.name}"

    def forward_image(self, instance_tape, fuel: int = DEFAULT_FUEL):
        return apply_functional(self.forward, [instance_tape], fuel)

    def pull_back(self, instance_tape, solution_tape, fuel: int = DEFAULT_FUEL):
        if self.kind == "strong":
            return apply_functional(self.backward, [solution_tape], fuel)
        return apply_functional(self.backward, [instance_tape, solution_tape], fuel)


@dataclass
class SoundnessRow:
    case: str
    status: str
    detail: str = ""


def check_witness_soundness(w: Witness, rng, samples: int, horizon: int, size: int,
                            fuel: int = DEFAULT_FUEL, budget=None) -> list[SoundnessRow]:
    """The master property: forward validity + backward solution transport."""
    from .oracle import SearchBudget

    budget = budget or SearchBudget(horizon=horizon, size=size + w.solve_slack)
    rows: list[SoundnessRow] = []
    if w.source.sample_instance is None:
        return [SoundnessRow(f"{w.label}", INCONCLUSIVE, "source has no sampler")]
    for i in range(samples):
        case = f"{w.label}#{i}"
        a_tape = w.source.sample_instance(rng)
        src_inst = w.source.decode(a_tape)
        b_tape = w.forward_image(a_tape, fuel)
        try:
            tgt_inst = w.target.decode(b_tape)
            fwd = w.target.check_instance(tgt_inst, horizon)
        except Diverge as d:
            fwd = verdict_inconclusive(f"forward image diverged ({d.reason})")
        if not fwd.ok:
            rows.append(SoundnessRow(case + "/forward", fwd.status, fwd.detail))
            continue
        rows.append(SoundnessRow(case + "/forward", PASS, fwd.detail))
        if w.target.brute_solution_tapes is None:
            rows.append(SoundnessRow(case + "/backward", INCONCLUSIVE, "no target solver"))
            continue
        try:
            sols = w.target.brute_solution_tapes(tgt_inst, budget)
        except Diverge as d:
            rows.append(SoundnessRow(case + "/backward", INCONCLUSIVE, f"solver diverged ({d.reason})"))
            continue
        if not sols:
            rows.append(SoundnessRow(case + "/backward", INCONCLUSIVE, "no brute solution in budget"))
            continue
        s_tape = w.pull_back(a_tape, sols[0], fuel)
        v = w.source.verify_at(src_inst, s_tape, horizon, size)
        rows.append(SoundnessRow(case + "/backward", v.status, v.detail))
    return rows


def soundness_failures(rows: list[SoundnessRow]) -> list[SoundnessRow]:
    return [r for r in rows if r.status == FAIL]


# ---------------------------------------------------------------------------
# toy total problem (used by squash configs and combinator tests)


def triv_spec() -> ProblemSpec:
    """'Any set solves': total, tolerance is the identity."""
    return ProblemSpec(
        name="TRIV",
        is_total=True,
        decode=lambda tape: tape,
        encode=lambda tape: tape,
        verify_at=lambda inst, sol, horizon, size: verdict_pass("every candidate solves"),
        tolerance=lambda tape, m: tape,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=lambda inst, budget: [Point.ones()],
        default_c=Point.zeros(),
        params={},
    )


def echo_spec() -> ProblemSpec:
    """Tail echo: a solution is <d, T> with T(x) = A(x) for all x >= d.

    Total, finitely verifiable, and with honest finite tolerance (bump d
    to the agreement bound), so it exercises squashing and iteration with
    solutions that can actually fail verification.  Wire form: even bits
    the tail T, odd bits d in unary.
    """

    def read_bound(sol_tape, cap):
        d = 0
        while d < cap and odd_part(sol_tape).bit(d) == 1:
            d += 1
        return d

    def verify(inst_tape, sol_tape, horizon, size):
        try:
            d = read_bound(sol_tape, horizon)
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
        class _Tol:
            def bit(self, pos):
                q, r = divmod(pos, 2)
                if r == 0:
                    return even_part(sol_tape).bit(q)
                return 1 if q < m else odd_part(sol_tape).bit(q)

        return _Tol()

    return ProblemSpec(
        name="ECHO",
        is_total=True,
        decode=lambda tape: tape,
        encode=lambda tape: tape,
        verify_at=verify,
        tolerance=tolerance,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=lambda inst, budget: [interleave_tapes(inst, Point.zeros())],
        default_c=Point.zeros(),
        params={},
    )


def echo_pair_witness() -> Witness:
    """<ECHO,ECHO> <= ECHO: the interleaved pair is itself an instance.

    A solution <d, T> of the merged instance deinterleaves into component
    solutions with the same exception bound d.
    """
    e = echo_spec()
    forward = pointwise(1, lambda ctx, x: ctx.query(0, x), "echo-pair-merge",
                        reads=lambda x: [(0, x)])

    def bstep(ctx, x):
        q, r = divmod(x, 2)  # r = component
        u, v = divmod(q, 2)  # v = 0 tail bit, 1 unary bit
        if v == 0:
            return ctx.query(0, 4 * u + 2 * r)
        return ctx.query(0, 2 * u + 1)

    def breads(x):
        q, r = divmod(x, 2)
        u, v = divmod(q, 2)
        return [(0, 4 * u + 2 * r if v == 0 else 2 * u + 1)]

    backward = pointwise(1, bstep, "echo-pair-split", reads=breads)
    return Witness(parallel_product(e, e), e, forward, backward, "strong",
                   label="<ECHO,ECHO><=ECHO")


# ---------------------------------------------------------------------------
# parallel product


def parallel_product(p: ProblemSpec, q: ProblemSpec) -> ProblemSpec:
    """Instances and solutions are interleaved pairs."""

    def decode(tape):
        return (p.decode(even_part(tape)), q.decode(odd_part(tape)))

    def verify(inst, sol_tape, horizon, size):
        va = p.verify_at(inst[0], even_part(sol_tape), horizon, size)
        vb = q.verify_at(inst[1], odd_part(sol_tape), horizon, size)
        return combine_verdicts(va, vb)

    def validate(inst, horizon):
        return combine_verdicts(p.check_instance(inst[0], horizon), q.check_instance(inst[1], horizon))

    def sample(rng):
        return interleave_tapes(p.sample_instance(rng), q.sample_instance(rng))

    def brute(inst, budget):
        if p.brute_solution_tapes is None or q.brute_solution_tapes is None:
            return []
        sa = p.brute_solution_tapes(inst[0], budget)
        sb = q.brute_solution_tapes(inst[1], budget)
        return [interleave_tapes(sa[0], sb[0])] if sa and sb else []

    tol = None
    if p.tolerance is not None and q.tolerance is not None:
        def tol(tape, m):
            return interleave_tapes(p.tolerance(even_part(tape), m), q.tolerance(odd_part(tape), m))

    return ProblemSpec(
        name=f"<{p.name},{q.name}>",
        is_total=p.is_total and q.is_total,
        decode=decode,
        verify_at=verify,
        tolerance=tol,
        sample_instance=sample if p.sample_instance and q.sample_instance else None,
        brute_solution_tapes=brute,
        default_c=Point.zeros(),
        params={"left": p.name, "right": q.name},
        finitely_checkable=p.finitely_checkable and q.finitely_checkable,
        validate_instance=validate,
    )


def combine_verdicts(*vs: Verdict) -> Verdict:
    for v in vs:
        if v.status == FAIL:
            return v
    for v in vs:
        if v.status == INCONCLUSIVE:
            return v
    return verdict_pass("; ".join(v.detail for v in vs if v.detail))


def witness_parallel(w1: Witness, w2: Witness, fuel: int = DEFAULT_FUEL) -> Witness:
    """<P,P'> <= <Q,Q'> from P <= Q and P' <= Q'."""
    kind = "strong" if w1.kind == w2.kind == "strong" else "plain"

    def fstep(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        part = even_part(ctx.tape(0)) if r == 0 else odd_part(ctx.tape(0))
        w = w1 if r == 0 else w2
        v, _, _ = _run_step(w.forward, [part], q, fuel)
        return v

    freads = None
    if w1.forward.reads is not None and w2.forward.reads is not None:
        def freads(x):
            q, r = divmod(x, 2)
            base = (w1 if r == 0 else w2).forward.reads(q)
            return [(0, 2 * p + r) for (_, p) in base]

    forward = pointwise(1, fstep, f"par({w1.forward.label},{w2.forward.label})", reads=freads)

    def pull_component(ctx, w, r, q):
        sol_idx = 0 if kind == "strong" else 1
        sol = (even_part if r == 0 else odd_part)(ctx.tape(sol_idx))
        if w.kind == "strong":
            v, _, _ = _run_step(w.backward, [sol], q, fuel)
        else:
            inst = (even_part if r == 0 else odd_part)(ctx.tape(0))
            v, _, _ = _run_step(w.backward, [inst, sol], q, fuel)
        return v

    def bstep(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        return pull_component(ctx, w1 if r == 0 else w2, r, q)

    backward = pointwise(1 if kind == "strong" else 2, bstep, "par-backward")
    return Witness(
        source=parallel_product(w1.source, w2.source),
        target=parallel_product(w1.target, w2.target),
        forward=forward,
        backward=backward,
        kind=kind,
        label=f"<{w1.label} || {w2.label}>",
    )


# ---------------------------------------------------------------------------
# alternative product


def alternative_product(specs: list[ProblemSpec]) -> ProblemSpec:
    """Tagged union: even bits a unary tag, odd bits the payload."""
    if not specs:
        raise InputError("alternative product needs at least one problem")

    def read_tag(tape):
        t = 0
        while t < len(specs) and even_part(tape).bit(t) == 1:
            t += 1
        if t >= len(specs):
            raise InputError(f"tag {t} out of range for {len(specs)} components")
        return t

    def decode(tape):
        t = read_tag(tape)
        return (t, specs[t].decode(odd_part(tape)))

    def verify(inst, sol_tape, horizon, size):
        t, payload = inst
        return specs[t].verify_at(payload, sol_tape, horizon, size)

    def validate(inst, horizon):
        t, payload = inst
        return specs[t].check_instance(payload, horizon)

    def sample(rng):
        t = rng.randrange(len(specs))
        return tag_tape(t, specs[t].sample_instance(rng))

    def brute(inst, budget):
        t, payload = inst
        solver = specs[t].brute_solution_tapes
        return solver(payload, budget) if solver else []

    return ProblemSpec(
        name="[%s]" % ",".join(s.name for s in specs),
        is_total=False,  # tags beyond range do not decode
        decode=decode,
        verify_at=verify,
        sample_instance=sample if all(s.sample_instance for s in specs) else None,
        brute_solution_tapes=brute,
        params={"components": [s.name for s in specs]},
        finitely_checkable=all(s.finitely_checkable for s in specs),
        validate_instance=validate,
    )


def tag_tape(tag: int, payload):
    unary = Point(lambda p, t=tag: 1 if p < t else 0, f"tag({tag})")
    return interleave_tapes(unary, payload)


def alternative_embed(specs: list[ProblemSpec], i: int, fuel: int = DEFAULT_FUEL) -> Witness:
    """P_i <= [P_0,...]: tag the instance, pass the solution through."""
    if not 0 <= i < len(specs):
        raise InputError(f"tag {i} out of range")

    def fstep(ctx, x):
        q, r = divmod(x, 2)
        if r == 0:
            return 1 if q < i else 0
        return ctx.query(0, q)

    forward = pointwise(
        1, fstep, f"tag{i}", reads=lambda x: [] if x % 2 == 0 else [(0, x // 2)]
    )
    backward = pointwise(1, lambda ctx, x: ctx.query(0, x), "id", reads=lambda x: [(0, x)])
    return Witness(specs[i], alternative_product(specs), forward, backward, "strong",
                   label=f"{specs[i].name}<=[alt]")


# ---------------------------------------------------------------------------
# composition


def compose_witness(w1: Witness, w2: Witness, fuel: int = DEFAULT_FUEL) -> Witness:
    """Transitivity: from P <= Q and Q <= R build P <= R."""
    if w1.target.name != w2.source.name:
        raise InputError(f"cannot compose {w1.label} with {w2.label}: middle problems differ")
    kind = "strong" if w1.kind == w2.kind == "strong" else "plain"

    def fstep(ctx, x):
        if "mid" not in ctx.scratch:
            ctx.scratch["mid"] = apply_functional(w1.forward, [ctx.tapes[0]], fuel)
        v, _, _ = _run_step(w2.forward, [ctx.scratch["mid"]], x, fuel)
        return v

    forward = pointwise(1, fstep, f"{w2.forward.label}.{w1.forward.label}")

    if kind == "strong":
        def bstep(ctx, x):
            mid = apply_functional(w2.backward, [ctx.tape(0)], fuel)
            v, _, _ = _run_step(w1.backward, [mid], x, fuel)
            return v

        backward = pointwise(1, bstep, "compose-backward")
    else:
        def bstep(ctx, x):
            a = ctx.tape(0)
            u = ctx.tape(1)
            b = apply_functional(w1.forward, [a], fuel)
            if w2.kind == "strong":
                t = apply_functional(w2.backward, [u], fuel)
            else:
                t = apply_functional(w2.backward, [b, u], fuel)
            if w1.kind == "strong":
                v, _, _ = _run_step(w1.backward, [t], x, fuel)
            else:
                v, _, _ = _run_step(w1.backward, [a, t], x, fuel)
            return v

        backward = pointwise(2, bstep, "compose-backward")

    return Witness(w1.source, w2.target, forward, backward, kind,
                   label=f"{w1.label} ; {w2.label}")


def compositional_product(q: ProblemSpec, p: ProblemSpec, theta_glue: Functional,
                          fuel: int = DEFAULT_FUEL) -> ProblemSpec:
    """Q after P: solve P, glue (instance, solution) into a Q-instance, solve Q."""
    if theta_glue.arity != 2:
        raise InputError("glue functional must read (instance, P-solution)")

    def decode(tape):
        return (tape, p.decode(tape))

    def verify(inst, sol_tape, horizon, size):
        inst_tape, p_inst = inst
        b = even_part(sol_tape)
        c = odd_part(sol_tape)
        vb = p.verify_at(p_inst, b, horizon, size)
        if vb.status == FAIL:
            return verdict_fail(f"first half: {vb.detail}")
        try:
            glued = apply_functional(theta_glue, [inst_tape, b], fuel)
            q_inst = q.decode(glued)
            vc = q.verify_at(q_inst, c, horizon, size)
        except Diverge as d:
            return verdict_inconclusive(f"glue diverged at horizon ({d.reason})")
        return combine_verdicts(vb, vc)

    def sample(rng):
        return p.sample_instance(rng)

    def brute(inst, budget):
        inst_tape, p_inst = inst
        if p.brute_solution_tapes is None or q.brute_solution_tapes is None:
            return []
        bs = p.brute_solution_tapes(p_inst, budget)
        if not bs:
            return []
        glued = apply_functional(theta_glue, [inst_tape, bs[0]], fuel)
        cs = q.brute_solution_tapes(q.decode(glued), budget)
        return [interleave_tapes(bs[0], cs[0])] if cs else []

    return ProblemSpec(
        name=f"{q.name}*{p.name}",
        is_total=p.is_total,
        decode=decode,
        verify_at=verify,
        sample_instance=sample if p.sample_instance else None,
        brute_solution_tapes=brute,
        params={"outer": q.name, "inner": p.name},
        finitely_checkable=p.finitely_checkable and q.finitely_checkable,
    )


# ---------------------------------------------------------------------------
# sequential version


def seq(p: ProblemSpec, columns: int = 4) -> ProblemSpec:
    """Solve countably many instances at once; verified on `columns` columns."""

    def decode(tape):
        return ("seq", tape)

    def verify(inst, sol_tape, horizon, size):
        _, tape = inst
        verdicts = []
        for i in range(columns):
            p_inst = p.decode(family_column(tape, i))
            verdicts.append(p.verify_at(p_inst, family_column(sol_tape, i), horizon, size))
        return combine_verdicts(*verdicts)

    def validate(inst, horizon):
        _, tape = inst
        return combine_verdicts(
            *(p.check_instance(p.decode(family_column(tape, i)), horizon) for i in range(columns))
        )

    def sample(rng):
        # every column carries a valid instance: constructions that read
        # beyond the verified columns (tree interleaves) stay honest
        base = rng.getrandbits(32)
        members: dict[int, object] = {}

        class _Fam:
            def bit(self, pos):
                i, x = cantor_unpair(pos)
                if i not in members:
                    import random as _random

                    members[i] = p.sample_instance(_random.Random(base * 1_000_003 + i))
                return members[i].bit(x)

        return _Fam()

    def brute(inst, budget):
        _, tape = inst
        sols = []
        for i in range(columns):
            got = p.brute_solution_tapes(p.decode(family_column(tape, i)), budget)
            if not got:
                return []
            sols.append(got[0])

        class _FamSol:
            def bit(self, pos):
                i, x = cantor_unpair(pos)
                return sols[i].bit(x) if i < columns else 0

        return [_FamSol()]

    return ProblemSpec(
        name=f"Seq{p.name}",
        is_total=p.is_total,
        decode=decode,
        verify_at=verify,
        sample_instance=sample if p.sample_instance else None,
        brute_solution_tapes=brute if p.brute_solution_tapes else None,
        default_c=Point.zeros(),
        params={"component": p.name, "columns": columns},
        finitely_checkable=p.finitely_checkable,
        validate_instance=validate,
    )


def lift_seq(w: Witness, fuel: int = DEFAULT_FUEL, columns: int = 4) -> Witness:
    """SeqP <= SeqQ from P <= Q, columnwise."""

    def fstep(ctx, x):
        i, t = cantor_unpair(x)
        v, _, _ = _run_step(w.forward, [family_column(ctx.tape(0), i)], t, fuel)
        return v

    freads = None
    if w.forward.reads is not None:
        def freads(x):
            i, t = cantor_unpair(x)
            return [(0, cantor_pair(i, p)) for (_, p) in w.forward.reads(t)]

    forward = pointwise(1, fstep, f"seq({w.forward.label})", reads=freads)

    if w.kind == "strong":
        def bstep(ctx, x):
            i, t = cantor_unpair(x)
            v, _, _ = _run_step(w.backward, [family_column(ctx.tape(0), i)], t, fuel)
            return v

        backward = pointwise(1, bstep, "seq-backward")
    else:
        def bstep(ctx, x):
            i, t = cantor_unpair(x)
            cols = [family_column(ctx.tape(0), i), family_column(ctx.tape(1), i)]
            v, _, _ = _run_step(w.backward, cols, t, fuel)
            return v

        backward = pointwise(2, bstep, "seq-backward")

    return Witness(seq(w.source, columns), seq(w.target, columns), forward, backward,
                   w.kind, label=f"Seq[{w.label}]")


# ---------------------------------------------------------------------------
# finite iteration of a pairing witness


def finite_power(p: ProblemSpec, n: int) -> ProblemSpec:
    """P^n: the sequential version restricted to n columns."""
    spec = seq(p, columns=n)
    spec.name = f"{p.name}^{n}"
    return spec


def iterate_finite(w: Witness, n: int, fuel: int = DEFAULT_FUEL) -> Witness:
    """From <P,P> <= P, nest forward n-1 times: P^n <= P.

    The forward image is Phi(A_0, Phi(A_1, ... Phi(A_{n-2}, A_{n-1})...))
    with A_0 outermost; the backward repeatedly splits pair solutions.
    """
    if n < 1:
        raise InputError("iteration count must be >= 1")
    p = w.target

    def nested_instance(a_tape):
        cols = [family_column(a_tape, i) for i in range(n)]
        inner = cols[-1]
        for i in range(n - 2, -1, -1):
            inner = FunctionalTape(w.forward, [interleave_tapes(cols[i], inner)], fuel)
        return inner

    def fstep(ctx, x):
        # the nested chain persists across the sweep: rebuilding it per
        # position would re-run every inner application from scratch
        if "nested" not in ctx.scratch:
            ctx.scratch["nested"] = nested_instance(ctx.tapes[0])
        return ctx.scratch["nested"].bit(x)

    forward = pointwise(1, fstep, f"iter{n}({w.forward.label})")

    def column_solution(ctx, i):
        # read the raw oracles: the derived chain outlives this step's meter
        a_tape = ctx.tapes[0] if w.kind == "plain" else None
        sol_idx = 0 if w.kind == "strong" else 1
        cur = ctx.tapes[sol_idx]

        def nested_from(t):
            cols = [family_column(a_tape, u) for u in range(n)]
            inner = cols[-1]
            for u in range(n - 2, t - 1, -1):
                inner = FunctionalTape(w.forward, [interleave_tapes(cols[u], inner)], fuel)
            return inner

        def pull(cur, j):
            if w.kind == "strong":
                return FunctionalTape(w.backward, [cur], fuel)
            # the level-j pair instance is <A_j, nested tail>
            pair_inst = interleave_tapes(family_column(a_tape, j), nested_from(j + 1))
            return FunctionalTape(w.backward, [pair_inst, cur], fuel)

        for j in range(min(i, n - 1)):
            cur = odd_part(pull(cur, j))
        if i < n - 1:
            return even_part(pull(cur, i))
        return cur

    def bstep(ctx, x):
        i, t = cantor_unpair(x)
        if i >= n:
            return 0
        key = ("col", i)
        if key not in ctx.scratch:
            ctx.scratch[key] = column_solution(ctx, i)
        return ctx.scratch[key].bit(t)

    backward = pointwise(1 if w.kind == "strong" else 2, bstep, f"iter{n}-backward")
    return Witness(finite_power(w.target, n), p, forward, backward, w.kind,
                   label=f"{p.name}^{n}<={p.name}")


def iterate_pull_back_columns(w: Witness, n: int, a_tape, t_tape, horizon: int,
                              fuel: int = DEFAULT_FUEL):
    """Materialized per-column solutions; fuel exhaustion names the level."""
    it = iterate_finite(w, n, fuel)
    out = []
    for i in range(n):
        sol = it.pull_back(a_tape, t_tape, fuel)
        col = family_column(sol, i)
        try:
            out.append([col.bit(x) for x in range(horizon)])
        except Diverge as d:
            raise ResourceError(f"iterate backward ran out at level {i}", level=i, reason=d.reason)
    return out


# ---------------------------------------------------------------------------
# the squashing engine


@dataclass
class MarkerSequence:
    markers: list[int]

    def __post_init__(self):
        m = self.markers
        if not m or m[0] != 0:
            raise InputError("marker sequence must start at 0")
        for s in range(1, len(m)):
            if m[s] <= m[s - 1]:
                raise InputError(f"markers must be strictly increasing, got {m}")
            if m[s] <= s - 1:
                raise InputError(f"m_{s} = {m[s]} must exceed {s - 1}")

    def __getitem__(self, i):
        return self.markers[i]

    def __len__(self):
        return len(self.markers)


@dataclass
class SquashConfig:
    """Hypotheses of the squashing construction, checked on entry."""

    q_spec: ProblemSpec
    p_spec: ProblemSpec
    witness: Witness  # <Q,P> <= P
    c: Optional[Point] = None
    fuel: int = DEFAULT_FUEL
    width_budget: int = 4096
    candidate_budget: int = 64
    label: str = "squash"

    def __post_init__(self):
        if not (self.q_spec.is_total and self.p_spec.is_total):
            raise InputError("squashing requires total problems")
        if self.p_spec.tolerance is None:
            raise InputError("squashing requires finite tolerance for the base problem")
        if self.kind not in ("strong", "plain"):
            raise InputError("witness kind must be strong or plain")
        if self.c is None:
            self.c = self.p_spec.default_c or Point.zeros()

    @property
    def kind(self) -> str:
        return self.witness.kind

    @property
    def phi2(self) -> Functional:
        return pair_split_functional(self.witness.forward)


def pair_split_functional(f: Functional, label: str = "") -> Functional:
    """View an arity-1 functional over a pair tape as arity 2 (even, odd)."""
    if f.arity != 1:
        raise InputError("pair split expects an arity-1 functional")

    class _SplitCtx:
        __slots__ = ("inner",)

        def __init__(self, inner):
            self.inner = inner

        def tick(self, n=1):
            self.inner.tick(n)

        def query(self, tape, pos):
            q, r = divmod(pos, 2)
            return self.inner.query(r, q)

        def tape(self, idx):
            return interleave_tapes(self.inner.tape(0), self.inner.tape(1))

        @property
        def tapes(self):
            # raw pair view, for steps that park derived tapes in scratch
            return [interleave_tapes(self.inner.tapes[0], self.inner.tapes[1])]

        @property
        def scratch(self):
            return self.inner.scratch

    reads = None
    if f.reads is not None:
        def reads(x):
            return [(p % 2, p // 2) for (_, p) in f.reads(x)]

    return pointwise(2, lambda ctx, x: f.step(_SplitCtx(ctx), x),
                     label or f"split({f.label})", reads=reads)


class _NeedBit(Exception):
    def __init__(self, key):
        self.key = key


class _SymbolicPrefix:
    """Length-n oracle whose unassigned bits interrupt the evaluation."""

    def __init__(self, level: int, n: int, assignment: dict):
        self.level = level
        self.n = n
        self.assignment = assignment

    def bit(self, pos: int) -> int:
        if pos >= self.n:
            raise Diverge("gap", pos)
        key = (self.level, pos)
        if key in self.assignment:
            return self.assignment[key]
        raise _NeedBit(key)


class _Unready(Exception):
    def __init__(self, level: int, pos: int):
        self.key = (level, pos)


class _Display:
    """The nested display V_j = (C|m_j)^Phi(sigma_j, V_{j+1}), cut at a stage.

    At stage x the display ends at V_{x+1} = C|m_{x+1}, so V_i(x) read at
    stage x is B_i(x) of the stagewise definition.  A bit converged at one
    stage is the same at every later one (the later chain only extends the
    earlier one's oracles), so one display serves every stage read in
    increasing order, each level T_j = Phi(sigma_j, V_{j+1}) sweeping once.

    No read recurses through more than a bounded number of levels: a read
    from outside the display starts a loop over an explicit stack, a
    level that needs an unmaterialized bit too many levels below the one
    being forced raises _Unready, and the loop materializes that bit
    first and retries.
    """

    def __init__(self, phi2: Functional, c, markers, sigma_tapes, fuel: int, stage: int = 0):
        self.phi2, self.c, self.markers, self.fuel = phi2, c, markers, fuel
        self.sigma_tapes = sigma_tapes  # level -> tape
        self.stage = stage
        self.levels: dict[int, FunctionalTape] = {}
        self.pull_limit: Optional[int] = None  # inside the loop: the first level not pulled

    def level(self, j: int) -> FunctionalTape:
        if j not in self.levels:
            self.levels[j] = FunctionalTape(self.phi2, [self.sigma_tapes(j), _Link(self, j + 1)],
                                            self.fuel)
        return self.levels[j]

    def row(self, i: int, x: int) -> int:
        """B_i(x) = V_i(x) at stage x; stages are read in increasing order."""
        self.stage = x
        return self.c.bit(x) if x < self.markers[i] else self.tail_bit(i, x)

    def tail_bit(self, j: int, q: int) -> int:
        """T_j(q) at the current stage; a divergence of the chain raises Diverge."""
        if j > self.stage:
            raise Diverge("gap", q)
        t = self.levels.get(j) or self.level(j)
        if not t.ready(q):
            if self.pull_limit is None:
                return self._force(j, q)
            if j >= self.pull_limit:
                raise _Unready(j, q)
        return t.bit(q)

    def _force(self, j: int, q: int) -> int:
        # a pulled level costs about 8 interpreter frames: pulls may use a
        # quarter of the recursion limit, the explicit stack does the rest
        depth = max(1, sys.getrecursionlimit() // 32)
        pending = [(j, q)]
        try:
            while pending:
                level, p = pending[-1]
                self.pull_limit = level + depth
                try:
                    bit = self.level(level).bit(p)
                    pending.pop()
                except _Unready as u:
                    pending.append(u.key)
        finally:
            self.pull_limit = None
        return bit  # the last one materialized is (j, q)


class _Link:
    """V_j of a display as an oracle tape."""

    def __init__(self, display: _Display, j: int):
        self.display, self.j, self.head = display, j, display.markers[j]

    def bit(self, pos: int) -> int:
        if pos < self.head:
            return self.display.c.bit(pos)
        return self.display.tail_bit(self.j, pos)


def _nested_chain(phi2: Functional, c: Point, markers, i: int, s: int, n: int,
                  sigma_tapes, fuel: int):
    """V_{i+1} of the compactness display: levels i+1..s wrap around C|n."""
    display = _Display(phi2, c, [*markers[:s + 1], n], sigma_tapes.__getitem__, fuel, stage=s)
    return _Link(display, i + 1)


def _symbolic_display(phi2: Functional, c: Point, markers, s: int, n: int, assignment: dict,
                      fuel: int) -> _Display:
    """The compactness display at stage s for candidate n, every level's
    string a symbolic length-n prefix over one assignment."""
    return _Display(phi2, c, [*markers[:s + 1], n],
                    lambda j: _SymbolicPrefix(j, n, assignment), fuel, stage=s)


def _dfs_check(phi2: Functional, c: Point, markers, i: int, s: int, n: int,
               fuel: int, width_budget: int) -> bool:
    """Does the nested expression converge at s for ALL sigma_i..sigma_s in 2^n?

    Branches only on oracle bits the evaluation actually reads; unread
    bits cannot affect the outcome, so the leaf set exactly covers 2^n
    per level.  Exceeding the width budget is a resource error.

    The root of the branching, the empty assignment, is the same display
    for every level i of one stage and candidate: the expression checked
    for i is its level i.  So `squash_markers` builds it once per candidate
    and runs `_dfs_search` from it for each i.  Sharing it changes no
    verdict: a _NeedBit appends nothing to the levels it interrupts and
    leaves them retryable, and a Diverge is terminal for a level and keeps
    its reason whichever i reaches it first.
    """
    return _dfs_search(_symbolic_display(phi2, c, markers, s, n, {}, fuel), i, width_budget)


def _dfs_search(root: _Display, i: int, width_budget: int) -> bool:
    """`_dfs_check` for level i, from the empty-assignment display `root`;
    each branch after a _NeedBit evaluates in a display of its own."""
    s, n = root.stage, root.markers[-1]
    leaves = 0

    def attempt(assignment: dict) -> bool:
        nonlocal leaves
        display = root if not assignment else _symbolic_display(
            root.phi2, root.c, root.markers, s, n, assignment, root.fuel)
        try:
            display.level(i).bit(s)
        except _NeedBit as nb:
            for b in (0, 1):
                if not attempt({**assignment, nb.key: b}):
                    return False
            return True
        except Diverge as d:
            if d.reason == "fuel":
                raise ResourceError(
                    f"marker search out of fuel at stage {s}", stage=s, candidate=n, level=i
                )
            return False
        leaves += 1
        if leaves > width_budget:
            raise ResourceError(
                f"marker search frontier exceeded {width_budget} at stage {s}",
                stage=s, candidate=n, frontier=leaves,
            )
        return True

    return attempt({})


class _ReadProfile:
    """Prefix maxima of a declared read map, grown on demand.

    top[t][y] is the largest tape-t position read at any y' <= y (-1 if
    none).  The map is pure and instance-independent, so one profile
    serves every stage and candidate of a marker search.
    """

    def __init__(self, reads):
        self.reads = reads
        self.top: tuple[list[int], list[int]] = ([], [])

    def extend(self, y: int) -> None:
        top0, top1 = self.top
        for x in range(len(top0), y + 1):
            m0, m1 = (top0[-1], top1[-1]) if top0 else (-1, -1)
            for tape, q in self.reads(x):
                if tape == 0:
                    m0 = max(m0, q)
                else:
                    m1 = max(m1, q)
            top0.append(m0)
            top1.append(m1)


def _closure_check_stage(phi2: Functional, markers, s: int, n: int, node_budget: int = 1 << 20,
                         profile: Optional[_ReadProfile] = None) -> bool:
    """Read-closure engine for functionals with a declared read map.

    Exact when the declared map covers every cell the step may touch:
    the nested expression converges for all sigma iff every transitively
    required cell is available.  The sweep makes convergence downward
    closed, so level j is available exactly below one limit: lim[s+1] = n
    and lim[j] = max(m_j, first_bad[j]), where first_bad[j] is the least y
    with a (0, q >= n) read or a (1, q >= lim[j+1]) read.  The stage holds
    iff first_bad[i] > s for every i <= s.

    Level 0 is demanded on 0..s, and level j+1 on 0..max(s, q) where q is
    the furthest read of level j's demand if it reaches m_{j+1}; beyond
    its demand a level's limit cannot matter.  The demands are computed
    going up and the limits going down, each a lookup in the prefix maxima
    of `profile`.  More than node_budget demanded (level, position) pairs
    at or above the level's marker is a ResourceError.
    """
    profile = profile or _ReadProfile(phi2.reads)
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


def squash_markers(cfg: SquashConfig, stages: int) -> MarkerSequence:
    """The instance-independent cut-off positions.

    At stage s the candidate n ascends from max(previous markers, s)+1
    until the nested convergence display holds for every i <= s and all
    length-n strings on every level; the set of good n is closed under
    successor, so the first hit is the marker.
    """
    phi2 = cfg.phi2
    profile = _ReadProfile(phi2.reads) if phi2.reads is not None else None
    markers = [0]
    for s in range(stages):
        start = max(markers[-1], s) + 1
        found = None
        for n in range(start, start + cfg.candidate_budget):
            if profile is not None:
                ok = _closure_check_stage(phi2, markers, s, n, profile=profile)
            else:
                root = _symbolic_display(phi2, cfg.c, markers, s, n, {}, cfg.fuel)
                ok = all(_dfs_search(root, i, cfg.width_budget) for i in range(s, -1, -1))
            if ok:
                found = n
                break
        if found is None:
            raise ResourceError(
                f"no marker within {cfg.candidate_budget} candidates at stage {s}",
                stage=s, first_candidate=start,
            )
        markers.append(found)
    return MarkerSequence(markers)


@dataclass
class SquashRun:
    markers: MarkerSequence
    table: list[list[int]]  # table[i][x] = B_i(x)
    horizon: int


def _squash_display(cfg: SquashConfig, markers, a_family_tape) -> _Display:
    return _Display(cfg.phi2, cfg.c, markers, lambda j: family_column(a_family_tape, j), cfg.fuel)


def squash_forward(cfg: SquashConfig, markers: MarkerSequence, a_family_tape,
                   horizon: int, count: int = 5, slack: int = 4) -> SquashRun:
    """Materialize B_0..B_count and check the structural identity exactly.

    B_i(x) is the stagewise value: at stage x, v_{x+1} = C|m_{x+1} and
    v_j = (C|m_j)^Phi(A_j, v_{j+1}) for j = x down to 0, and B_i(x) =
    v_i(x).  One display serves every row and every stage, read stage by
    stage in increasing order; rows i > x are C(x), since m_i >= i.  A
    divergence of the chain is a ResourceError naming the row and stage.

    The identity B_i(x) = C(x) for x < m_i and B_i(x) = Phi(A_i,
    B_{i+1})(x) for m_i <= x < horizon is then recomputed against the
    materialized next row, never assumed.
    """
    ext = horizon + slack
    if len(markers) < ext + 1:
        raise InputError(f"need markers through stage {ext}, have {len(markers) - 1}")
    display = _squash_display(cfg, markers, a_family_tape)
    rows = [_LazyBRow(display, i) for i in range(count + 1)]
    for x in range(ext):
        for row in rows:
            row.bit(x)
    table = [row.bits for row in rows]
    for i in range(count):
        check = FunctionalTape(cfg.phi2, [display.sigma_tapes(i), Prefix(tuple(table[i + 1]))],
                               cfg.fuel)
        for x in range(horizon):
            if x < markers[i]:
                want = cfg.c.bit(x)
            else:
                try:
                    want = check.bit(x)
                except Diverge as d:
                    raise ResourceError(
                        f"identity check needs B_{i + 1} beyond {ext}; raise slack",
                        row=i, position=x, reason=d.reason,
                    )
            if table[i][x] != want:
                raise ContractError(
                    f"B_{i}({x}) = {table[i][x]} but the identity gives {want} (marker bug)"
                )
    return SquashRun(markers, table, horizon)


class _LazyBRow:
    """B_i as a tape, materialized in stage order from a display."""

    def __init__(self, display: _Display, i: int):
        self.display, self.i = display, i
        self.bits: list[int] = []

    def bit(self, pos: int) -> int:
        if pos + 1 >= len(self.display.markers):
            raise Diverge("gap", pos)
        while len(self.bits) <= pos:
            x = len(self.bits)
            try:
                self.bits.append(self.display.row(self.i, x))
            except Diverge as d:
                raise ResourceError(f"B_{self.i}({x}) diverged at stage {x} ({d.reason})",
                                    row=self.i, stage=x, reason=d.reason)
        return self.bits[pos]


def squash_row_tape(cfg: SquashConfig, markers: MarkerSequence, a_family_tape, i: int):
    """B_i as a lazy tape (defined while the marker supply lasts)."""
    return _LazyBRow(_squash_display(cfg, markers, a_family_tape), i)


def squash_backward(cfg: SquashConfig, markers: MarkerSequence, t0_tape, count: int,
                    a_family_tape=None) -> list:
    """Unravel a solution of B_0 into solutions S_0..S_{count-1}.

    Alternates the tolerance operator (to absorb the finite error below
    each marker) with the backward functional (to split off one solution
    per level).  Plain witnesses additionally read the pair instance
    interleave(A_i, B_{i+1}), which requires the instance family.
    """
    theta = cfg.p_spec.tolerance
    if cfg.kind == "plain" and a_family_tape is None:
        raise InputError("plain squash backward needs the instance family tape")
    out = []
    cur = t0_tape
    for i in range(count):
        repaired = theta(cur, markers[i])
        if cfg.kind == "strong":
            pair = apply_functional(cfg.witness.backward, [repaired], cfg.fuel)
        else:
            inst = interleave_tapes(family_column(a_family_tape, i),
                                    squash_row_tape(cfg, markers, a_family_tape, i + 1))
            pair = apply_functional(cfg.witness.backward, [inst, repaired], cfg.fuel)
        out.append(even_part(pair))
        cur = odd_part(pair)
    return out


def squash(cfg: SquashConfig, stages: int, columns: int = 4) -> Witness:
    """Assemble the three sub-operations into a witness SeqQ <= P."""
    markers = squash_markers(cfg, stages)

    def fstep(ctx, x):
        if x + 1 >= len(markers):
            raise Diverge("gap", x)
        return _squash_display(cfg, markers, ctx.tape(0)).row(0, x)

    forward = pointwise(1, fstep, f"{cfg.label}-forward")

    def bstep(ctx, x):
        i, t = cantor_unpair(x)
        if i >= columns:
            # the desk-scale SeqQ tracks `columns` columns (reported in the
            # source params); chains for deeper columns would read the
            # solution at positions ~2^i t, beyond any finite marker supply
            return 0
        key = ("sol", i)
        if key not in ctx.scratch:
            plain = cfg.kind == "plain"
            ctx.scratch[key] = squash_backward(cfg, markers, ctx.tapes[1 if plain else 0], i + 1,
                                               ctx.tapes[0] if plain else None)[i]
        return ctx.scratch[key].bit(t)

    backward = pointwise(1 if cfg.kind == "strong" else 2, bstep, f"{cfg.label}-backward")
    return Witness(seq(cfg.q_spec, columns), cfg.p_spec, forward, backward, cfg.kind,
                   label=f"Seq{cfg.q_spec.name}<={cfg.p_spec.name} ({cfg.label})")


# ---------------------------------------------------------------------------
# fan-out for Ramsey witnesses


def split_base(value: int, base: int, count: int) -> tuple[int, ...]:
    """Digits of value in the given base, least significant first."""
    return tuple((value // base**i) % base for i in range(count))


def merge_base(digits, base: int) -> int:
    return sum(d * base**i for i, d in enumerate(digits))


def fanout_rt(w: Witness, s: int, fuel: int = DEFAULT_FUEL) -> Witness:
    """From a strong RT^n_k <= RT^n_j witness, build RT^n_{k^s} <= RT^n_{j^s}.

    The instance is split into s digit colorings (base k), each pushed
    through the forward functional, and the images are merged in base j;
    the backward applies the original backward once to the merged
    solution.  Strongness is required: the single backward application
    must simultaneously serve every digit.
    """
    if w.kind != "strong":
        raise InputError("fan-out needs a strong witness: the backward must not "
                         "depend on which digit coloring it is answering for")
    if s < 1:
        raise InputError("power must be >= 1")
    from .problems import color_block_width, rt_spec

    n = w.source.params["n"]
    k = w.source.params["k"]
    j = w.target.params["k"]
    if w.target.params["n"] != n:
        raise InputError("fan-out needs matching arities")
    source = rt_spec(n, k**s)
    target = rt_spec(n, j**s)
    w_ks, w_js = color_block_width(k**s), color_block_width(j**s)
    w_k, w_j = color_block_width(k), color_block_width(j)

    def digit_tape(ctx, i):
        """The i-th base-k digit coloring of the instance, as a tape."""

        class _Digit:
            def bit(self, pos):
                if w_k == 0:
                    return 0
                r, off = divmod(pos, w_k)
                v = 0
                for b in range(w_ks):
                    v |= ctx.query(0, r * w_ks + b) << b
                v %= k**s
                return (((v // k**i) % k) >> off) & 1

        return _Digit()

    def fstep(ctx, x):
        if w_js == 0:
            return 0
        r, off = divmod(x, w_js)
        digits = []
        for i in range(s):
            g_i = FunctionalTape(w.forward, [digit_tape(ctx, i)], fuel)
            v = 0
            for b in range(w_j):
                v |= g_i.bit(r * w_j + b) << b
            digits.append(v % j)
        return (merge_base(digits, j) >> off) & 1

    forward = pointwise(1, fstep, f"fanout{s}({w.forward.label})")
    backward = pointwise(1, lambda ctx, x: _run_step(w.backward, [ctx.tape(0)], x, fuel)[0],
                         f"fanout{s}-backward")
    return Witness(source, target, forward, backward, "strong",
                   label=f"RT^{n}_{k**s}<=RT^{n}_{j**s} (fanout {w.label})")
