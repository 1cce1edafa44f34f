"""The algebra of problems and witnesses, and the squashing engine.

Wire conventions, fixed once for the whole package:

* pair instances and pair solutions are 2-ary interleaves (even bits the
  first component);
* omega-families merge along cantor columns (member i, position x at
  cantor_pair(i, x));
* alternative-product instances put a unary tag on the even bits and the
  payload on the odd bits;
* compositional-product solutions interleave the first solution with the
  second;
* k-color blocks and unary counts (tags, echo bounds, omitted colors) are
  read and written only through the wire codec in `wred.problems`
  (`read_color`, `color_bit`, `read_unary`, `unary_point`).

A Witness packages a claimed reduction: a forward functional on
instances and a backward functional on solutions (which also reads the
source instance when the reduction is plain rather than strong).  The
generic soundness check is the master property every catalog entry must
pass: forward images decode as valid target instances, and brute-forced
target solutions pull back to verified source solutions.
"""

from __future__ import annotations

import functools
import random
import weakref
from bisect import bisect_left
from typing import NamedTuple, Optional

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
    RuleTape,
    branching_reads,
    cantor_unpair,
    compose_functionals,
    even_part,
    family_column,
    family_tape,
    identity_functional,
    interleave_tapes,
    map_tape,
    oblivious,
    odd_part,
    pointwise,
)
from .problems import (
    FAIL,
    INCONCLUSIVE,
    ProblemSpec,
    Verdict,
    color_bit,
    color_block_width,
    read_color,
    read_unary,
    rt_spec,
    unary_point,
    verdict_fail,
    verdict_inconclusive,
    verdict_pass,
)


# ---------------------------------------------------------------------------
# witnesses


class Witness:
    """A claimed reduction source <= target via (forward, backward).

    The backward's arity is the kind: 1 reads the solution alone (strong),
    2 reads the instance, then the solution (plain).  solve_slack asks the
    soundness suite for target solutions that many elements larger than
    the source check needs; reductions that spend boundary elements in
    transport (e.g. arity lifts) declare it.
    """

    def __init__(self, source: ProblemSpec, target: ProblemSpec, forward: Functional,
                 backward: Functional, label: str = "", solve_slack: int = 0):
        self.source = source
        self.target = target
        self.forward = forward
        self.backward = backward
        self.label = label
        self.solve_slack = solve_slack
        if self.forward.arity != 1:
            raise InputError("forward functional must read exactly the instance tape")
        if self.backward.arity not in (1, 2):
            raise InputError(f"backward must have arity 1 (strong) or 2 (plain), "
                             f"got {self.backward.arity}")
        if not self.label:
            self.label = f"{self.source.name}<={self.target.name}"

    @property
    def kind(self) -> str:
        return "strong" if self.backward.arity == 1 else "plain"

    def forward_image(self, instance_tape, fuel: int = DEFAULT_FUEL):
        return FunctionalTape(self.forward, [instance_tape], fuel)

    def backward_oracles(self, instance, solution) -> list:
        """The backward's oracles: the solution, after the instance when plain."""
        return [solution] if self.backward.arity == 1 else [instance, solution]

    def pull_back(self, instance_tape, solution_tape, fuel: int = DEFAULT_FUEL):
        return FunctionalTape(self.backward, self.backward_oracles(instance_tape, solution_tape),
                              fuel)


class SoundnessRow(NamedTuple):
    """One verify row.  `check` is kept whole, since names may hold a '/'."""

    case: str
    check: str
    status: str
    detail: str = ""


def check_witness_soundness(w: Witness, rng, samples: int, horizon: int, size: int,
                            fuel: int = DEFAULT_FUEL) -> list[SoundnessRow]:
    """The master property: forward validity + backward solution transport."""
    from .oracle import SearchBudget

    budget = SearchBudget(horizon=horizon, size=size + w.solve_slack)
    rows: list[SoundnessRow] = []
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
        rows.append(SoundnessRow(case, "forward", fwd.status, fwd.detail))
        if not fwd.ok:
            continue
        try:
            sols = w.target.brute_solution_tapes(tgt_inst, budget)
        except Diverge as d:
            rows.append(SoundnessRow(case, "backward", INCONCLUSIVE, f"solver diverged ({d.reason})"))
            continue
        if not sols:
            rows.append(SoundnessRow(case, "backward", INCONCLUSIVE, "no brute solution in budget"))
            continue
        s_tape = w.pull_back(a_tape, sols[0], fuel)
        v = w.source.verify_at(src_inst, s_tape, horizon, size)
        rows.append(SoundnessRow(case, "backward", v.status, v.detail))
    return rows


# ---------------------------------------------------------------------------
# toy total problem (used by squash configs and combinator tests)


def triv_spec() -> ProblemSpec:
    """'Any set solves': total, tolerance is the identity."""
    return ProblemSpec(
        name="TRIV",
        is_total=True,
        decode=lambda tape: tape,
        verify_at=lambda inst, sol, horizon, size: verdict_pass("every candidate solves"),
        tolerance=lambda tape, m: tape,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=lambda inst, budget: [Point.ones()],
    )


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
        sample_instance=sample,
        brute_solution_tapes=brute,
        tolerance=tol,
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


def witness_parallel(w1: Witness, w2: Witness) -> Witness:
    """<P,P'> <= <Q,Q'> from P <= Q and P' <= Q' (test_parallel_identity_pair_sound)."""

    def fstep(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        part = even_part(ctx.tape(0)) if r == 0 else odd_part(ctx.tape(0))
        return ctx.run((w1 if r == 0 else w2).forward, [part], q)

    forward = pointwise(1, fstep, f"par({w1.forward.label},{w2.forward.label})")
    if w1.forward.reads is not None and w2.forward.reads is not None:
        oblivious(forward)  # a composite is oblivious when its children are

    arity = max(w1.backward.arity, w2.backward.arity)

    def bstep(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        w, part = (w1, even_part) if r == 0 else (w2, odd_part)
        # tape 0 is the pair instance when plain; strong components never read it
        oracles = w.backward_oracles(part(ctx.tape(0)), part(ctx.tape(arity - 1)))
        return ctx.run(w.backward, oracles, q)

    backward = pointwise(arity, bstep, "par-backward")
    return Witness(
        source=parallel_product(w1.source, w2.source),
        target=parallel_product(w1.target, w2.target),
        forward=forward,
        backward=backward,
        label=f"<{w1.label} || {w2.label}>",
    )


# ---------------------------------------------------------------------------
# alternative product


def alternative_product(specs: list[ProblemSpec]) -> ProblemSpec:
    """Tagged union: even bits a unary tag, odd bits the payload."""
    if not specs:
        raise InputError("alternative product needs at least one problem")

    def read_tag(tape):
        t = read_unary(even_part(tape), len(specs))
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
        return specs[t].brute_solution_tapes(payload, budget)

    return ProblemSpec(
        name="[%s]" % ",".join(s.name for s in specs),
        is_total=False,  # tags beyond range do not decode
        decode=decode,
        verify_at=verify,
        sample_instance=sample,
        brute_solution_tapes=brute,
        validate_instance=validate,
    )


def tag_tape(tag: int, payload):
    return interleave_tapes(unary_point(tag), payload)


def alternative_embed(specs: list[ProblemSpec], i: int) -> Witness:
    """P_i <= [P_0,...]: tag the instance, pass the solution through
    (test_alternative_embedding_sound)."""
    if not 0 <= i < len(specs):
        raise InputError(f"tag {i} out of range")

    tag = unary_point(i)

    def fstep(ctx, x):
        q, r = divmod(x, 2)
        return tag.bit(q) if r == 0 else ctx.query(0, q)

    forward = oblivious(pointwise(1, fstep, f"tag{i}"))
    return Witness(specs[i], alternative_product(specs), forward, identity_functional(),
                   label=f"{specs[i].name}<=[alt]")


# ---------------------------------------------------------------------------
# composition


def compose_witness(w1: Witness, w2: Witness) -> Witness:
    """Transitivity: from P <= Q and Q <= R build P <= R (test_law_composition_associative)."""
    if w1.target.name != w2.source.name:
        raise InputError(f"cannot compose {w1.label} with {w2.label}: middle problems differ")

    forward = compose_functionals(w2.forward, w1.forward)
    arity = max(w1.backward.arity, w2.backward.arity)

    def bstep(ctx, x):
        # tape 0 is the instance when plain; a strong chain never reads a or b
        a, u = ctx.tape(0), ctx.tape(arity - 1)
        b = ctx.apply(w1.forward, [a], "b")
        t = ctx.apply(w2.backward, w2.backward_oracles(b, u), "t")
        return ctx.run(w1.backward, w1.backward_oracles(a, t), x)

    backward = pointwise(arity, bstep, "compose-backward")
    return Witness(w1.source, w2.target, forward, backward, label=f"{w1.label} ; {w2.label}")


def compositional_product(q: ProblemSpec, p: ProblemSpec, theta_glue: Functional) -> ProblemSpec:
    """Q after P: solve P, glue (instance, solution) into a Q-instance, solve Q
    (test_compositional_product_projection_glue)."""
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
            glued = FunctionalTape(theta_glue, [inst_tape, b], DEFAULT_FUEL)
            q_inst = q.decode(glued)
            vc = q.verify_at(q_inst, c, horizon, size)
        except Diverge as d:
            return verdict_inconclusive(f"glue diverged at horizon ({d.reason})")
        return combine_verdicts(vb, vc)

    def brute(inst, budget):
        inst_tape, p_inst = inst
        bs = p.brute_solution_tapes(p_inst, budget)
        if not bs:
            return []
        glued = FunctionalTape(theta_glue, [inst_tape, bs[0]], DEFAULT_FUEL)
        cs = q.brute_solution_tapes(q.decode(glued), budget)
        return [interleave_tapes(bs[0], cs[0])] if cs else []

    return ProblemSpec(
        name=f"{q.name}*{p.name}",
        is_total=p.is_total,
        decode=decode,
        verify_at=verify,
        sample_instance=p.sample_instance,
        brute_solution_tapes=brute,
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

        @functools.cache
        def member(i):
            return p.sample_instance(random.Random(base * 1_000_003 + i))

        return family_tape(member)

    def brute(inst, budget):
        _, tape = inst
        sols = []
        for i in range(columns):
            got = p.brute_solution_tapes(p.decode(family_column(tape, i)), budget)
            if not got:
                return []
            sols.append(got[0])
        pad = Point.zeros()
        return [family_tape(lambda i: sols[i] if i < columns else pad)]

    return ProblemSpec(
        name=f"Seq{p.name}",
        is_total=p.is_total,
        decode=decode,
        verify_at=verify,
        sample_instance=sample,
        brute_solution_tapes=brute,
        validate_instance=validate,
    )


def lift_seq(w: Witness) -> Witness:
    """SeqP <= SeqQ from P <= Q, columnwise (test_law_lift_is_functorial)."""

    def fstep(ctx, x):
        i, t = cantor_unpair(x)
        return ctx.run(w.forward, [family_column(ctx.tape(0), i)], t)

    forward = pointwise(1, fstep, f"seq({w.forward.label})")
    if w.forward.reads is not None:
        oblivious(forward)  # a composite is oblivious when its children are

    def bstep(ctx, x):
        i, t = cantor_unpair(x)
        cols = [family_column(ctx.tape(k), i) for k in range(w.backward.arity)]
        return ctx.run(w.backward, cols, t)

    backward = pointwise(w.backward.arity, bstep, "seq-backward")
    return Witness(seq(w.source), seq(w.target), forward, backward, label=f"Seq[{w.label}]")


# ---------------------------------------------------------------------------
# finite iteration of a pairing witness


def finite_power(p: ProblemSpec, n: int) -> ProblemSpec:
    """P^n: the sequential version restricted to n columns."""
    spec = seq(p, columns=n)
    spec.name = f"{p.name}^{n}"
    return spec


def iterate_finite(w: Witness, n: int) -> Witness:
    """From <P,P> <= P, nest forward n-1 times: P^n <= P.

    The forward image is Phi(A_0, Phi(A_1, ... Phi(A_{n-2}, A_{n-1})...))
    with A_0 outermost; the backward repeatedly splits pair solutions
    (test_iterate_soundness_suite).
    """
    if n < 1:
        raise InputError("iteration count must be >= 1")
    p = w.target

    def nested(ctx, t):
        """Phi(A_t, ... A_{n-1}): level t's instance, parked per level for the sweep."""
        a_t = family_column(ctx.tape(0), t)
        if t == n - 1:
            return a_t
        return ctx.apply(w.forward, [interleave_tapes(a_t, nested(ctx, t + 1))], ("nested", t))

    forward = pointwise(1, lambda ctx, x: nested(ctx, 0).bit(x), f"iter{n}({w.forward.label})")

    def pulled(ctx, j):
        """The level-j pair solution: the backward on <A_j, level j+1> and
        the odd half of level j-1's (the whole solution at j = 0)."""
        cur = ctx.tape(w.backward.arity - 1) if j == 0 else odd_part(pulled(ctx, j - 1))
        # tape 0 is the instance when plain, and a strong backward never reads it
        pair_inst = interleave_tapes(family_column(ctx.tape(0), j), nested(ctx, j + 1))
        return ctx.apply(w.backward, w.backward_oracles(pair_inst, cur), ("pulled", j))

    def bstep(ctx, x):
        i, t = cantor_unpair(x)
        if i >= n:
            return 0
        if i < n - 1:
            return pulled(ctx, i).bit(2 * t)
        return pulled(ctx, n - 2).bit(2 * t + 1) if n > 1 else ctx.query(w.backward.arity - 1, t)

    backward = pointwise(w.backward.arity, bstep, f"iter{n}-backward")
    return Witness(finite_power(w.target, n), p, forward, backward,
                   label=f"{p.name}^{n}<={p.name}")


# ---------------------------------------------------------------------------
# the squashing engine


class MarkerSequence:
    def __init__(self, markers: list[int]):
        self.markers = m = markers
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


WIDTH_BUDGET = 4096  # branches per position when a forward's read map is derived
CANDIDATE_BUDGET = 64  # marker candidates tried per stage


class SquashConfig:
    """Hypotheses of the squashing construction, checked on entry.  The
    displays' C is 0^omega in every config."""

    def __init__(self, q_spec: ProblemSpec, witness: Witness,  # <Q,P> <= P; P is its target
                 label: str = "squash"):
        self.q_spec = q_spec
        self.witness = witness
        self.label = label
        self._profile: Optional[_ReadProfile] = None
        if not (self.q_spec.is_total and self.witness.target.is_total):
            raise InputError("squashing requires total problems")
        if self.witness.target.tolerance is None:
            raise InputError("squashing requires finite tolerance for the base problem")

    def read_profile(self) -> "_ReadProfile":
        """The forward's read-map profile, which the marker search and the
        forward table share.  A forward without a map gets one derived by
        `branching_reads`, at most `WIDTH_BUDGET` branches per position."""
        forward = self.witness.forward
        source = forward.reads or forward
        if self._profile is None or self._profile.source is not source:
            reads = forward.reads or branching_reads(forward, WIDTH_BUDGET)
            self._profile = _ReadProfile(reads, source)
        return self._profile


class _Display:
    """The nested display V_j = (C|m_j)^Phi(<sigma_j, V_{j+1}>), cut at a stage.

    Each level T_j runs the witness's arity-1 forward Phi on the pair tape
    <sigma_j, V_{j+1}> (sigma_j on the even bits, V_{j+1} on the odd
    ones), one `RuleTape` whose odd positions read `tail_bit`: V_{j+1} is
    C = 0^omega below m_{j+1} and T_{j+1} from there on.  sigma_j is
    column j of the context's family tape.  At stage x the display ends
    at V_{x+1} = C|m_{x+1}, so V_i(x) read at stage x is B_i(x) of the
    stagewise definition.  A bit converged at one stage is the same at
    every later one (the later chain only extends the earlier one's
    oracles), so one display serves every stage read in increasing order,
    each level T_j sweeping once: raise `stage`.  This assumes no step
    catches Diverge.  It lives in one context's scratch and parks T_j
    there (key j), so each level's work is charged to the position of the
    context's sweep that filled it.  The context owns the display, and the
    display refers to it weakly, so dropping the context frees both at once.
    A read first fills what the config's read profile says it needs
    (`fill`); a level bit still missing when read is one the map missed.
    """

    def __init__(self, ctx: EvalContext, cfg: SquashConfig, markers):
        self.ctx, self.family, self.markers = weakref.proxy(ctx), ctx.tape(0), markers
        self.forward, self.profile, self.stage = cfg.witness.forward, cfg.read_profile(), 0
        ctx.scratch["display"] = self

    def level(self, j: int) -> FunctionalTape:
        t = self.ctx.scratch.get(j)
        if t is None:  # one rule: a V_{j+1} tape of its own costs a call per odd read
            sigma, tail = family_column(self.family, j), self.tail_bit
            t = self.ctx.apply(self.forward, [RuleTape(
                lambda p: tail(j + 1, p >> 1) if p & 1 else sigma.bit(p >> 1))], j)
        return t

    def tail_bit(self, j: int, q: int) -> int:
        """V_j(q) at the current stage: C(q) = 0 below m_j, T_j(q) from there
        on; a divergence of the chain raises Diverge."""
        if q < self.markers[j]:
            return 0
        if j > self.stage:
            raise Diverge("gap", q)
        t = self.ctx.scratch.get(j) or self.level(j)
        if not t.ready(q):
            raise ContractError(f"read map missed level {j} at position {q}")
        return t.bit(q)

    def fill(self, j: int, q: int) -> None:
        """Materialize T_j through q, deepest level first.  T_j through q
        reads V_{j+1} through top[1][q], which needs T_{j+1} that far if
        it reaches m_{j+1}; the walk stops at the stage bound, a marker or
        a level materialized that far.  Filled in reverse, each level's
        reads below are ready."""
        profile, markers, scratch = self.profile, self.markers, self.ctx.scratch
        top1, chain = profile.top[1], []
        while j <= self.stage and q >= markers[j]:
            t = scratch.get(j) or self.level(j)
            if t.ready(q):
                break
            chain.append((t, q))
            if q >= len(top1):
                profile.extend(q)
            j, q = j + 1, top1[q]
        for t, q in reversed(chain):
            t.bit(q)


class _ReadProfile:
    """Prefix maxima of a forward's read map, by side, grown on demand.

    The forward reads the pair tape <sigma, V>: pair position p is sigma's
    p//2 when p is even (side 0) and V's p//2 when p is odd (side 1).
    top[t][y] is the largest side-t position read at any y' <= y (-1 if
    none).  The map is pure and instance-independent, so one profile
    serves every stage and candidate of a marker search.  `source` is the
    declared map, or the forward a map was derived for.
    """

    def __init__(self, reads, source=None):
        self.reads, self.source = reads, source or reads
        self.top: tuple[list[int], list[int]] = ([], [])

    def extend(self, y: int) -> None:
        top0, top1 = self.top
        for x in range(len(top0), y + 1):
            m = [top0[-1], top1[-1]] if top0 else [-1, -1]
            for _, p in self.reads(x):
                m[p % 2] = max(m[p % 2], p // 2)
            top0.append(m[0])
            top1.append(m[1])


def _closure_check_stage(profile: _ReadProfile, markers, s: int, n: int,
                         node_budget: int = 1 << 20) -> bool:
    """The read-closure marker check of one stage and candidate.

    Level j runs the arity-1 forward on the pair tape <sigma_j, V_{j+1}>,
    so its reads split by side (see _ReadProfile).  Exact when the map
    is (a value-oblivious step): the nested expression converges for all
    sigma iff every transitively required cell is available; a superset
    map may only reject a candidate that converges.  The sweep makes
    convergence downward closed, so level j is available exactly below
    one limit: lim[s+1] = n and lim[j] = max(m_j, first_bad[j]), where
    first_bad[j] is the least y with a sigma read at q >= n or a V read at
    q >= lim[j+1].  The stage holds iff first_bad[i] > s for every i <= s.

    Level 0 is demanded on 0..s, and level j+1 on 0..max(s, q) where q is
    the furthest read of level j's demand if it reaches m_{j+1}; beyond
    its demand a level's limit cannot matter.  The demands are computed
    going up and the limits going down, each a lookup in the prefix maxima
    of `profile`, the forward's.  More than node_budget demanded (level,
    position) pairs at or above the level's marker is a ResourceError.

    The prefix maxima are nondecreasing, so a sigma read at q >= n first
    comes at b0 = bisect_left(top0, n) on every level: within a level's
    demand (end = demand + 1) that is min(b0, end), and as the level's
    limit past its demand does not matter, b0 serves.  A V read at
    q >= lim comes within the demand only when top1[end - 1] >= lim, and
    only then is top1 bisected.
    """
    top0, top1 = profile.top
    demand = [s]
    d, nodes = s, s + 1
    if s and nodes > node_budget:
        raise ResourceError(f"marker closure exceeded {node_budget} nodes", stage=s, candidate=n)
    have = len(top1)
    for j in range(1, s + 1):
        if d >= have:
            profile.extend(d)
            have = d + 1
        q, m = top1[d], markers[j]
        d = q if q >= m and q > s else s
        if d >= m:
            nodes += d - m + 1
            if nodes > node_budget:
                raise ResourceError(f"marker closure exceeded {node_budget} nodes",
                                    stage=s, candidate=n)
        demand.append(d)
    if d >= have:
        profile.extend(d)
    b0 = bisect_left(top0, n)
    if b0 <= s:
        return False
    lim = n
    for j in range(s, -1, -1):
        end = demand[j] + 1
        first_bad = b0
        if top1[end - 1] >= lim:
            bad1 = bisect_left(top1, lim, 0, end)
            if bad1 <= s:
                return False
            if bad1 < first_bad:
                first_bad = bad1
        m = markers[j]
        lim = m if m > first_bad else first_bad
    return True


def squash_markers(cfg: SquashConfig, stages: int) -> MarkerSequence:
    """The instance-independent cut-off positions.

    At stage s the candidate n ascends from max(previous markers, s)+1
    until the nested convergence display holds for every i <= s and all
    length-n strings on every level; the set of good n is closed under
    successor, so the first hit is the marker.  Level j is the witness's
    forward on the pair tape <sigma_j, V_{j+1}>, decided from the
    config's read profile (`_closure_check_stage`).
    """
    profile, markers = cfg.read_profile(), [0]
    for s in range(stages):
        start = max(markers[-1], s) + 1
        found = next((n for n in range(start, start + CANDIDATE_BUDGET)
                      if _closure_check_stage(profile, markers, s, n)), None)
        if found is None:
            raise ResourceError(
                f"no marker within {CANDIDATE_BUDGET} candidates at stage {s}",
                stage=s, first_candidate=start,
            )
        markers.append(found)
    return MarkerSequence(markers)


def _squash_table(cfg: SquashConfig, markers, rows: range) -> Functional:
    """B_{rows[k]}(x) at position x * len(rows) + k; the table of row 0 alone
    is the squash forward.

    The table is stage-major, so one sweep reads every row stage by stage,
    in increasing order, and the one display parked on its context serves
    them all: each level T_j is built once.
    """
    width, markers = len(rows), list(markers)  # a list: tail_bit indexes it on every read

    def step(ctx, p):
        x, k = divmod(p, width)
        if x + 1 >= len(markers):
            raise Diverge("gap", p)
        display = ctx.scratch.get("display") or _Display(ctx, cfg, markers)
        display.stage = x  # B_i(x) is V_i(x) at stage x
        i = rows[k]
        display.fill(i, x)  # seeded per read: its work is charged to this position
        return display.tail_bit(i, x)

    return pointwise(1, step, f"{cfg.label}-B{rows.start}..{rows.stop - 1}")


def _check_row(markers, i: int) -> None:
    if not 0 <= i < len(markers):
        raise InputError(f"row {i} is outside the marker supply 0..{len(markers) - 1}")


def squash_forward(cfg: SquashConfig, markers: MarkerSequence, a_family_tape,
                   horizon: int, count: int = 5) -> list[list[int]]:
    """Materialize B_0..B_count, check the structural identity exactly and
    return the rows: table[i][x] = B_i(x) for x < horizon + 4.

    B_i(x) is the stagewise value, with C = 0^omega: at stage x, v_{x+1} =
    C|m_{x+1} and v_j = (C|m_j)^Phi(<A_j, v_{j+1}>) for j = x down to 0,
    and B_i(x) = v_i(x).  The rows are one `FunctionalTape` of the
    stage-major table of B_0..B_count, so one display serves them all;
    rows i > x are C(x), since m_i >= i.  The sweep's first divergence is
    a ResourceError naming its row and stage.

    The identity B_i(x) = C(x) for x < m_i and B_i(x) = Phi(<A_i,
    B_{i+1}>)(x) for m_i <= x < horizon is then recomputed against the
    materialized next row, never assumed.  The rows run 4 stages past the
    horizon, for the check's reads of B_{i+1}.
    """
    if horizon < 0 or count < 0:
        raise InputError(f"horizon and count must be >= 0, got {horizon} and {count}")
    _check_row(markers, count)
    ext = horizon + 4
    if len(markers) < ext + 1:
        raise InputError(f"need markers through stage {ext}, have {len(markers) - 1}")
    width = count + 1
    rows = FunctionalTape(_squash_table(cfg, markers, range(width)), [a_family_tape], DEFAULT_FUEL)
    try:
        table = [[rows.bit(x * width + i) for x in range(ext)] for i in range(width)]
    except Diverge as d:
        x, i = divmod(d.position, width)
        raise ResourceError(f"B_{i}({x}) diverged at stage {x} ({d.reason})",
                            row=i, stage=x, reason=d.reason)
    for i in range(count):
        pair = interleave_tapes(family_column(a_family_tape, i), Prefix(tuple(table[i + 1])))
        check = cfg.witness.forward_image(pair)
        for x in range(horizon):
            if x < markers[i]:
                want = 0  # C(x)
            else:
                try:
                    want = check.bit(x)
                except Diverge as d:
                    raise ResourceError(
                        f"identity check needs B_{i + 1} beyond {ext}",
                        row=i, position=x, reason=d.reason,
                    )
            if table[i][x] != want:
                raise ContractError(
                    f"B_{i}({x}) = {table[i][x]} but the identity gives {want} (marker bug)"
                )
    return table


def _squash_unravel(cfg: SquashConfig, markers, columns: int) -> Functional:
    w, theta = cfg.witness, cfg.witness.target.tolerance

    def step(ctx, x):
        i, t = cantor_unpair(x)
        if i >= columns:
            # the desk-scale SeqQ verifies `columns` columns; chains for
            # deeper columns would read the solution at positions ~2^i t,
            # beyond any finite marker supply
            return 0
        if ("pulled", 0) not in ctx.scratch:  # one unravel per sweep serves every column
            *family, cur = (ctx.tape(k) for k in range(w.backward.arity))  # family when plain
            # B_1..B_columns, one table on one display; row j + 1 is every columns-th bit
            rows = ctx.apply(_squash_table(cfg, markers, range(1, columns + 1)), family,
                             "rows") if family else None
            for j in range(columns):
                inst = None if not family else interleave_tapes(
                    family_column(family[0], j), map_tape(rows, lambda x, j=j: x * columns + j))
                oracles = w.backward_oracles(inst, theta(cur, markers[j]))
                cur = odd_part(ctx.apply(w.backward, oracles, ("pulled", j)))
        return ctx.scratch[("pulled", i)].bit(2 * t)

    return pointwise(w.backward.arity, step, f"{cfg.label}-backward")


def squash(cfg: SquashConfig, stages: int, columns: int = 4) -> Witness:
    """Assemble the three sub-operations into a witness SeqQ <= P."""
    markers = squash_markers(cfg, stages)
    _check_row(markers, columns)
    return Witness(seq(cfg.q_spec, columns), cfg.witness.target,
                   _squash_table(cfg, markers, range(1)), _squash_unravel(cfg, markers, columns),
                   label=f"Seq{cfg.q_spec.name}<={cfg.witness.target.name} ({cfg.label})")


# ---------------------------------------------------------------------------
# fan-out for Ramsey witnesses


def merge_base(digits, base: int) -> int:
    return sum(d * base**i for i, d in enumerate(digits))


def fanout_rt(w: Witness, s: int) -> Witness:
    """From a strong RT^n_k <= RT^n_j witness, build RT^n_{k^s} <= RT^n_{j^s}.

    The instance is split into s digit colorings (base k), each pushed
    through the forward functional, and the images are merged in base j;
    the backward is the original one, applied once to the merged solution.
    Strongness is required: the single backward application must
    simultaneously serve every digit.
    """
    if w.backward.arity != 1:
        raise InputError("fan-out needs a strong witness: the backward must not "
                         "depend on which digit coloring it is answering for")
    if s < 1:
        raise InputError("power must be >= 1")
    n = w.source.params["n"]
    k = w.source.params["k"]
    j = w.target.params["k"]
    if w.target.params["n"] != n:
        raise InputError("fan-out needs matching arities")
    source = rt_spec(n, k**s)
    target = rt_spec(n, j**s)
    w_k, w_js = color_block_width(k), color_block_width(j**s)

    def digit(a, i):
        """The i-th base-k digit coloring of the instance tape a."""
        return RuleTape(lambda pos: color_bit(pos, w_k,
                                              lambda r: read_color(a, k**s, r) // k**i % k))

    def fstep(ctx, x):
        def color(r):
            images = (ctx.apply(w.forward, [digit(ctx.tape(0), i)], ("digit", i)) for i in range(s))
            return merge_base([read_color(g, j, r) for g in images], j)

        return color_bit(x, w_js, color)

    forward = pointwise(1, fstep, f"fanout{s}({w.forward.label})")
    return Witness(source, target, forward, w.backward,
                   label=f"RT^{n}_{k**s}<=RT^{n}_{j**s} (fanout {w.label})")
