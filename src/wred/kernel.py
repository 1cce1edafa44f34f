"""Bit sequences, oracle tapes, and fuel-bounded monotone functionals.

Everything in this package computes over Cantor space at desk scale.
Infinite binary sequences are total rules with memoized prefixes; finite
prefixes stand in for unknown tails; and oracle computations are
fuel-bounded evaluations that report their use exactly.  Divergence is
always an exhausted budget or a missing oracle region, never a claim
about true non-termination.

Evaluation sweeps positions 0..x, so a computation that converges at x
has converged at every smaller position with the same per-position fuel.
This bakes in the usual normalization for oracle machines (output
positions are produced in order) instead of monitoring it after the
fact; a violation cannot occur by construction.

Fuel is per output position and covers nested applications: a context
meters its ticks on a `Ledger`, and a nested context (`EvalContext.run`,
`EvalContext.apply`) shares its caller's ledger, not its caller, so each
of its ticks is charged to the root position that forced it.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence


class WredError(Exception):
    """Base class for reported errors."""


class InputError(WredError):
    """Bad arguments, malformed documents, precondition violations."""


class ResourceError(WredError):
    """A search or fuel budget was exhausted; carries context."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class ContractError(WredError):
    """An internal invariant the framework promises was violated."""


class Diverge(Exception):
    """Flow control: the current evaluation does not converge.

    reason is 'fuel' (budget exhausted) or 'gap' (a partial oracle was
    queried outside its defined region).  `evaluate` turns it into a
    diverged outcome; a lazy tape (`FunctionalTape.bit`) raises it to its
    reader, with the stalled position.
    """

    def __init__(self, reason: str, position: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.position = position


# ---------------------------------------------------------------------------
# pairing and tuple codecs


def cantor_pair(i: int, x: int) -> int:
    s = i + x
    return s * (s + 1) // 2 + x


def cantor_unpair(p: int) -> tuple[int, int]:
    s = (math.isqrt(8 * p + 1) - 1) // 2
    x = p - s * (s + 1) // 2
    return s - x, x


def tuple_rank(xs: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing tuple in [omega]^n.

    rank(x_0 < ... < x_{n-1}) = sum_i C(x_i, i+1).  Tuples with rank
    below C(M, n) are exactly those with maximum below M, which is what
    the finite-tolerance operator for colorings relies on.
    """
    r = 0
    prev = -1
    for i, x in enumerate(xs):
        if x <= prev:
            raise InputError(f"tuple {tuple(xs)} is not strictly increasing")
        prev = x
        r += math.comb(x, i + 1)
    return r


def rank_tuple(r: int, n: int) -> tuple[int, ...]:
    """Inverse of tuple_rank for arity n."""
    if r < 0 or n < 1:
        raise InputError("rank must be >= 0 and arity >= 1")
    out = []
    rem = r
    for i in range(n, 1, -1):
        # largest c with C(c, i) <= rem: since (c-i+1)^i <= i! C(c, i) <= c^i,
        # it lies in [e, e+i-1] for e the integer i-th root of i! rem
        c = max(_iroot(rem * math.factorial(i), i), i - 1)
        while math.comb(c + 1, i) <= rem:
            c += 1
        out.append(c)
        rem -= math.comb(c, i)
    out.append(rem)  # C(c, 1) = c
    out.reverse()
    return tuple(out)


def _iroot(a: int, k: int) -> int:
    """The largest x >= 0 with x**k <= a (k >= 2), by Newton's method on integers."""
    if k == 2 or a == 0:
        return math.isqrt(a)
    x = 1 << -(-a.bit_length() // k)  # above the root
    while (y := ((k - 1) * x + a // x ** (k - 1)) // k) < x:
        x = y
    return x


def max_entry_below_rank(m: int, n: int) -> int:
    """Largest element of any n-tuple with rank < m; -1 when m == 0.

    In colex order a tuple's largest element never falls as the rank
    grows, so the tuple of rank m - 1 has it.
    """
    return rank_tuple(m - 1, n)[n - 1] if m > 0 else -1


# ---------------------------------------------------------------------------
# tapes: total points, finite prefixes, continuations


class Point:
    """A total rule position -> {0,1} with a memo; an element of 2^omega."""

    def __init__(self, rule: Callable[[int], int], label: str):
        self.rule = rule
        self.label = label
        self.memo: dict[int, int] = {}

    def bit(self, pos: int) -> int:
        b = self.memo.get(pos)
        if b is None:
            b = self.rule(pos)
            if b not in (0, 1):
                raise ContractError(f"{self.label}: rule returned non-bit {b!r} at {pos}")
            self.memo[pos] = b
        return b

    def prefix(self, n: int) -> "Prefix":
        """The first n bits as a `Prefix` (test_views_and_parked_tapes_outlive_their_sweep)."""
        return Prefix(tuple(self.bit(i) for i in range(n)))

    def __repr__(self):
        return f"Point({self.label})"

    @staticmethod
    def zeros() -> "Point":
        return Point(lambda _: 0, "zeros")

    @staticmethod
    def ones() -> "Point":
        return Point(lambda _: 1, "ones")

    @staticmethod
    def alternating() -> "Point":
        return Point(lambda p: p % 2, "alternating")

    @staticmethod
    def from_seed(seed: int) -> "Point":
        """Deterministic pseudo-random point (splitmix-style hash)."""

        mask = (1 << 64) - 1
        base = seed * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB

        def rule(pos: int) -> int:
            z = (pos * 0x9E3779B97F4A7C15 + base) & mask
            z ^= z >> 30
            z = (z * 0xBF58476D1CE4E5B9) & mask
            z ^= z >> 27
            z *= 0x94D049BB133111EB  # bits 0 and 31, all that is read, need no mask
            return (z ^ (z >> 31)) & 1

        return Point(rule, f"seeded({seed})")

    @staticmethod
    def from_bits(bits: Sequence[int], tail: int = 0) -> "Point":
        """Explicit bits on a finite window, constant tail beyond."""
        stored = tuple(bits)
        return Point(lambda p: stored[p] if p < len(stored) else tail, "table")

    @staticmethod
    def from_set(members) -> "Point":
        """Characteristic function of a finite set of naturals
        (test_tolerance_rt_examples)."""
        s = frozenset(members)
        return Point(lambda p: 1 if p in s else 0, "set")


class Prefix:
    """A finite binary string; as an oracle, diverges beyond its length."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int] = ()):
        bs = tuple(bits)
        if bs.count(0) + bs.count(1) != len(bs):
            raise InputError(f"prefix bit {next(b for b in bs if b not in (0, 1))!r} is not 0/1")
        self.bits = bs

    def bit(self, pos: int) -> int:
        if 0 <= pos < len(self.bits):
            return self.bits[pos]
        raise Diverge("gap", pos)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __eq__(self, other):
        return isinstance(other, Prefix) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return "Prefix(%s)" % "".join(str(b) for b in self.bits)

    def extend(self, b: int) -> "Prefix":
        return Prefix(self.bits + (b,))

    def is_prefix_of(self, other) -> bool:
        if isinstance(other, Prefix):
            return len(self) <= len(other) and other.bits[: len(self)] == self.bits
        return all(other.bit(i) == b for i, b in enumerate(self.bits))


class RuleTape:
    """A rule position -> bit as a tape, with no memo: every read runs the rule.

    Every view of other tapes is one (the constructors below, the squashing
    display's links), its rule in the `bit` slot, so a read is one call.  A
    re-read repeats the rule's reads, so a ledger charges them again: steps
    and fuel never depend on what was read before.  The rule may raise
    Diverge for a position it cannot answer.
    """

    __slots__ = ("bit",)

    def __init__(self, rule: Callable[[int], int]):
        self.bit = rule


def map_tape(base, index_map: Callable[[int], int]) -> RuleTape:
    """Reindexing view of a tape: bit(p) = base.bit(index_map(p))."""
    return RuleTape(lambda p: base.bit(index_map(p)))


def continuation(head: Prefix, tail) -> RuleTape:
    """Continuation of a prefix by a tape: prefix bits where defined, tail beyond."""
    bits, n = head.bits, len(head.bits)
    return RuleTape(lambda p: bits[p] if p < n else tail.bit(p))


def interleave_tapes(a, b) -> RuleTape:
    """Even bits from a, odd bits from b."""
    return RuleTape(lambda p: b.bit(p >> 1) if p & 1 else a.bit(p >> 1))


def even_part(t) -> RuleTape:
    return RuleTape(lambda p: t.bit(2 * p))


def odd_part(t) -> RuleTape:
    return RuleTape(lambda p: t.bit(2 * p + 1))


def family_tape(members: Callable[[int], object]) -> RuleTape:
    """Merge an omega-family into one tape: bit(cantor_pair(i,x)) = member i at x."""

    def bit(pos: int) -> int:
        i, x = cantor_unpair(pos)
        return members(i).bit(x)

    return RuleTape(bit)


def family_column(t, i: int) -> RuleTape:
    """Column i of a cantor-merged family tape."""
    return RuleTape(lambda x: t.bit(cantor_pair(i, x)))


# ---------------------------------------------------------------------------
# functionals and evaluation

# the per-position step budget used wherever a caller gives none
DEFAULT_FUEL = 50_000


class Work:
    """Work done in this process, counted where it is charged.

    - `steps`: fuel steps, the sum of every root `FunctionalTape`'s
      `steps` (so of `EvalOutcome.steps`); a parked tape's are its root's.
      A query is one step.
    - `rule_runs`: `Coloring.value` calls that missed its memo.
    - `nodes`: search nodes `oracle._dfs_extend` spent against its node
      limit, in every search, found or not (not `find_rainbow`'s greedy pass).
    - `stalls`: `FunctionalTape` sweeps that ended for lack of fuel; a stall
      is terminal, so a tape counts at most once.

    Each count only grows; take a delta around the work to measure.
    """

    __slots__ = ("steps", "rule_runs", "nodes", "stalls")

    def __init__(self):
        self.steps = self.rule_runs = self.nodes = self.stalls = 0


WORK = Work()


class Ledger:
    """The steps one root position has spent and the fuel that bounds them:
    a root context's own, shared by every context nested in it.  Only a
    root position restarts `steps`."""

    __slots__ = ("steps", "fuel")

    def __init__(self, fuel: int):
        self.steps = 0
        self.fuel = fuel


class EvalContext:
    """Query interface handed to a step procedure; meters fuel and use.

    One context serves a whole sweep: a root sweep restarts its ledger's
    `steps` at each position, while `use` accumulates over the sweep and
    `scratch` and the `tape(i)` views persist, so steps park nested
    applications there (`apply`) and later positions reuse the same
    lazily-extended tapes.

    A step may also keep per-position results in `scratch`, keyed by
    position and computed through `query`, and answer a later position
    from them.  It must give the same answer when they are absent: a
    fresh scratch (a nested or a direct step) has none, and the sweep's
    use covers every cell a memoized answer rests on.

    `run` and `apply` charge every tick to the caller's current position.
    A nested application reads only the tapes it is given, so through
    `tape(i)` views its reads become the caller's use of the real oracles.

    A nested context and a `tape(i)` view share the caller's `Ledger`
    (and a view its tapes and use), never the caller itself, so what a
    step parks in scratch makes no reference cycle: dropping a sweep frees
    its context at once, and a view or parked tape stays readable.
    """

    __slots__ = ("tapes", "use", "scratch", "ledger", "__weakref__")

    def __init__(self, tapes, ledger: Ledger):
        self.tapes = tapes
        self.use: dict[int, int] = {}
        self.scratch: dict = {}
        self.ledger = ledger

    def tick(self, n: int = 1) -> None:
        led = self.ledger
        led.steps += n
        if led.steps > led.fuel:
            raise Diverge("fuel")

    def query(self, tape: int, pos: int) -> int:
        if pos < 0:
            raise InputError(f"negative oracle position {pos}")
        led = self.ledger  # tick(), inlined on the hottest path
        led.steps += 1
        if led.steps > led.fuel:
            raise Diverge("fuel")
        b = self.tapes[tape].bit(pos)
        use = self.use
        if pos > use.get(tape, -1):
            use[tape] = pos
        return b

    def tape(self, idx: int) -> "CtxTape":
        """View one oracle as a tape; reads are metered against this context."""
        return CtxTape(self, idx)

    def run(self, func: "Functional", tapes, x: int) -> int:
        """func's bit at x on tapes, computed on this context's ledger."""
        return _step(func, EvalContext(tapes, self.ledger), x)

    def apply(self, func: "Functional", tapes, key) -> "FunctionalTape":
        """func applied to tapes as a lazy tape on this context's ledger,
        parked in scratch under key; a parked tape ignores `tapes`."""
        t = self.scratch.get(key)
        if t is None:
            t = self.scratch[key] = FunctionalTape(func, tapes, None, self.ledger)
        return t


class CtxTape(EvalContext):
    """Oracle idx of a context as a tape: a context on the same tapes, use
    and ledger, so a read is that context's `query`; it holds no scratch."""

    __slots__ = ("idx",)

    def __init__(self, ctx: EvalContext, idx: int):
        self.tapes, self.use, self.ledger, self.idx = ctx.tapes, ctx.use, ctx.ledger, idx

    def bit(self, pos: int) -> int:
        return self.query(self.idx, pos)


class Functional:
    """A monotone oracle machine: (query interface, position) -> bit.

    `step` computes the output bit at one position; a `FunctionalTape`
    sweeps all positions up to the requested one, so convergence is
    downward closed.  `reads`, when set, gives the exact oracle cells
    step(x) queries whatever the oracles hold; `oblivious` derives it from
    the step.  It lets the squashing compactness search reason about all
    oracles at once without enumerating them; a forward without it (`reads`
    None) is given one by `branching_reads`.
    """

    def __init__(self, arity: int, step: Callable[[EvalContext, int], int],
                 label: str = "functional",
                 reads: Optional[Callable[[int], list[tuple[int, int]]]] = None):
        self.arity = arity
        self.step = step
        self.label = label
        self.reads = reads

    def __repr__(self):
        return f"Functional({self.label}/{self.arity})"


class EvalOutcome(NamedTuple):
    """Result of one evaluation: converged with value+use, or diverged.

    `steps` totals the converged positions.  `use` is the sweep's: when
    diverged it may include reads made at the stalled position.
    """

    status: str  # 'converged' | 'diverged'
    value: Optional[int] = None
    use: dict = MappingProxyType({})  # read-only: a NamedTuple default is shared
    steps: int = 0
    reason: str = ""  # 'fuel' | 'gap' when diverged
    position: Optional[int] = None  # where the sweep stalled

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _step(func: Functional, ctx: EvalContext, x: int) -> int:
    """One position on ctx's ledger, which it does not restart: the entry
    charge (fuel 0 always diverges), then the step."""
    ctx.tick()
    v = func.step(ctx, x)
    if v not in (0, 1):
        raise ContractError(f"{func.label}: step returned non-bit {v!r} at {x}")
    return v


def evaluate(func: Functional, oracles, x: int, fuel: int) -> EvalOutcome:
    """Evaluate func against the oracle tapes at position x.

    One `FunctionalTape` read: sweeps positions 0..x with a per-position
    budget of `fuel` abstract steps; reports the value at x, the sweep's
    per-tape use, and the steps spent.  A diverged outcome means a budget
    or an oracle region ran out, never that the functional provably
    diverges.
    """
    tape = FunctionalTape(func, oracles, fuel)
    try:
        value = tape.bit(x)
    except Diverge as d:
        return EvalOutcome("diverged", use=dict(tape.ctx.use), steps=tape.steps,
                           reason=d.reason, position=d.position)
    return EvalOutcome("converged", value=value, use=dict(tape.ctx.use), steps=tape.steps)


class FunctionalTape:
    """Lazy application of a functional as an oracle tape.

    Bits are produced by an incremental sweep in one context with
    per-position fuel, so reading position p costs each position at most
    once across the life of the tape; `steps` totals the converged
    positions.  A divergence is terminal: the tape can never answer at or
    beyond the stalled position.  A tape parked on a caller's `ledger`
    (`EvalContext.apply`) charges the caller's position; its `steps` stay 0.
    `bits`, when given, are bits of func on these tapes that have already
    converged: the sweep continues after them and extends that list.
    """

    def __init__(self, func: Functional, tapes, fuel: Optional[int],
                 ledger: Optional[Ledger] = None, bits: Optional[list[int]] = None):
        if len(tapes) != func.arity:
            raise InputError(f"{func.label}: expected {func.arity} oracles, got {len(tapes)}")
        self.func = func
        self.ctx = EvalContext(tapes, ledger or Ledger(fuel))
        self.parked = ledger is not None  # on a caller's ledger, which it never restarts
        self.steps = 0
        self._bits: list[int] = [] if bits is None else bits
        self._stalled: Optional[str] = None  # the reason of a terminal stall

    def ready(self, pos: int) -> bool:
        """Whether bit pos is already materialized, so reading it does no work."""
        return pos < len(self._bits)

    def bit(self, pos: int) -> int:
        bits = self._bits
        if 0 <= pos < len(bits):
            return bits[pos]
        if pos < 0:
            raise InputError(f"negative tape position {pos}")
        if self._stalled is not None:
            raise Diverge(self._stalled, len(bits))
        ctx, step, led, parked = self.ctx, self.func.step, self.ctx.ledger, self.parked
        spent = 0  # the steps of the positions this call converges, a root's only
        try:
            for x in range(len(bits), pos + 1):
                # one position, as _step runs it, but a root's steps restart
                # first: the entry charge (fuel 0 always diverges), then the step
                led.steps = led.steps + 1 if parked else 1
                if led.steps > led.fuel:
                    raise Diverge("fuel")
                v = step(ctx, x)
                if v not in (0, 1):
                    raise ContractError(f"{self.func.label}: step returned non-bit {v!r} at {x}")
                if not parked:
                    spent += led.steps
                bits.append(v)
            return bits[pos]
        except Diverge as d:
            self._stalled = d.reason
            WORK.stalls += d.reason == "fuel"
        finally:
            self.steps += spent
            WORK.steps += spent
        # raised outside the handler, so it holds no traceback of the stall
        raise Diverge(self._stalled, len(bits))


def pointwise(arity: int, fn: Callable[[EvalContext, int], int], label: str) -> Functional:
    return Functional(arity=arity, step=fn, label=label)


def oblivious(func: Functional) -> Functional:
    """Declare func's step value-oblivious and set `reads` from the step.

    reads(x) runs step(x) once, in a fresh context with DEFAULT_FUEL,
    against all-zero oracles that record each cell they are asked for.
    Value-oblivious means the cells queried do not depend on the bits the
    oracles hold, so the zero oracles stand for every oracle.  A composite
    whose children are oblivious is oblivious.
    """
    func.reads = lambda x: _branch_reads(func, x, {})
    return func


def branching_reads(func: Functional, width_budget: int) -> Callable[[int], list[tuple[int, int]]]:
    """A read map for func's step, whatever its reads depend on.

    reads(x) runs step(x) once for every assignment of the cells it reads,
    as `oblivious` runs it once: a cell the branch has not fixed reads 0,
    and a sibling branch fixes it to 1.  It returns every cell any branch
    read: the exact map when the step is value-oblivious, a superset of
    each oracle's reads otherwise.  A branch that diverges, or more than
    width_budget branches at one position, is a ResourceError naming it.
    """

    def reads(x: int) -> list[tuple[int, int]]:
        cells: dict = {}  # every cell read, in first-read order
        pending, branches = [{}], 0
        while pending:
            fixed = pending.pop()
            branches += 1
            if branches > width_budget:
                raise ResourceError(f"read map of {func.label} exceeded {width_budget} branches "
                                    f"at position {x}", position=x, branches=branches)
            try:
                read = _branch_reads(func, x, fixed)
            except Diverge as d:
                raise ResourceError(f"read map of {func.label} diverged at position {x} "
                                    f"({d.reason})", position=x, reason=d.reason) from None
            cells.update(dict.fromkeys(read))
            opened = [cell for cell in read if cell not in fixed]
            for k, cell in enumerate(opened):  # the branches that first differ at cell
                pending.append({**fixed, **dict.fromkeys(opened[:k], 0), cell: 1})
        return list(cells)

    return reads


def _branch_reads(func: Functional, x: int, fixed: dict) -> list[tuple[int, int]]:
    """The cells step(x) reads, in order, in a fresh context with
    DEFAULT_FUEL on oracles that answer a cell (t, p) from `fixed`, and 0
    where it is not there; raises Diverge."""
    cells: list[tuple[int, int]] = []
    oracles = [Point(lambda p, t=t: cells.append((t, p)) or fixed.get((t, p), 0), "recorder")
               for t in range(func.arity)]
    _step(func, EvalContext(oracles, Ledger(DEFAULT_FUEL)), x)
    return cells


def identity_functional() -> Functional:
    return oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x), "identity"))


def compose_functionals(outer: Functional, inner: Functional, label: str = "") -> Functional:
    """outer o inner for arity-1 functionals, as a single functional.

    The inner application is a lazy tape parked for the sweep; both are
    charged to the composite's ledger, and the composite's recorded use is
    the use of `inner` on the real oracle.
    """
    if outer.arity != 1 or inner.arity != 1:
        raise InputError("compose_functionals needs arity-1 functionals")

    def step(ctx: EvalContext, x: int) -> int:
        return ctx.run(outer, [ctx.apply(inner, [ctx.tape(0)], "inner")], x)

    return pointwise(1, step, label or f"{outer.label}.{inner.label}")


# ---------------------------------------------------------------------------
# contract checks (used by property tests)


def _truncated(base, last: int) -> RuleTape:
    """A view of a tape cut after position last: beyond it, a gap as in a Prefix."""

    def bit(pos: int) -> int:
        if pos > last:
            raise Diverge("gap", pos)
        return base.bit(pos)

    return RuleTape(bit)


def check_use_soundness(func: Functional, oracles, x: int, fuel: int) -> bool:
    """Re-run against oracles cut after their use; converged value must agree
    (test_catalog_functionals_honor_kernel_contracts)."""
    out = evaluate(func, oracles, x, fuel)
    if not out.converged:
        return True
    truncated = [_truncated(oracles[t], out.use.get(t, -1)) for t in range(func.arity)]
    again = evaluate(func, truncated, x, fuel)
    return again.converged and again.value == out.value and again.use == out.use


def check_downward_closure(func: Functional, oracles, x: int, fuel: int) -> bool:
    """Convergence at x within fuel f implies convergence at all y <= x
    (test_catalog_functionals_honor_kernel_contracts)."""
    out = evaluate(func, oracles, x, fuel)
    if not out.converged:
        return True
    return all(evaluate(func, oracles, y, fuel).converged for y in range(x + 1))
