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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


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
    queried outside its defined region).  Never escapes `evaluate`.
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
    for i in range(n, 0, -1):
        # largest c with C(c, i) <= rem
        c = i - 1
        while math.comb(c + 1, i) <= rem:
            c += 1
        out.append(c)
        rem -= math.comb(c, i)
    out.reverse()
    return tuple(out)


def max_entry_below_rank(m: int, n: int) -> int:
    """Largest element of any n-tuple with rank < m; -1 when m == 0."""
    best = -1
    for r in range(m):
        best = max(best, rank_tuple(r, n)[n - 1])
    return best


# ---------------------------------------------------------------------------
# tapes: total points, finite prefixes, continuations


class Point:
    """A total rule position -> {0,1} with a memo; an element of 2^omega."""

    def __init__(self, rule: Callable[[int], int], label: str = "point"):
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

        def rule(pos: int, seed=seed) -> int:
            z = (pos * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) % (1 << 64)
            z ^= z >> 30
            z = (z * 0xBF58476D1CE4E5B9) % (1 << 64)
            z ^= z >> 27
            z = (z * 0x94D049BB133111EB) % (1 << 64)
            z ^= z >> 31
            return z & 1

        return Point(rule, f"seeded({seed})")

    @staticmethod
    def from_bits(bits: Sequence[int], tail: int = 0, label: str = "table") -> "Point":
        """Explicit bits on a finite window, constant tail beyond."""
        stored = tuple(bits)
        return Point(lambda p: stored[p] if p < len(stored) else tail, label)

    @staticmethod
    def from_set(members, label: str = "set") -> "Point":
        """Characteristic function of a finite set of naturals."""
        s = frozenset(members)
        return Point(lambda p: 1 if p in s else 0, label)


class Prefix:
    """A finite binary string; as an oracle, diverges beyond its length."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int] = ()):
        bs = tuple(bits)
        for b in bs:
            if b not in (0, 1):
                raise InputError(f"prefix bit {b!r} is not 0/1")
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


class Continuation:
    """Continuation of a prefix by a tape: prefix bits where defined, tail beyond."""

    def __init__(self, head: Prefix, tail):
        self.head = head
        self.tail = tail

    def bit(self, pos: int) -> int:
        if pos < len(self.head):
            return self.head.bits[pos]
        return self.tail.bit(pos)


class MapTape:
    """Reindexing view of a tape: bit(p) = base.bit(f(p))."""

    def __init__(self, base, index_map: Callable[[int], int]):
        self.base = base
        self.index_map = index_map

    def bit(self, pos: int) -> int:
        return self.base.bit(self.index_map(pos))


def interleave_tapes(a, b):
    """Even bits from a, odd bits from b."""

    class _Interleave:
        def bit(self, pos: int) -> int:
            q, r = divmod(pos, 2)
            return a.bit(q) if r == 0 else b.bit(q)

    return _Interleave()


def even_part(t):
    return MapTape(t, lambda p: 2 * p)


def odd_part(t):
    return MapTape(t, lambda p: 2 * p + 1)


def family_tape(members: Callable[[int], object]):
    """Merge an omega-family into one tape: bit(cantor_pair(i,x)) = member i at x."""

    class _Family:
        def bit(self, pos: int) -> int:
            i, x = cantor_unpair(pos)
            return members(i).bit(x)

    return _Family()


def family_column(t, i: int):
    """Column i of a cantor-merged family tape."""
    return MapTape(t, lambda x: cantor_pair(i, x))


# ---------------------------------------------------------------------------
# functionals and evaluation

# the per-position step budget used wherever a caller gives none
DEFAULT_FUEL = 50_000


class EvalContext:
    """Query interface handed to a step procedure; meters fuel and use.

    `scratch` persists across the positions of one evaluation sweep; steps
    that assemble expensive derived tapes (nested applications) park them
    there so later positions reuse the same lazily-extended objects.
    """

    __slots__ = ("tapes", "fuel", "steps", "use", "scratch")

    def __init__(self, tapes, fuel: int, scratch: Optional[dict] = None):
        self.tapes = tapes
        self.fuel = fuel
        self.steps = 0
        self.use: dict[int, int] = {}
        self.scratch = scratch if scratch is not None else {}

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.fuel:
            raise Diverge("fuel")

    def query(self, tape: int, pos: int) -> int:
        if pos < 0:
            raise InputError(f"negative oracle position {pos}")
        self.steps += 1  # tick(), inlined on the hottest path
        if self.steps > self.fuel:
            raise Diverge("fuel")
        b = self.tapes[tape].bit(pos)
        prev = self.use.get(tape, -1)
        if pos > prev:
            self.use[tape] = pos
        return b

    def tape(self, idx: int) -> "CtxTape":
        """View one oracle as a tape; reads are metered against this context."""
        return CtxTape(self, idx)


class CtxTape:
    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: EvalContext, idx: int):
        self.ctx = ctx
        self.idx = idx

    def bit(self, pos: int) -> int:
        return self.ctx.query(self.idx, pos)


@dataclass
class Functional:
    """A monotone oracle machine: (query interface, position) -> bit.

    `step` computes the output bit at one position; `evaluate` sweeps all
    positions up to the requested one, so convergence is downward closed.
    `reads`, when supplied, declares the exact oracle cells step(x) may
    touch; functionals with a declared read map are value-oblivious, which
    lets the squashing compactness search reason about all oracles at once
    without enumerating them.
    """

    arity: int
    step: Callable[[EvalContext, int], int]
    label: str = "functional"
    reads: Optional[Callable[[int], list[tuple[int, int]]]] = None

    def __repr__(self):
        return f"Functional({self.label}/{self.arity})"


@dataclass(frozen=True)
class EvalOutcome:
    """Result of one evaluation: converged with value+use, or diverged."""

    status: str  # 'converged' | 'diverged'
    value: Optional[int] = None
    use: dict = field(default_factory=dict)
    steps: int = 0
    reason: str = ""  # 'fuel' | 'gap' when diverged
    position: Optional[int] = None  # where the sweep stalled

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _run_step(func: Functional, tapes, x: int, fuel: int,
              scratch: Optional[dict] = None) -> tuple[int, dict, int]:
    """Single-position step with a fresh budget; raises Diverge."""
    ctx = EvalContext(tapes, fuel, scratch)
    ctx.tick()  # entry charge: fuel 0 always diverges
    v = func.step(ctx, x)
    if v not in (0, 1):
        raise ContractError(f"{func.label}: step returned non-bit {v!r} at {x}")
    return v, ctx.use, ctx.steps


def evaluate(func: Functional, oracles, x: int, fuel: int) -> EvalOutcome:
    """Evaluate func against the oracle tapes at position x.

    Sweeps positions 0..x with a fresh per-position budget of `fuel`
    abstract steps; reports the value at x, the cumulative per-tape use,
    and the total steps spent.  A diverged outcome means a budget or an
    oracle region ran out, never that the functional provably diverges.
    """
    if len(oracles) != func.arity:
        raise InputError(f"{func.label}: expected {func.arity} oracles, got {len(oracles)}")
    use: dict[int, int] = {}
    total = 0
    value = None
    scratch: dict = {}
    for y in range(x + 1):
        try:
            value, u, n = _run_step(func, oracles, y, fuel, scratch)
        except Diverge as d:
            return EvalOutcome("diverged", use=dict(use), steps=total, reason=d.reason, position=y)
        total += n
        for t, p in u.items():
            if p > use.get(t, -1):
                use[t] = p
    return EvalOutcome("converged", value=value, use=dict(use), steps=total)


class FunctionalTape:
    """Lazy application of a functional as an oracle tape.

    Bits are produced by an incremental sweep with per-position fuel, so
    reading position p costs each position at most once across the life
    of the tape.  A divergence is terminal: the tape can never answer at
    or beyond the stalled position.
    """

    def __init__(self, func: Functional, tapes, fuel: int, label: str = ""):
        self.func = func
        self.tapes = tapes
        self.fuel = fuel
        self.label = label or f"{func.label}(...)"
        self._bits: list[int] = []
        self._stalled: Optional[Diverge] = None
        self._scratch: dict = {}

    def ready(self, pos: int) -> bool:
        """Whether bit pos is already materialized, so reading it does no work."""
        return pos < len(self._bits)

    def bit(self, pos: int) -> int:
        while len(self._bits) <= pos:
            if self._stalled is not None:
                raise Diverge(self._stalled.reason, len(self._bits))
            try:
                v, _, _ = _run_step(self.func, self.tapes, len(self._bits), self.fuel,
                                    self._scratch)
            except Diverge as d:
                self._stalled = d
                raise Diverge(d.reason, len(self._bits))
            self._bits.append(v)
        return self._bits[pos]


def pointwise(arity: int, fn: Callable[[EvalContext, int], int], label: str,
              reads: Optional[Callable[[int], list[tuple[int, int]]]] = None) -> Functional:
    return Functional(arity=arity, step=fn, label=label, reads=reads)


def identity_functional() -> Functional:
    return pointwise(1, lambda ctx, x: ctx.query(0, x), "identity", reads=lambda x: [(0, x)])


def constant_functional(bit: int, arity: int = 1) -> Functional:
    return pointwise(arity, lambda ctx, x: bit, f"const{bit}", reads=lambda x: [])


def projection_functional(tape: int, arity: int = 2) -> Functional:
    return pointwise(arity, lambda ctx, x: ctx.query(tape, x), f"proj{tape}",
                     reads=lambda x, t=tape: [(t, x)])


def interleave_functional() -> Functional:
    """Arity 2: output even bits from tape 0, odd bits from tape 1."""

    def step(ctx: EvalContext, x: int) -> int:
        q, r = divmod(x, 2)
        return ctx.query(r, q)

    return pointwise(2, step, "interleave", reads=lambda x: [(x % 2, x // 2)])


def apply_functional(func: Functional, oracles, fuel: int, label: str = "") -> FunctionalTape:
    if len(oracles) != func.arity:
        raise InputError(f"{func.label}: expected {func.arity} oracles, got {len(oracles)}")
    return FunctionalTape(func, list(oracles), fuel, label)


def compose_functionals(outer: Functional, inner: Functional, fuel: int,
                        label: str = "") -> Functional:
    """outer o inner for arity-1 functionals, as a single functional.

    The inner application becomes a lazy oracle for the outer one; inner
    use is charged against the inner budget, and the composite's recorded
    use is the use of `inner` on the real oracle.
    """
    if outer.arity != 1 or inner.arity != 1:
        raise InputError("compose_functionals needs arity-1 functionals")

    def step(ctx: EvalContext, x: int) -> int:
        class _Via:
            def bit(self, pos):
                return ctx.query(0, pos)

        mid = apply_functional(inner, [_Via()], fuel)
        v, _, _ = _run_step(outer, [mid], x, fuel)
        return v

    return pointwise(1, step, label or f"{outer.label}.{inner.label}")


# ---------------------------------------------------------------------------
# contract checks (used by property tests and the verify suite)


def check_use_soundness(func: Functional, oracles, x: int, fuel: int) -> bool:
    """Re-run against use-truncated oracles; converged value must agree."""
    out = evaluate(func, oracles, x, fuel)
    if not out.converged:
        return True
    truncated = []
    for t in range(func.arity):
        u = out.use.get(t, -1)
        truncated.append(Prefix(tuple(oracles[t].bit(i) for i in range(u + 1))))
    again = evaluate(func, truncated, x, fuel)
    return again.converged and again.value == out.value and again.use == out.use


def check_downward_closure(func: Functional, oracles, x: int, fuel: int) -> bool:
    """Convergence at x within fuel f implies convergence at all y <= x."""
    out = evaluate(func, oracles, x, fuel)
    if not out.converged:
        return True
    return all(evaluate(func, oracles, y, fuel).converged for y in range(x + 1))
