"""Problem registry: instance codecs, verifiers, totality, tolerance.

A problem is an instance/solution pair over Cantor space: `decode` turns
a tape into a structured instance, `verify_at` judges a candidate
solution tape against a finite horizon, and total problems also carry a
finite-tolerance operator for repairing solutions across finite instance
modifications.  Verdicts are three-valued; fail is monotone under
horizon growth, and "infinite" is approximated by a reported sample-size
threshold, never silently.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .kernel import (
    ContractError,
    Diverge,
    InputError,
    Point,
    Prefix,
    cantor_unpair,
    continuation,
    even_part,
    family_column,
    interleave_tapes,
    max_entry_below_rank,
    odd_part,
    rank_tuple,
    tuple_rank,
)

OMEGA_UNARY_CAP = 64  # desk-scale cap when decoding unary omega-color blocks

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def verdict_pass(detail: str = "") -> Verdict:
    return Verdict(PASS, detail)


def verdict_fail(detail: str) -> Verdict:
    return Verdict(FAIL, detail)


def verdict_inconclusive(detail: str) -> Verdict:
    return Verdict(INCONCLUSIVE, detail)


# ---------------------------------------------------------------------------
# colorings


@dataclass
class Coloring:
    """An arity-n coloring with k colors (colors=None means omega).

    `value` runs the rule at most once per tuple: `memo` keeps each color
    that passed the tuple and range checks, so a read that raises stores
    nothing and raises again when asked again.  The rule must therefore
    be a pure function of its tuple over data fixed when the coloring is
    built, and must never read a metered tape: a rule whose re-reads a
    ledger must charge again stays a `kernel.RuleTape`.
    """

    arity: int
    colors: Optional[int]
    rule: Callable[[tuple[int, ...]], int]
    label: str = "coloring"
    memo: dict[tuple[int, ...], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def value(self, xs) -> int:
        t = xs if type(xs) is tuple else tuple(xs)
        v = self.memo.get(t)
        if v is not None:
            return v
        if len(t) != self.arity or not all(map(operator.lt, t, t[1:])):
            raise InputError(f"{self.label}: {t} is not an increasing {self.arity}-tuple")
        v = self.rule(t)
        if v < 0 or (self.colors is not None and v >= self.colors):
            raise ContractError(f"{self.label}: color {v} out of range at {t}")
        self.memo[t] = v
        return v

    def tuples(self, members: Iterable[int]):
        return itertools.combinations(sorted(set(members)), self.arity)


# ---------------------------------------------------------------------------
# the wire codec: color blocks and unary counts
#
# A k-coloring is coded block by block: the color of the tuple of rank r
# is the w = ceil(log2 k) bits at [r*w, (r+1)*w), little-endian, mod k.
# A unary count c is c ones, then zeros; it codes omega-colors (one cantor
# column per tuple rank), alternative-product tags, omitted thin-set
# colors and echo bounds.  Every module reads and writes the format
# through these helpers.


def color_block_width(k: int) -> int:
    """Bits per tuple block when coding a k-coloring as a point."""
    if k < 1:
        raise InputError("colors must be >= 1")
    return (k - 1).bit_length()


def read_color(tape, k: int, r: int) -> int:
    """The color in block r of a k-coloring's code on any tape."""
    w = (k - 1).bit_length()
    v = 0
    for i in range(w):
        v |= tape.bit(r * w + i) << i
    return v % k


def color_bit(x: int, w: int, color: Callable[[int], int]) -> int:
    """Bit x of the code of block width w whose block r holds color(r)."""
    if w == 0:
        return 0
    r, off = divmod(x, w)
    return (color(r) >> off) & 1


def read_unary(tape, cap: int) -> int:
    """The unary count on a tape: its ones before the first 0, at most cap."""
    c = 0
    while c < cap and tape.bit(c) == 1:
        c += 1
    return c


def unary_point(c: int) -> Point:
    """The unary code of c."""
    return Point(lambda p: 1 if p < c else 0, f"unary({c})")


def coloring_from_tape(tape, n: int, k: Optional[int], label: str = "decoded") -> Coloring:
    """View any tape as a total coloring (the totality coding).

    Finite k: the block of tuple rank r, read by `read_color`.
    k = omega: the unary count on the cantor column of rank r, capped at
    OMEGA_UNARY_CAP so decoding stays total at desk scale.  The coloring
    memoizes each color it reads (`Coloring`), so the tape must not change
    and no ledger may need to charge its re-reads: a `Point`, a
    `FunctionalTape` (which keeps every bit it computed) or a view of
    them.  A `Diverge` from the tape propagates and stores nothing.
    """
    if k is not None:
        color_block_width(k)  # rejects k < 1
        rule = lambda t: read_color(tape, k, tuple_rank(t))
    else:
        rule = lambda t: read_unary(family_column(tape, tuple_rank(t)), OMEGA_UNARY_CAP)
    return Coloring(n, k, rule, label)


def coloring_to_point(f: Coloring) -> Point:
    """Right inverse of coloring_from_tape on every tuple."""
    n = f.arity
    if f.colors is not None:
        w = color_block_width(f.colors)
        color = lambda r: f.value(rank_tuple(r, n))
        rule = lambda pos: color_bit(pos, w, color)
    else:

        def rule(pos):
            r, c = cantor_unpair(pos)
            return 1 if c < f.value(rank_tuple(r, n)) else 0

    return Point(rule, f"enc({f.label})")


# ---------------------------------------------------------------------------
# trees


def string_index(sigma: Prefix) -> int:
    """Standard enumeration of 2^{<omega}: empty -> 0, level order, lex."""
    v = 0
    for b in sigma.bits:
        v = v * 2 + b
    return (1 << len(sigma)) - 1 + v


def index_bits(idx: int) -> tuple[int, ...]:
    """The bits of the string with index idx (inverse of string_index)."""
    length = (idx + 1).bit_length() - 1
    v = idx - ((1 << length) - 1)
    return tuple((v >> (length - 1 - i)) & 1 for i in range(length))


def index_string(idx: int) -> Prefix:
    return Prefix(index_bits(idx))


@dataclass
class TreeByRule:
    """A subtree of 2^{<omega} given by a membership rule.

    A tree decoded from a tape (`from_tape`) also carries `index_member`,
    membership by `string_index`: such a tree is downward closed by
    construction, since a node is in only if its parent is.  Trees given
    by any other rule leave it None and get the orphan scan in
    `level_members`.
    """

    member: Callable[[Prefix], bool]
    label: str = "tree"
    index_member: Optional[Callable[[int], bool]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __contains__(self, sigma: Prefix) -> bool:
        return bool(self.member(sigma))

    @staticmethod
    def full() -> "TreeByRule":
        return TreeByRule(lambda s: True, "full")

    @staticmethod
    def from_tape(tape, label: str = "decoded-tree") -> "TreeByRule":
        """Decode a tape as a tree; downward closed by construction.

        The root is always in; a nonempty string is in iff the tape has a
        1 at the index of every nonempty prefix of it.  Membership is
        memoized by index: member(i) = member((i-1)//2) and bit(i) = 1.
        A node whose parent is decided reads its one bit; any other walks
        up from its nearest decided ancestor, so the tape is read at the
        same positions, in the same order, as a walk down the prefixes.  A
        Diverge from the tape propagates and leaves that node undecided.
        """
        known = {0: True}

        def index_member(idx: int) -> bool:
            inside = known.get(idx)
            if inside is not None:
                return inside
            parent = known.get((idx - 1) >> 1)
            if parent is not None:
                inside = known[idx] = parent and tape.bit(idx) == 1
                return inside
            path = []
            while idx not in known:
                path.append(idx)
                idx = (idx - 1) >> 1
            inside = known[idx]
            for i in reversed(path):
                if inside:
                    inside = tape.bit(i) == 1
                known[i] = inside
            return inside

        t = TreeByRule(lambda sigma: index_member(string_index(sigma)), label)
        t.index_member = index_member
        return t


def tree_to_point(t: TreeByRule) -> Point:
    return Point(lambda pos: 1 if index_string(pos) in t else 0, f"enc({t.label})")


_ORPHAN_SCAN_MAX = 1 << 14


def _levels(t: TreeByRule, d: int) -> Iterator[list[int]]:
    """String indices of t's members at levels 0, 1, ..., d, one list per
    level in lexicographic order, from one walk down the tree.

    The frontier grows on indices, the children of i being 2i+1 and
    2i+2.  A tree with `index_member` is downward closed by construction
    and is read only at the children of live nodes.  Any other tree is
    tested through its rule, and while 2^lvl <= _ORPHAN_SCAN_MAX each
    level is scanned once, in lexicographic order: a member whose parent
    is live joins the next frontier, and the first member whose parent
    is missing (an orphan) breaks the downward-closure contract.  Above
    the cap only the children of live nodes are tested.  Each level is
    yielded before the next is read, so a reader that stops early reads
    no deeper.
    """
    if d < 0:
        raise InputError("level must be >= 0")
    member = t.index_member
    scan = member is None
    if scan:
        if Prefix() not in t:
            raise ContractError(f"{t.label}: root missing")
        member = lambda c: index_string(c) in t
    live = [0]
    yield live
    for lvl in range(1, d + 1):
        if scan and (1 << lvl) <= _ORPHAN_SCAN_MAX:
            parents, live, rule = set(live), [], t.member
            for c, bits in enumerate(itertools.product((0, 1), repeat=lvl), (1 << lvl) - 1):
                s = Prefix(bits)
                if rule(s):
                    if (c - 1) >> 1 not in parents:
                        raise ContractError(f"{t.label}: {s!r} present but parent missing")
                    live.append(c)
        else:
            live = [c for i in live for c in (2 * i + 1, 2 * i + 2) if member(c)]
        yield live


def _level_indices(t: TreeByRule, d: int) -> list[int]:
    """String indices of t's members at level d: the last level of `_levels`."""
    for live in _levels(t, d):
        pass
    return live


def level_members(t: TreeByRule, d: int) -> list[Prefix]:
    """Members of t at level d, lexicographic, with contract checks.

    The level is read on string indices (`_levels`): a tree with
    `index_member` (decoded from a tape, or a tracking tree) grows its
    frontier on integers and needs no orphan scan; a rule-backed tree
    tests each string of a level at most once, in one pass that both
    grows the frontier and checks downward closure while 2^d is small
    enough.  Only here do the indices become `Prefix` strings, for
    callers that read them.
    """
    return [index_string(i) for i in _level_indices(t, d)]


def measure_at_level(t: TreeByRule, d: int) -> Fraction:
    """|{sigma in 2^d : sigma in t}| / 2^d as an exact rational."""
    return Fraction(len(_level_indices(t, d)), 1 << d)


def level_measures(t: TreeByRule, d: int) -> list[Fraction]:
    """[measure_at_level(t, lvl) for lvl in 0..d], from one walk down t."""
    return [Fraction(len(live), 1 << lvl) for lvl, live in enumerate(_levels(t, d))]


def _leftmost_index(member: Callable[[int], bool], depth: int) -> Optional[int]:
    """Index of the lexicographically least member at level depth, by a
    depth-first search that tests the 0-child first and stops at the
    first member it reaches at that level; None if there is none."""
    first_at_depth = (1 << max(depth, 0)) - 1
    stack = [0]
    while stack:
        i = stack.pop()
        if i and not member(i):
            continue
        if i >= first_at_depth:
            return i
        stack += (2 * i + 2, 2 * i + 1)
    return None


def leftmost_path_point(t: TreeByRule, depth: int) -> Point:
    """The lexicographically least depth-`depth` member, greedily extended.

    A tree with `index_member` is searched depth first on string
    indices, 0-child first, stopping at the first member at `depth`.
    The search tests a subset of the nodes the level walk
    (`level_members`) tests and returns the same string whenever that
    walk converges; a node that diverges to the right of the leftmost
    path is never read, so it no longer stops the solver.  Any other
    tree takes the first string of its checked level walk.  Beyond
    `depth` the path steps the index, preferring the 0-child when it
    stays in the tree; a dead end raises Diverge when queried past it.
    """
    member = t.index_member
    if member is not None:
        idx = _leftmost_index(member, depth)
    else:
        member = lambda i: index_string(i) in t
        level = _level_indices(t, depth)
        idx = level[0] if level else None
    if idx is None:
        raise InputError(f"{t.label}: dead at depth {depth}")
    grown = list(index_bits(idx))

    def rule(pos: int) -> int:
        nonlocal idx
        while pos >= len(grown):
            child = 2 * idx + 1
            if member(child):
                grown.append(0)
            elif member(child + 1):
                grown.append(1)
                child += 1
            else:
                raise Diverge("gap", len(grown))
            idx = child
        return grown[pos]

    return Point(rule, f"path({t.label})")


# ---------------------------------------------------------------------------
# solutions as tapes


@dataclass(frozen=True)
class ThinSolution:
    members: frozenset
    omitted: int

    @staticmethod
    def of(members, omitted: int) -> "ThinSolution":
        return ThinSolution(frozenset(members), omitted)


def set_members_at(tape, horizon: int) -> list[int]:
    """Members below the horizon, as far as the tape answers.

    A solution tape that diverges is consulted up to the stall: at desk
    scale a solution IS its readable sample, and verifiers report the
    sample size they judged.
    """
    out = []
    for x in range(horizon):
        try:
            if tape.bit(x) == 1:
                out.append(x)
        except Diverge:
            break
    return out


def thin_solution_tape(set_tape, omitted: int):
    """Wire form of a thin solution: even bits the set, odd bits the
    omitted color in unary (c ones then zeros)."""
    return interleave_tapes(set_tape, unary_point(omitted))


def thin_solution_from_tape(tape, k: Optional[int], horizon: int) -> ThinSolution:
    c = read_unary(odd_part(tape), k if k is not None else OMEGA_UNARY_CAP)
    if k is not None and c >= k:
        raise InputError(f"omitted color {c} out of range for {k} colors")
    return ThinSolution(frozenset(set_members_at(even_part(tape), horizon)), c)


# ---------------------------------------------------------------------------
# verifiers (finite horizon, three-valued, fail-monotone)


def verify_homogeneous_at(f: Coloring, members, horizon: int, size: int) -> Verdict:
    sample = sorted(x for x in set(members) if 0 <= x < horizon)
    seen = None
    for t in itertools.combinations(sample, f.arity):
        v = f.value(t)
        if seen is None:
            seen = v
        elif v != seen:
            return verdict_fail(f"tuples differ: color {seen} vs {v} at {t}")
    if len(sample) < size:
        return verdict_inconclusive(f"sample {len(sample)} < required {size}")
    return verdict_pass(f"monochromatic ({seen}) on {len(sample)} elements")


def verify_thin_at(f: Coloring, sol: ThinSolution, horizon: int, size: int) -> Verdict:
    if f.colors is not None and not (0 <= sol.omitted < f.colors):
        raise InputError(f"omitted color {sol.omitted} out of range for {f.colors}")
    sample = sorted(x for x in sol.members if 0 <= x < horizon)
    for t in itertools.combinations(sample, f.arity):
        if f.value(t) == sol.omitted:
            return verdict_fail(f"omitted color {sol.omitted} occurs at {t}")
    if len(sample) < size:
        return verdict_inconclusive(f"sample {len(sample)} < required {size}")
    return verdict_pass(f"omits {sol.omitted} on {len(sample)} elements")


def verify_rainbow_at(f: Coloring, members, horizon: int, size: int) -> Verdict:
    sample = sorted(x for x in set(members) if 0 <= x < horizon)
    seen: dict[int, tuple] = {}
    for t in itertools.combinations(sample, f.arity):
        v = f.value(t)
        if v in seen:
            return verdict_fail(f"color {v} repeats at {seen[v]} and {t}")
        seen[v] = t
    if len(sample) < size:
        return verdict_inconclusive(f"sample {len(sample)} < required {size}")
    return verdict_pass(f"injective on {len(sample)} elements")


def verify_path_at(tree: TreeByRule, path_tape, depth: int) -> Verdict:
    prefix_bits = []
    for d in range(depth + 1):
        if Prefix(tuple(prefix_bits)) not in tree:
            return verdict_fail(f"left the tree at depth {d - 1}")
        if d < depth:
            try:
                prefix_bits.append(path_tape.bit(d))
            except Diverge:
                return verdict_inconclusive(f"path tape diverged at {d}")
    return verdict_pass(f"in the tree through depth {depth}")


def tolerance_rt_tape(tape, m: int, n: int):
    """Drop elements <= the largest entry of any tuple with rank < m."""
    return continuation(Prefix((0,) * (max_entry_below_rank(m, n) + 1)), tape)


def tolerance_thin_tape(tape, m: int, n: int):
    """Thin solutions keep their omitted color; only the set is trimmed."""
    return interleave_tapes(tolerance_rt_tape(even_part(tape), m, n), odd_part(tape))


# ---------------------------------------------------------------------------
# problem specs


@dataclass
class ProblemSpec:
    """A named Pi^1_2 problem at desk scale."""

    name: str
    is_total: bool
    decode: Callable
    verify_at: Callable  # (instance, solution tape, horizon, size) -> Verdict
    tolerance: Optional[Callable] = None  # (solution tape, m) -> tape
    sample_instance: Optional[Callable] = None  # rng -> tape
    brute_solution_tapes: Optional[Callable] = None  # (instance, budget) -> [tape]
    params: dict = field(default_factory=dict)
    validate_instance: Optional[Callable] = None  # (instance, horizon) -> Verdict

    def __repr__(self):
        return f"ProblemSpec({self.name})"

    def check_instance(self, instance, horizon: int) -> Verdict:
        """Forward-validity: does this decoded object look like an instance?"""
        if self.validate_instance is None:
            return verdict_pass("no structural conditions")
        try:
            return self.validate_instance(instance, horizon)
        except Diverge as d:
            return verdict_inconclusive(f"instance tape diverged ({d.reason})")
        except ContractError as e:
            return verdict_fail(str(e))


def _validate_coloring(instance: Coloring, horizon: int) -> Verdict:
    for t in instance.tuples(range(horizon)):
        instance.value(t)  # raises ContractError on an out-of-range color
    return verdict_pass("colors in range on the horizon")


def _validate_bounded_coloring(k: int):
    def check(instance: Coloring, horizon: int) -> Verdict:
        counts: dict[int, int] = {}
        for t in instance.tuples(range(horizon)):
            v = instance.value(t)
            counts[v] = counts.get(v, 0) + 1
            if counts[v] > k:
                return verdict_fail(f"color {v} used more than {k} times within horizon")
        return verdict_pass(f"{k}-bounded on the horizon")

    return check


def _validate_tree(q: Optional[Fraction], depth_cap: int):
    def check(instance: TreeByRule, horizon: int) -> Verdict:
        d = min(horizon, depth_cap)
        mu = measure_at_level(instance, d)  # raises ContractError if not a tree
        if mu == 0:
            return verdict_fail(f"tree dead at depth {d}")
        if q is not None and mu < q:
            return verdict_fail(f"level measure {mu} below {q} at depth {d}")
        return verdict_pass(f"alive at depth {d} (measure {mu})")

    return check


def _planted_coloring(rng, n: int, k: int, horizon: int, size: int, thin: bool) -> Coloring:
    """Random total coloring with a planted solution inside the horizon."""
    seed = rng.getrandbits(32)
    noise = Point.from_seed(seed)
    planted = sorted(rng.sample(range(horizon), min(size, horizon)))
    pset = frozenset(planted)
    color = rng.randrange(k)

    def rule(t, pset=pset, color=color, k=k, noise=noise):
        v = read_color(noise, k, tuple_rank(t))
        if set(t) <= pset:
            if thin:
                return v if v != color else (v + 1) % k
            return color
        return v

    return Coloring(n, k, rule, f"planted(seed={seed})")


# the window below which sampled instances plant their solution
_PLANT_HORIZON = 16


def _searched_sample(members, budget) -> Prefix:
    """A brute solution as the sample its search saw: the members' bits
    below the budget's horizon, a gap beyond, so a scan for a later
    member stops at the edge."""
    s = frozenset(members)
    return Prefix(1 if x in s else 0 for x in range(budget.horizon))


def rt_spec(n: int, k: int) -> ProblemSpec:
    """Ramsey's theorem for n-tuples and k colors; total, finite tolerance."""
    if n < 1 or k < 1:
        raise InputError("RT needs n >= 1, k >= 1")

    def decode(tape):
        return coloring_from_tape(tape, n, k, f"RT^{n}_{k} instance")

    def verify(instance, sol_tape, horizon, size):
        return verify_homogeneous_at(instance, set_members_at(sol_tape, horizon), horizon, size)

    def sample(rng):
        if rng.random() < 0.5 and n == 1:
            return Point.from_seed(rng.getrandbits(32))
        return coloring_to_point(_planted_coloring(rng, n, k, _PLANT_HORIZON, 4 * n, thin=False))

    def brute(instance, budget):
        from .oracle import find_homogeneous

        res = find_homogeneous(instance, budget)
        return [_searched_sample(res.members, budget)] if res.found else []

    return ProblemSpec(
        name=f"RT^{n}_{k}",
        is_total=True,
        decode=decode,
        verify_at=verify,
        tolerance=lambda tape, m: tolerance_rt_tape(tape, m, n),
        sample_instance=sample,
        brute_solution_tapes=brute,
        params={"n": n, "k": k},
        validate_instance=_validate_coloring,
    )


def ts_spec(n: int, k: Optional[int]) -> ProblemSpec:
    """Thin set theorem; solutions carry their omitted color explicitly."""
    if n < 1 or (k is not None and k < 2):
        raise InputError("TS needs n >= 1 and k >= 2 (or omega)")
    kname = "w" if k is None else str(k)

    def decode(tape):
        return coloring_from_tape(tape, n, k, f"TS^{n}_{kname} instance")

    def verify(instance, sol_tape, horizon, size):
        try:
            sol = thin_solution_from_tape(sol_tape, k, horizon)
        except Diverge as d:
            return verdict_inconclusive(f"solution tape diverged ({d.reason})")
        return verify_thin_at(instance, sol, horizon, size)

    def sample(rng):
        kk = k if k is not None else 2 + rng.randrange(4)
        planted = _planted_coloring(rng, n, kk, _PLANT_HORIZON, 4 * n, thin=True)
        if k is None:
            planted = Coloring(n, None, planted.rule, planted.label + "-as-omega")
        return coloring_to_point(planted)

    def brute(instance, budget):
        from .oracle import find_thin

        res = find_thin(instance, budget)
        if not res.found:
            return []
        return [thin_solution_tape(_searched_sample(res.members, budget), res.omitted)]

    return ProblemSpec(
        name=f"TS^{n}_{kname}",
        is_total=True,
        decode=decode,
        verify_at=verify,
        tolerance=lambda tape, m: tolerance_thin_tape(tape, m, n),
        sample_instance=sample,
        brute_solution_tapes=brute,
        params={"n": n, "k": k},
        validate_instance=_validate_coloring,
    )


def rrt_spec(n: int, k: int) -> ProblemSpec:
    """Rainbow Ramsey: instances are k-bounded omega-colorings (non-total)."""

    def decode(tape):
        return coloring_from_tape(tape, n, None, f"RRT^{n}_{k} instance")

    def verify(instance, sol_tape, horizon, size):
        return verify_rainbow_at(instance, set_members_at(sol_tape, horizon), horizon, size)

    def sample(rng):
        shift = rng.randrange(64)
        return coloring_to_point(
            Coloring(n, None, lambda t: (tuple_rank(t) + shift) // k, f"bounded(+{shift})")
        )

    def brute(instance, budget):
        from .oracle import find_rainbow

        res = find_rainbow(instance, budget)
        return [_searched_sample(res.members, budget)] if res.found else []

    return ProblemSpec(
        name=f"RRT^{n}_{k}",
        is_total=False,
        decode=decode,
        verify_at=verify,
        sample_instance=sample,
        brute_solution_tapes=brute,
        params={"n": n, "k": k},
        validate_instance=_validate_bounded_coloring(k),
    )


# The hand-written tree rules, by name; each factory returns a fresh
# rule-backed tree (no `index_member`, so `level_members` keeps the
# orphan scan for them).  "first-bit" is labelled first-<b> by default.
HAND_TREES: dict[str, Callable[..., TreeByRule]] = {
    "full": TreeByRule.full,
    "no-11": lambda: TreeByRule(
        lambda s: all(s.bits[i : i + 2] != (1, 1) for i in range(len(s.bits) - 1)), "no-11"),
    "first-bit": lambda b, label=None: TreeByRule(
        lambda s: not s.bits or s.bits[0] == b, label or f"first-{b}"),
    "fix": lambda pos, val: TreeByRule(
        lambda s: len(s.bits) <= pos or s.bits[pos] == val, f"fix({pos}={val})"),
}


def _tree_sampler(rng) -> Point:
    choice = rng.randrange(4)
    if choice == 0:
        t = HAND_TREES["full"]()
    elif choice == 1:
        t = HAND_TREES["no-11"]()
    elif choice == 2:
        t = HAND_TREES["first-bit"](rng.randrange(2))
    else:
        pos, val = rng.randrange(3), rng.randrange(2)
        t = HAND_TREES["fix"](pos, val)
    return tree_to_point(t)


def wkl_spec(path_depth: int = 12) -> ProblemSpec:
    """Weak Koenig's lemma; non-total (infinitude is not coded)."""

    def decode(tape):
        return TreeByRule.from_tape(tape)

    def verify(instance, sol_tape, horizon, size):
        return verify_path_at(instance, sol_tape, min(horizon, path_depth))

    def brute(instance, budget):
        try:
            return [leftmost_path_point(instance, min(budget.horizon, path_depth))]
        except InputError:
            return []

    return ProblemSpec(
        name="WKL",
        is_total=False,
        decode=decode,
        verify_at=verify,
        sample_instance=_tree_sampler,
        brute_solution_tapes=brute,
        params={},
        validate_instance=_validate_tree(None, path_depth),
    )


def wwkl_spec(q: Optional[Fraction] = None, path_depth: int = 10,
              solve_depth: Optional[int] = None) -> ProblemSpec:
    """WWKL (q=None) or q-WWKL: trees with level measures bounded below.

    solve_depth lets the brute path solver look deeper than the verifier;
    constructions whose trees encode information at depths past the
    verification horizon (the tracking trees) need the headroom.
    """
    base = wkl_spec(path_depth)
    solve_depth = path_depth if solve_depth is None else solve_depth

    def verify(instance, sol_tape, horizon, size):
        d = min(horizon, path_depth)
        if q is not None and measure_at_level(instance, d) < q:
            return verdict_fail(f"instance measure below {q} at depth {d}")
        return verify_path_at(instance, sol_tape, d)

    def brute(instance, budget):
        try:
            return [leftmost_path_point(instance, solve_depth)]
        except InputError:
            return []

    name = "WWKL" if q is None else f"{q}-WWKL"
    return ProblemSpec(
        name=name,
        is_total=False,
        decode=base.decode,
        verify_at=verify,
        sample_instance=base.sample_instance,
        brute_solution_tapes=brute,
        params={"q": q},
        validate_instance=_validate_tree(q, path_depth),
    )


def coh_spec() -> ProblemSpec:
    """COH: total, tolerance is the identity, not finitely verifiable."""

    def verify(instance, sol_tape, horizon, size):
        return verdict_inconclusive("cohesiveness quantifies over a tail; structural checks only")

    def brute(instance, budget):
        return [Point.ones()]

    return ProblemSpec(
        name="COH",
        is_total=True,
        decode=lambda tape: tape,  # member i is family_column(tape, i)
        verify_at=verify,
        tolerance=lambda tape, m: tape,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=brute,
        params={},
    )


_REGISTRY: dict[str, Callable[[], ProblemSpec]] = {}


def register(name: str, factory: Callable[[], ProblemSpec]) -> None:
    _REGISTRY[name] = factory


def lookup(name: str) -> ProblemSpec:
    """The registered problem called name; an unknown name is an InputError
    that lists the known ones (test_registry_lists_and_looks_up)."""
    if name not in _REGISTRY:
        raise InputError(f"unknown problem {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


for _n in (1, 2, 3):
    for _k in (2, 3, 4):
        register(f"RT^{_n}_{_k}", lambda n=_n, k=_k: rt_spec(n, k))
        register(f"TS^{_n}_{_k}", lambda n=_n, k=_k: ts_spec(n, k))
    register(f"TS^{_n}_w", lambda n=_n: ts_spec(n, None))
register("RRT^2_2", lambda: rrt_spec(2, 2))
register("WKL", wkl_spec)
register("WWKL", wwkl_spec)
register("COH", coh_spec)
