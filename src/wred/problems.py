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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .kernel import (
    ContractError,
    Diverge,
    InputError,
    MapTape,
    Point,
    Prefix,
    cantor_pair,
    cantor_unpair,
    even_part,
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
    """An arity-n coloring with k colors (colors=None means omega)."""

    arity: int
    colors: Optional[int]
    rule: Callable[[tuple[int, ...]], int]
    label: str = "coloring"

    def value(self, xs) -> int:
        t = tuple(xs)
        if len(t) != self.arity or any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise InputError(f"{self.label}: {t} is not an increasing {self.arity}-tuple")
        v = self.rule(t)
        if v < 0 or (self.colors is not None and v >= self.colors):
            raise ContractError(f"{self.label}: color {v} out of range at {t}")
        return v

    def tuples(self, members: Iterable[int]):
        return itertools.combinations(sorted(set(members)), self.arity)

    @staticmethod
    def from_function(n: int, k: Optional[int], fn, label: str = "coloring") -> "Coloring":
        return Coloring(n, k, lambda t: fn(*t), label)


def color_block_width(k: int) -> int:
    """Bits per tuple block when coding a k-coloring as a point."""
    if k < 1:
        raise InputError("colors must be >= 1")
    return (k - 1).bit_length()


def coloring_from_tape(tape, n: int, k: Optional[int], label: str = "decoded") -> Coloring:
    """View any tape as a total coloring (the totality coding).

    Finite k: the block of tuple rank r is the bit window
    [r*w, (r+1)*w) with w = ceil(log2 k), read little-endian mod k.
    k = omega: the block is the cantor column of rank r, read as a
    unary count of ones before the first zero, capped at
    OMEGA_UNARY_CAP so decoding stays total at desk scale.
    """
    if k is not None:
        w = color_block_width(k)

        def rule(t, w=w, k=k):
            r = tuple_rank(t)
            if w == 0:
                return 0
            v = 0
            for i in range(w):
                v |= tape.bit(r * w + i) << i
            return v % k

    else:

        def rule(t):
            r = tuple_rank(t)
            c = 0
            while c < OMEGA_UNARY_CAP and tape.bit(cantor_pair(r, c)) == 1:
                c += 1
            return c

    return Coloring(n, k, rule, label)


def coloring_to_point(f: Coloring) -> Point:
    """Right inverse of coloring_from_tape on every tuple."""
    n = f.arity
    if f.colors is not None:
        w = color_block_width(f.colors)

        def rule(pos, w=w):
            if w == 0:
                return 0
            r, off = divmod(pos, w)
            return (f.value(rank_tuple(r, n)) >> off) & 1

    else:

        def rule(pos):
            r, c = cantor_unpair(pos)
            return 1 if c < f.value(rank_tuple(r, n)) else 0

    return Point(rule, f"enc({f.label})")


def totalize_coloring(tape, n: int, k: Optional[int]) -> Coloring:
    return coloring_from_tape(tape, n, k)


def color_read_positions(n: int, k: int, r: int) -> list[int]:
    """Tape positions a finite-k decoder reads for the tuple of rank r."""
    w = color_block_width(k)
    return [r * w + i for i in range(w)]


def read_color(ctx, tape_idx: int, k: int, r: int) -> int:
    """Decode the color of tuple rank r through an EvalContext (finite k)."""
    w = color_block_width(k)
    if w == 0:
        return 0
    v = 0
    for i in range(w):
        v |= ctx.query(tape_idx, r * w + i) << i
    return v % k


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
    declared_measure_bound: Optional[Fraction] = None
    index_member: Optional[Callable[[int], bool]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __contains__(self, sigma: Prefix) -> bool:
        return bool(self.member(sigma))

    @staticmethod
    def full() -> "TreeByRule":
        return TreeByRule(lambda s: True, "full", Fraction(1))

    @staticmethod
    def from_tape(tape, label: str = "decoded-tree") -> "TreeByRule":
        """Decode a tape as a tree; downward closed by construction.

        The root is always in; a nonempty string is in iff the tape has a
        1 at the index of every nonempty prefix of it.  Membership is
        memoized by index: member(i) = member((i-1)//2) and bit(i) = 1,
        with the parent decided before the node's own bit is read, so the
        tape is read at the same positions, in the same order, as a walk
        down the prefixes.  A Diverge from the tape propagates and leaves
        that node undecided.
        """
        known = {0: True}

        def index_member(idx: int) -> bool:
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


def level_members(t: TreeByRule, d: int) -> list[Prefix]:
    """Members of t at level d, lexicographic, with contract checks.

    Builds levels by extending live nodes.  A tree with `index_member`
    (decoded from a tape) grows its frontier on string indices, the
    children of i being 2i+1 and 2i+2, and skips the orphan scan: it is
    downward closed by construction, and the scan would only reread
    positions the frontier already read.  Any other tree, when 2^d is
    small enough, additionally has the full level scanned for orphans (a
    member whose parent is missing), which is the downward-closure
    contract check.
    """
    if t.index_member is not None:
        member = t.index_member
        live = [0]
        for _ in range(d):
            live = [c for i in live for c in (2 * i + 1, 2 * i + 2) if member(c)]
        return [index_string(i) for i in live]
    if Prefix() not in t:
        raise ContractError(f"{t.label}: root missing")
    frontier = [Prefix()]
    for lvl in range(1, d + 1):
        nxt = [c for s in frontier for c in (s.extend(0), s.extend(1)) if c in t]
        if (1 << lvl) <= _ORPHAN_SCAN_MAX:
            live = set(frontier)
            for bits in itertools.product((0, 1), repeat=lvl):
                s = Prefix(bits)
                if s in t and Prefix(bits[:-1]) not in live:
                    raise ContractError(f"{t.label}: {s!r} present but parent missing")
        frontier = nxt
    return frontier


def measure_at_level(t: TreeByRule, d: int) -> Fraction:
    """|{sigma in 2^d : sigma in t}| / 2^d as an exact rational."""
    if d < 0:
        raise InputError("level must be >= 0")
    return Fraction(len(level_members(t, d)), 1 << d)


def leftmost_path_point(t: TreeByRule, depth: int) -> Point:
    """The lexicographically least depth-`depth` member, greedily extended.

    Beyond `depth` the path prefers the 0-child when it stays in the
    tree; a dead end raises Diverge when queried past it.
    """
    level = level_members(t, depth)
    if not level:
        raise InputError(f"{t.label}: dead at depth {depth}")
    grown = list(level[0].bits)

    def rule(pos: int) -> int:
        while pos >= len(grown):
            cur = Prefix(tuple(grown))
            if cur.extend(0) in t:
                grown.append(0)
            elif cur.extend(1) in t:
                grown.append(1)
            else:
                raise Diverge("gap", len(grown))
        return grown[pos]

    return Point(rule, f"path({t.label})")


# ---------------------------------------------------------------------------
# set families (COH instances)


@dataclass
class SetFamily:
    member: Callable[[int, int], int]
    label: str = "family"

    @staticmethod
    def from_tape(tape, label: str = "decoded-family") -> "SetFamily":
        return SetFamily(lambda i, x: tape.bit(cantor_pair(i, x)), label)


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
    unary = Point(lambda p, c=omitted: 1 if p < c else 0, f"unary({omitted})")
    return interleave_tapes(set_tape, unary)


def thin_solution_from_tape(tape, k: Optional[int], horizon: int) -> ThinSolution:
    cap = k if k is not None else OMEGA_UNARY_CAP
    c = 0
    while c < cap and odd_part(tape).bit(c) == 1:
        c += 1
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


def tolerance_rt(members, m: int, n: int):
    """Drop elements <= the largest entry of any tuple with rank < m."""
    ell = max_entry_below_rank(m, n)
    return sorted(x for x in members if x > ell)


def tolerance_rt_tape(tape, m: int, n: int):
    ell = max_entry_below_rank(m, n)
    return MapTape(tape, lambda p: p) if ell < 0 else _AboveTape(tape, ell)


class _AboveTape:
    def __init__(self, base, ell: int):
        self.base = base
        self.ell = ell

    def bit(self, pos: int) -> int:
        if pos <= self.ell:
            return 0
        return self.base.bit(pos)


def tolerance_thin_tape(tape, m: int, n: int):
    """Thin solutions keep their omitted color; only the set is trimmed."""
    trimmed = tolerance_rt_tape(even_part(tape), m, n)

    class _T:
        def bit(self, pos: int) -> int:
            q, r = divmod(pos, 2)
            return trimmed.bit(q) if r == 0 else odd_part(tape).bit(q)

    return _T()


# ---------------------------------------------------------------------------
# problem specs


@dataclass
class ProblemSpec:
    """A named Pi^1_2 problem at desk scale."""

    name: str
    is_total: bool
    decode: Callable
    verify_at: Callable  # (instance, solution tape, horizon, size) -> Verdict
    encode: Optional[Callable] = None
    tolerance: Optional[Callable] = None  # (solution tape, m) -> tape
    sample_instance: Optional[Callable] = None  # rng -> tape
    brute_solution_tapes: Optional[Callable] = None  # (instance, budget) -> [tape]
    default_c: Optional[Point] = None
    params: dict = field(default_factory=dict)
    finitely_checkable: bool = True
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
        v = 0
        r = tuple_rank(t)
        for i in range(color_block_width(k)):
            v |= noise.bit(r * color_block_width(k) + i) << i
        v %= k
        if set(t) <= pset:
            if thin:
                return v if v != color else (v + 1) % k
            return color
        return v

    return Coloring(n, k, rule, f"planted(seed={seed})")


def rt_spec(n: int, k: int, plant_horizon: int = 16) -> ProblemSpec:
    """Ramsey's theorem for n-tuples and k colors; total, finite tolerance."""
    if n < 1 or k < 1:
        raise InputError("RT needs n >= 1, k >= 1")

    def decode(tape):
        return coloring_from_tape(tape, n, k, f"RT^{n}_{k} instance")

    def verify(instance, sol_tape, horizon, size):
        try:
            members = set_members_at(sol_tape, horizon)
        except Diverge as d:
            return verdict_inconclusive(f"solution tape diverged ({d.reason})")
        return verify_homogeneous_at(instance, members, horizon, size)

    def sample(rng):
        if rng.random() < 0.5 and n == 1:
            return Point.from_seed(rng.getrandbits(32))
        return coloring_to_point(_planted_coloring(rng, n, k, plant_horizon, 4 * n, thin=False))

    def brute(instance, budget):
        from .oracle import find_homogeneous

        res = find_homogeneous(instance, budget)
        return [Point.from_set(res.members)] if res.found else []

    return ProblemSpec(
        name=f"RT^{n}_{k}",
        is_total=True,
        decode=decode,
        encode=coloring_to_point,
        verify_at=verify,
        tolerance=lambda tape, m: tolerance_rt_tape(tape, m, n),
        sample_instance=sample,
        brute_solution_tapes=brute,
        default_c=Point.zeros(),
        params={"n": n, "k": k},
        validate_instance=_validate_coloring,
    )


def ts_spec(n: int, k: Optional[int], plant_horizon: int = 16) -> ProblemSpec:
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
        planted = _planted_coloring(rng, n, kk, plant_horizon, 4 * n, thin=True)
        if k is None:
            planted = Coloring(n, None, planted.rule, planted.label + "-as-omega")
        return coloring_to_point(planted)

    def brute(instance, budget):
        from .oracle import find_thin

        res = find_thin(instance, budget)
        if not res.found:
            return []
        return [thin_solution_tape(Point.from_set(res.members), res.omitted)]

    return ProblemSpec(
        name=f"TS^{n}_{kname}",
        is_total=True,
        decode=decode,
        encode=coloring_to_point,
        verify_at=verify,
        tolerance=lambda tape, m: tolerance_thin_tape(tape, m, n),
        sample_instance=sample,
        brute_solution_tapes=brute,
        default_c=Point.zeros(),
        params={"n": n, "k": k},
        validate_instance=_validate_coloring,
    )


def rrt_spec(n: int, k: int) -> ProblemSpec:
    """Rainbow Ramsey: instances are k-bounded omega-colorings (non-total)."""

    def decode(tape):
        return coloring_from_tape(tape, n, None, f"RRT^{n}_{k} instance")

    def verify(instance, sol_tape, horizon, size):
        try:
            members = set_members_at(sol_tape, horizon)
        except Diverge as d:
            return verdict_inconclusive(f"solution tape diverged ({d.reason})")
        return verify_rainbow_at(instance, members, horizon, size)

    def sample(rng):
        shift = rng.randrange(64)
        return coloring_to_point(
            Coloring(n, None, lambda t: (tuple_rank(t) + shift) // k, f"bounded(+{shift})")
        )

    def brute(instance, budget):
        from .oracle import find_rainbow

        res = find_rainbow(instance, budget)
        return [Point.from_set(res.members)] if res.found else []

    return ProblemSpec(
        name=f"RRT^{n}_{k}",
        is_total=False,
        decode=decode,
        encode=coloring_to_point,
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
        lambda s: all(s.bits[i : i + 2] != (1, 1) for i in range(len(s) - 1)), "no-11"),
    "first-bit": lambda b, label=None: TreeByRule(
        lambda s: len(s) == 0 or s.bits[0] == b, label or f"first-{b}"),
    "fix": lambda pos, val: TreeByRule(
        lambda s: len(s) <= pos or s.bits[pos] == val, f"fix({pos}={val})"),
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
        encode=tree_to_point,
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
        encode=base.encode,
        verify_at=verify,
        sample_instance=base.sample_instance,
        brute_solution_tapes=brute,
        params={"q": q},
        validate_instance=_validate_tree(q, path_depth),
    )


def coh_spec() -> ProblemSpec:
    """COH: total, tolerance is the identity, not finitely verifiable."""

    def decode(tape):
        return SetFamily.from_tape(tape)

    def verify(instance, sol_tape, horizon, size):
        return verdict_inconclusive("cohesiveness quantifies over a tail; structural checks only")

    def brute(instance, budget):
        return [Point.ones()]

    return ProblemSpec(
        name="COH",
        is_total=True,
        decode=decode,
        encode=None,
        verify_at=verify,
        tolerance=lambda tape, m: tape,
        sample_instance=lambda rng: Point.from_seed(rng.getrandbits(32)),
        brute_solution_tapes=brute,
        default_c=Point.zeros(),
        params={},
        finitely_checkable=False,
    )


_REGISTRY: dict[str, Callable[[], ProblemSpec]] = {}


def register(name: str, factory: Callable[[], ProblemSpec]) -> None:
    _REGISTRY[name] = factory


def lookup(name: str) -> ProblemSpec:
    if name not in _REGISTRY:
        raise InputError(f"unknown problem {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def known_problems() -> list[str]:
    return sorted(_REGISTRY)


for _n in (1, 2, 3):
    for _k in (2, 3, 4):
        register(f"RT^{_n}_{_k}", lambda n=_n, k=_k: rt_spec(n, k))
        register(f"TS^{_n}_{_k}", lambda n=_n, k=_k: ts_spec(n, k))
    register(f"TS^{_n}_w", lambda n=_n: ts_spec(n, None))
register("RRT^2_2", lambda: rrt_spec(2, 2))
register("WKL", wkl_spec)
register("WWKL", wwkl_spec)
register("COH", coh_spec)
