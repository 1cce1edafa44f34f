"""Named reductions and constructions, packaged for the verify suite.

Each entry is either a Witness (checked by the generic soundness suite
over its parameter grid) or a construction/extraction pair with bespoke
finite-scale checks.  Entry ids are addressable from the CLI.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .combinators import (
    SoundnessRow,
    SquashConfig,
    Witness,
    check_witness_soundness,
    fanout_rt,
    parallel_product,
    seq,
    squash_forward,
    squash_markers,
    triv_spec,
)
from .kernel import (
    DEFAULT_FUEL,
    ContractError,
    FunctionalTape,
    InputError,
    Point,
    Prefix,
    ResourceError,
    cantor_pair,
    cantor_unpair,
    compose_functionals,
    even_part,
    family_column,
    family_tape,
    identity_functional,
    interleave_tapes,
    oblivious,
    odd_part,
    pointwise,
    rank_tuple,
    tuple_rank,
)
from .problems import (
    Coloring,
    FAIL,
    HAND_TREES,
    OMEGA_UNARY_CAP,
    PASS,
    ProblemSpec,
    ThinSolution,
    TreeByRule,
    color_bit,
    color_block_width,
    coh_spec,
    index_string,
    leftmost_path_point,
    level_measures,
    level_members,
    measure_at_level,
    read_color,
    read_unary,
    rt_spec,
    string_index,
    tree_to_point,
    ts_spec,
    verify_homogeneous_at,
    verify_path_at,
    verify_thin_at,
    wkl_spec,
    wwkl_spec,
)


# ---------------------------------------------------------------------------
# Ramsey witnesses


def rt_color_embed(n: int, j: int, k: int) -> Witness:
    """RT^n_j <= RT^n_k for j <= k: the same coloring seen with more colors."""
    if j > k:
        raise InputError(f"color embed needs j <= k, got {j} > {k}")
    w_k = color_block_width(k)

    def fstep(ctx, x):
        return color_bit(x, w_k, lambda r: read_color(ctx.tape(0), j, r))

    forward = oblivious(pointwise(1, fstep, f"embed{j}->{k}"))
    return Witness(rt_spec(n, j), rt_spec(n, k), forward, identity_functional(), "strong",
                   label=f"RT^{n}_{j}<=RT^{n}_{k}")


def rt_arity_lift(m: int, n: int, k: int) -> Witness:
    """RT^m_k <= RT^n_k for m <= n: color a long tuple by its first m entries.

    A set homogeneous for the lifted coloring only constrains elements
    having n-m successors inside it, so the backward keeps a member when
    it can see that many later members (diverging at the sample boundary
    rather than passing an unconstrained element through).
    """
    if m > n:
        raise InputError(f"arity lift needs m <= n, got {m} > {n}")
    w = color_block_width(k)

    def fstep(ctx, x):
        a = ctx.tape(0)
        return color_bit(x, w, lambda r: read_color(a, k, tuple_rank(rank_tuple(r, n)[:m])))

    forward = oblivious(pointwise(1, fstep, f"arity{m}->{n}"))
    need = n - m

    def bstep(ctx, x):
        if ctx.query(0, x) == 0:
            return 0
        found, y = 0, x
        while found < need:
            y += 1
            found += ctx.query(0, y)
        return 1

    backward = identity_functional() if need == 0 else pointwise(1, bstep, f"drop-top-{need}")
    return Witness(rt_spec(m, k), rt_spec(n, k), forward, backward, "strong",
                   label=f"RT^{m}_{k}<=RT^{n}_{k}", solve_slack=need)


def rt_product(n: int, j: int, k: int) -> Witness:
    """<RT^n_j, RT^n_k> <= RT^n_{jk}: pair the colors (first least significant)."""
    source = parallel_product(rt_spec(n, j), rt_spec(n, k))
    target = rt_spec(n, j * k)
    w_jk = color_block_width(j * k)

    def fstep(ctx, x):
        a = ctx.tape(0)
        return color_bit(x, w_jk, lambda r: read_color(even_part(a), j, r)
                         + j * read_color(odd_part(a), k, r))

    forward = oblivious(pointwise(1, fstep, f"pair{j}x{k}"))
    return Witness(source, target, forward, _dup_backward(), "strong",
                   label=f"<RT^{n}_{j},RT^{n}_{k}><=RT^{n}_{j * k}")


# ---------------------------------------------------------------------------
# COH interleaving


def coh_interleave(count) -> Witness:
    """<COH,COH> <= COH (count=2) or SeqCOH <= COH (count='omega')."""
    c = coh_spec()
    if count == 2:
        source = parallel_product(coh_spec(), coh_spec())

        def fstep(ctx, x):
            i, t = cantor_unpair(x)
            return ctx.query(0, 2 * cantor_pair(i // 2, t) + (i % 2))

        label = "<COH,COH><=COH"
    elif count == "omega":
        source = seq(coh_spec())

        def fstep(ctx, x):
            i, t = cantor_unpair(x)
            a, b = cantor_unpair(i)
            return ctx.query(0, cantor_pair(a, cantor_pair(b, t)))

        label = "SeqCOH<=COH"
    else:
        raise InputError("count must be 2 or 'omega'")

    forward = oblivious(pointwise(1, fstep, "coh-interleave"))
    if count == 2:
        backward = _dup_backward()
    else:
        def bstep(ctx, x):
            _, t = cantor_unpair(x)
            return ctx.query(0, t)

        backward = oblivious(pointwise(1, bstep, "spread"))
    return Witness(source, c, forward, backward, "strong", label=label)


# ---------------------------------------------------------------------------
# WKL interleaving


# each interleaving's column map and placement (see wkl_interleave)
_LAYOUTS = {
    2: (lambda p: p & 1, lambda i, idx: 2 * idx + i),
    "omega": (lambda p: cantor_unpair(p)[0], cantor_pair),
}


def _columns(n: int, column_of: Callable[[int], int]) -> tuple:
    """How a string of length n splits into columns under a column map.

    Position p belongs to column column_of(p).  Entry i holds column i's
    shifts, in order: the string's bit at p is bit n-1-p (its shift) of
    idx+1 for the string's index idx.  Both maps of `_LAYOUTS` first show
    column i before column i+1, so the entries come in column order.
    """
    cols: dict[int, list[int]] = {}
    for p in range(n):
        cols.setdefault(column_of(p), []).append(n - 1 - p)
    return tuple(tuple(shifts) for shifts in cols.values())


def wkl_interleave(count) -> Witness:
    """<WKL,WKL> <= WKL or SeqWKL <= WKL by interleaving the node bits.

    The two differ only in their `_LAYOUTS` data.  The column map says
    which column owns string position p: p % 2 for count 2, and
    cantor_unpair(p)[0] for 'omega'.  The placement says where column i's
    node idx sits on the instance tape: 2*idx + i, or cantor_pair(i, idx).

    The forward's node x is in when every column's part of x is in that
    column's tree.  The sweep decides x's parent, string (x-1)//2, before
    x, and the step keeps each position's answer in `ctx.scratch`.  With
    the parent's answer there, x is out if its parent is, and otherwise
    in iff the one column node that x's last bit extends is in: a single
    query, since every other column node of x is a column node of the
    parent.  Without it (a fresh scratch, as in a nested or a direct
    step, and x = 0) the step walks: it steps each column's index
    straight from the bits of x+1 and queries the column's nodes shortest
    first, stopping at the first 0; columns are tried in order 0, 1, ...
    Both give the same answer, and the cells the memo reads are a subset
    of the walk's.  Which column holds a length's last position, and its
    shifts, is worked out once per length.

    The wire-level problem specs cap the path horizon at depth 4 for each
    of a pair's trees; the exact measure identities are checked directly
    on tree rules, where deeper levels stay cheap.
    """
    if count == 2:
        source = parallel_product(wkl_spec(path_depth=4), wkl_spec(path_depth=4))
        label = "<WKL,WKL><=WKL"
    elif count == "omega":
        source = seq(wkl_spec(path_depth=3), columns=2)
        label = "SeqWKL<=WKL"
    else:
        raise InputError("count must be 2 or 'omega'")
    column_of, place = _LAYOUTS[count]
    last: dict = {}  # n -> (the column of position n - 1, its shifts)

    def walk(ctx, m):
        n = m.bit_length() - 1
        for i, shifts in enumerate(_columns(n, column_of)):
            idx = 0
            for shift in shifts:
                idx = 2 * idx + 1 + ((m >> shift) & 1)
                if ctx.query(0, place(i, idx)) != 1:
                    return 0
        return 1

    def in_s(ctx, x):
        memo = ctx.scratch
        parent = memo.get((x - 1) >> 1)  # x = 0 looks up -1, never present
        if parent is None:
            v = walk(ctx, x + 1)
        elif parent:
            m = x + 1
            n = m.bit_length() - 1
            lay = last.get(n)
            if lay is None:
                i = column_of(n - 1)
                lay = last[n] = (i, _columns(n, column_of)[i])
            i, shifts = lay
            idx = 0  # the last column's node
            for shift in shifts:
                idx = 2 * idx + 1 + ((m >> shift) & 1)
            v = ctx.query(0, place(i, idx))
        else:
            v = 0
        memo[x] = v
        return v

    forward = pointwise(1, in_s, "wkl-interleave")
    target = wkl_spec(path_depth=8 if count == 2 else 12)
    return Witness(source, target, forward, identity_functional(), "strong", label=label)


# ---------------------------------------------------------------------------
# thin set color collapse


def ts_collapse(n: int, j: int, k) -> Witness:
    """TS^n_k <= TS^n_j (j < k <= omega): collapse colors >= j-1 to j-1.

    The omitted color passes through unchanged: if the thin set omits
    c < j-1 it omits c for the original coloring; if it omits j-1 the
    original coloring never reaches j-1 on it either.
    """
    if not (2 <= j and (k is None or j < k)):
        raise InputError("collapse needs 2 <= j < k <= omega")
    source = ts_spec(n, k)
    target = ts_spec(n, j)
    w_j = color_block_width(j)

    def color(a, r):
        if k is not None:
            return read_color(a, k, r)
        return read_unary(family_column(a, r), OMEGA_UNARY_CAP)

    def fstep(ctx, x):
        return color_bit(x, w_j, lambda r: min(color(ctx.tape(0), r), j - 1))

    forward = pointwise(1, fstep, f"collapse{k}->{j}")
    if k is not None:  # omega reads unary as far as the first 0: value-dependent
        oblivious(forward)
    kname = "w" if k is None else k
    return Witness(source, target, forward, identity_functional(), "strong",
                   label=f"TS^{n}_{kname}<=TS^{n}_{j}")


# ---------------------------------------------------------------------------
# WKL from sequential WWKL (the half-measure trees)


def ext_in_tree(s: TreeByRule, rho: Prefix, k: int,
                member: Optional[Callable[[int], bool]] = None) -> bool:
    """Is rho extendible in s to length k (or already that long)?

    A depth-first search on string indices (children 2i+1, 2i+2), the
    1-child popped first.  Membership is `member` when given, else s's
    `index_member` when it has one and `index_string(i) in s` otherwise;
    either way the strings are tested in the order of the same search on
    `Prefix` strings.
    """
    if k <= len(rho):
        return True
    member = member or s.index_member or (lambda i: index_string(i) in s)
    idx = string_index(rho)
    if not member(idx):
        return False
    stack = [(idx, len(rho))]
    while stack:
        i, n = stack.pop()
        if n == k:
            return True
        for c in (2 * i + 1, 2 * i + 2):
            if member(c):
                stack.append((c, n + 1))
    return False


def _tracking_allows(ext: Callable[[int, int], bool], b: int, n: int) -> bool:
    """Whether the tracking tree has the strings of length n >= 1 whose
    first bit is b; ext(c, k) is Ext of sigma's child c to length k.

    The tree's membership depends only on a string's first bit and its
    length.  It is downward closed: Ext is monotone in k, so if
    allows(b, n) holds by a clause at k <= n-2 that clause gives
    allows(b, n-1), and any other clause (ext(b, n), or a clause at
    k = n-1) implies ext(b, n-1), which is allows(b, n-1).  For n = 1
    the parent is the root, which is always in.
    """
    if ext(b, n):
        return True
    for k in range(n):
        if ext(b, k) and not ext(1 - b, k):
            return True
        if ext(0, k) and ext(1, k) and not ext(0, k + 1) and not ext(1, k + 1):
            return True
    return False


def half_measure_tree(s: TreeByRule, sigma: Prefix) -> TreeByRule:
    """The tracking tree for sigma: full while both children of sigma look
    extendible in s; once one side dies at some length, only the other
    side (or, on a tie, everything) keeps growing.  Level counts are
    always 2^m or 2^(m-1).

    Membership is memoized per (first bit, length) and exposed by string
    index as `index_member` (index 0, the root, is always in); the tree
    is downward closed by construction (see `_tracking_allows`), so
    `level_members` grows it on indices without the orphan scan.  The
    forward of `wkl_from_seqwwkl_witness` reads its columns through
    `index_member`, one tracking tree per column.  A rule-backed s is
    asked each string at most once per tracking tree: the answers are
    kept here, never on s.
    """
    children = (sigma.extend(0), sigma.extend(1))
    ext_memo: dict = {}
    allowed: dict = {}
    base_member = s.index_member
    if base_member is None:
        seen: dict = {}
        base_member = lambda i: seen[i] if i in seen else seen.setdefault(i, index_string(i) in s)

    def ext(c: int, k: int) -> bool:
        v = ext_memo.get(2 * k + c)
        if v is None:
            v = ext_memo[2 * k + c] = ext_in_tree(s, children[c], k, base_member)
        return v

    def index_member(idx: int) -> bool:
        if idx == 0:
            return True
        m = idx + 1
        n = m.bit_length() - 1
        key = 2 * n + ((m >> (n - 1)) & 1)
        v = allowed.get(key)
        if v is None:
            v = allowed[key] = _tracking_allows(ext, key & 1, n)
        return v

    t = TreeByRule(lambda tau: index_member(string_index(tau)), f"T[{sigma!r}]")
    t.index_member = index_member
    return t


def assemble_path(paths: Callable[[Prefix], object]) -> Point:
    """C(n) = (path at C|n)(0): recursively consult the tracking paths."""
    bits: list[int] = []

    def rule(pos: int) -> int:
        while len(bits) <= pos:
            bits.append(paths(Prefix(tuple(bits))).bit(0))
        return bits[pos]

    return Point(rule, "assembled-path")


def wkl_from_seqwwkl_witness() -> Witness:
    """WKL <= Seq(1/2-WWKL): one tracking tree per finite string.

    The extendibility predicate is informative about sigma's children
    only at node depths past |sigma|+1, so the path solver probes the
    tracking trees twice as deep as the verified horizon, depth 3.
    """
    target = seq(wwkl_spec(Fraction(1, 2), path_depth=3, solve_depth=6))

    def fstep(ctx, x):
        # column col is the tracking tree of the string with index col, over
        # the sweep's one decoded S; the instance bits are fixed, so the
        # trees and their memoized answers persist across the sweep
        col, pos = cantor_unpair(x)
        scratch = ctx.scratch
        member = scratch.get(col)  # column col's tracking tree, parked under col
        if member is None:
            if "s" not in scratch:
                scratch["s"] = TreeByRule.from_tape(ctx.tape(0), "S")
            member = scratch[col] = half_measure_tree(scratch["s"], index_string(col)).index_member
        return 1 if member(pos) else 0

    forward = pointwise(1, fstep, "seqwwkl-family")

    def bstep(ctx, x):
        idx = 0
        for _ in range(x + 1):
            b = ctx.query(0, cantor_pair(idx, 0))
            idx = 2 * idx + 1 + b
        return b

    backward = pointwise(1, bstep, "assemble-path")
    return Witness(wkl_spec(path_depth=3), target, forward, backward, "strong",
                   label="WKL<=Seq(1/2-WWKL)")


# ---------------------------------------------------------------------------
# measure blow-up


@dataclass
class Blowup:
    tree: TreeByRule
    path_map: object  # Functional sending S-paths to T-paths
    shifts: list[Prefix]  # the minimal non-members glued over


def _identity_blowup(t: TreeByRule) -> Blowup:
    return Blowup(t, identity_functional(), [])


def blowup_once(t: TreeByRule, p: Fraction, eps: Fraction, depth: int) -> Blowup:
    """Glue copies of t over minimal non-members until the complement is
    at most (1+eps)(1-p)^2; every path of the result computes a path of t
    by dropping the matched shift."""
    if p >= 1:
        return _identity_blowup(t)
    delta = (1 - (1 + eps) * (1 - p)) / p
    if delta <= 0:
        delta = Fraction(1, 2)
    target_mass = delta * (1 - p)
    shifts: list[Prefix] = []
    mass = Fraction(0)
    for d in range(1, depth + 1):
        if mass >= target_mass:
            break
        for bits in itertools.product((0, 1), repeat=d):
            sigma = Prefix(bits)
            if sigma not in t and Prefix(bits[:-1]) in t:
                shifts.append(sigma)
                mass += Fraction(1, 2 ** d)
                if mass >= target_mass:
                    break
    if mass < target_mass:
        raise ResourceError(
            f"not enough minimal non-members within depth {depth}",
            needed=str(target_mass), found=str(mass),
        )

    cuts = [(len(sh.bits), sh.bits) for sh in shifts]

    def member(sigma: Prefix) -> bool:
        if sigma in t:
            return True
        bits = sigma.bits
        for n, sh in cuts:  # a shorter sigma's slice is shorter than sh
            if bits[:n] == sh and Prefix(bits[n:]) in t:
                return True
        return False

    s = TreeByRule(member, f"blowup({t.label})")
    max_len = max(n for n, _ in cuts)

    def pstep(ctx, x):
        head = tuple([ctx.query(0, i) for i in range(max_len)])
        for n, sh in cuts:
            if head[:n] == sh:
                return ctx.query(0, x + n)
        return ctx.query(0, x)

    return Blowup(s, pointwise(1, pstep, "drop-shift"), shifts)


def blowup_tree(t: TreeByRule, p: Fraction, q: Fraction, depth: int) -> Blowup:
    """Iterate the one-step blow-up, with eps = 1/10, until the level
    measure reaches q; more than 8 rounds is a ResourceError."""
    if not (0 < p < 1 and 0 < q < 1):
        raise InputError("need 0 < p, q < 1")
    if p >= q:
        return _identity_blowup(t)
    cur = _identity_blowup(t)
    for _ in range(8):
        mu = measure_at_level(cur.tree, depth)
        if mu >= q:
            return cur
        step = blowup_once(cur.tree, mu, Fraction(1, 10), depth)
        cur = Blowup(step.tree,
                     compose_functionals(cur.path_map, step.path_map, "blowup-chain"),
                     cur.shifts + step.shifts)
    mu = measure_at_level(cur.tree, depth)
    if mu >= q:
        return cur
    raise ResourceError("blow-up did not reach the target measure",
                        reached=str(mu), target=str(q))


# ---------------------------------------------------------------------------
# thin-set constructions


def ts_step_coloring(m: int, n: int, k: int, f: Coloring) -> Coloring:
    """Group n blocks of size m behind a pivot; the color is the base-k
    digit string of the pivot-block colors."""
    if f.arity != m + 1 or f.colors != k:
        raise InputError(f"need an arity-{m + 1} coloring with {k} colors")

    def rule(z):
        x = z[0]
        digits = []
        for i in range(n):
            block = z[1 + i * m : 1 + (i + 1) * m]
            digits.append(f.value((x,) + block))
        return sum(d * k**i for i, d in enumerate(digits))

    return Coloring(m * n + 1, k**n, rule, f"step({f.label})")


# "infinitely many" at desk scale: at least this many witnesses within the horizon
_WITNESS_THRESHOLD = 3


def ts_step_extract(f: Coloring, m: int, n: int, k: int, members, avoided: tuple,
                    horizon: int):
    """Recover an f-thin set from a g-thin set, per the staged argument.

    Returns (members, omitted, detail) or None when the witness threshold
    is unmet (the 'infinitely many' hypotheses run dry at this horizon).
    """
    if len(avoided) != n:
        raise InputError(f"avoided tuple must have {n} digits")
    h = sorted(y for y in members if y < horizon)
    g = ts_step_coloring(m, n, k, f)
    merged = sum(a * k**i for i, a in enumerate(avoided))
    v = verify_thin_at(g, ThinSolution.of(h, merged), horizon, 1)
    if v.failed:
        raise InputError(f"the given set is not thin for the grouped coloring: {v.detail}")
    if n == 1:
        return list(h), avoided[0], "trivial at n=1"
    best_i = None
    for i in range(n - 1, -1, -1):
        witnesses = [x for x in h if _least_chain_top(f, m, avoided, i, x, h) is not None]
        if len(witnesses) >= _WITNESS_THRESHOLD:
            best_i = i
            break
    if best_i is None:
        blocked = [x for x in h if _least_chain_top(f, m, avoided, 0, x, h) is not None]
        rest = [x for x in h if x not in blocked]
        if len(rest) < _WITNESS_THRESHOLD:
            return None
        return rest, avoided[0], "degenerate: no pivot reaches the first digit"
    if best_i == n - 1:
        raise InputError("full digit chains exist inside the set; it is not thin")
    # drop pivots whose chain can continue into the next digit
    good = []
    for x in h:
        if _least_chain_top(f, m, avoided, best_i, x, h) is None:
            good.append(x)
            continue
        if _least_chain_top(f, m, avoided, best_i + 1, x, h) is None:
            good.append(x)
    sequence = []
    lo = -1
    pool = good
    while True:
        nxt = None
        for x in pool:
            if x > lo and _least_chain_top(f, m, avoided, best_i, x, pool) is not None:
                nxt = x
                break
        if nxt is None:
            break
        sequence.append(nxt)
        # leave room for the witnessing blocks before the next pivot
        chain_top = _least_chain_top(f, m, avoided, best_i, nxt, pool)
        lo = chain_top if chain_top is not None else nxt
    if len(sequence) < _WITNESS_THRESHOLD:
        return None
    return sequence, avoided[best_i + 1], f"pivot digit {best_i}"


def _least_chain_top(f: Coloring, m: int, avoided, i: int, x: int, pool):
    """The top y_i of the first chain y_0 < ... < y_i in the pool above x
    with f(x, y_j) = a_j, in search order; None when there is no chain."""
    # depth first: blocks[j] holds the untried blocks for y_j above y_{j-1}
    blocks = [itertools.combinations([y for y in pool if y > x], m)]
    while blocks:
        level = len(blocks) - 1
        for combo in blocks[level]:
            if f.value((x,) + combo) == avoided[level]:
                if level == i:
                    return combo[-1]
                blocks.append(itertools.combinations([y for y in pool if y > combo[-1]], m))
                break
        else:
            blocks.pop()
    return None


def ts_aca_coloring(n: int, f: Callable[[int], int]) -> Coloring:
    """Interval-hitting coloring for an injection: bit i says some z
    strictly between x_i and x_{i+1} has f(z) below x_0."""

    def rule(t):
        x0 = t[0]
        v = 0
        for i in range(n):
            lo, hi = t[i], t[i + 1]
            if any(f(z) < x0 for z in range(lo + 1, hi)):
                v |= 1 << i
        return v

    return Coloring(n + 2, 2**n, rule, "aca-coloring")


def ts_aca_largest_index(g: Coloring, members, b: int, horizon: int) -> int:
    """Largest index m such that tuples matching the first m avoided bits
    keep appearing (witness-count threshold within the horizon)."""
    n = g.arity - 2
    h = sorted(x for x in members if x < horizon)
    best = 0
    for m in range(n, -1, -1):
        count = 0
        for t in itertools.combinations(h, n + 2):
            v = g.value(t)
            if all((v >> i) & 1 == (b >> i) & 1 for i in range(m)):
                count += 1
                if count >= _WITNESS_THRESHOLD:
                    break
        if count >= _WITNESS_THRESHOLD:
            best = m
            break
    return best


def ts_aca_range_query(f: Callable[[int], int], g: Coloring, members, b: int, m: int,
                       y: int, horizon: int) -> Optional[bool]:
    """Decide y in range(f) from a thin set avoiding b; None = inconclusive."""
    n = g.arity - 2
    h = sorted(x for x in members if x < horizon)
    for t in itertools.combinations(h, n + 2):
        if t[0] <= y:
            continue
        v = g.value(t)
        if all((v >> i) & 1 == (b >> i) & 1 for i in range(m)):
            x_m = t[m]
            return y in {f(z) for z in range(x_m + 1)}
    return None


def ts_pigeonhole_coloring(f: Coloring) -> Coloring:
    """Compare colors along pairs: 0 equal, 1 descending, 2 ascending."""
    if f.arity != 1:
        raise InputError("pigeonhole extraction starts from an arity-1 coloring")

    def rule(t):
        a, b = f.value((t[0],)), f.value((t[1],))
        if a == b:
            return 0
        return 1 if a > b else 2

    return Coloring(2, 3, rule, f"pigeon({f.label})")


def ts_pigeonhole_extract(f: Coloring, members, omitted: int, horizon: int):
    """From a thin set for the comparison coloring, stabilize and bucket."""
    if omitted == 0:
        raise InputError(
            "omitting 'equal' is impossible for an infinite set: some two "
            "elements share a color by pigeonhole"
        )
    h = sorted(x for x in members if x < horizon)
    if len(h) < 2:
        return None
    # omitted 1: f non-decreasing on h; omitted 2: non-increasing; either
    # way it stabilizes at the value of the last sampled elements
    m = f.value((h[-1],))
    if f.value((h[-2],)) != m:
        return None  # not yet stabilized at this horizon
    return [x for x in range(horizon) if f.value((x,)) == m], m


# --- the TS^3_3 pipeline ----------------------------------------------------


def _restrict_coloring(f: Coloring, base: list[int]) -> Coloring:
    return Coloring(f.arity, f.colors, lambda t: f.value(tuple(base[i] for i in t)),
                    f"{f.label}|H")


def _distinct_count_coloring(f: Coloring) -> Coloring:
    """A triangle's number of distinct f-colors, less one."""
    return Coloring(3, 3, lambda t: len({f.value((t[0], t[1])), f.value((t[0], t[2])),
                                         f.value((t[1], t[2]))}) - 1, "distinct-count")


def _agreement_coloring(f: Coloring, base: list[int]) -> Coloring:
    """The agreement pattern of a triangle of base indices under f: 0 when
    its three edges agree, 1 when only the two at its least vertex do, else 2."""

    def rule(t):
        x, y, z = (base[i] for i in t)
        a, b, c = f.value((y, z)), f.value((x, y)), f.value((x, z))
        return 0 if a == b == c else 1 if b == c else 2

    return Coloring(3, 3, rule, "agreement-collapsed")


def ts33_pipeline(f: Coloring, horizon: int, size: int):
    """Homogeneous set for a pair coloring, consuming thin-set oracles.

    Follows the staged case analysis: triangles by distinct-count, then
    the agreement pattern, then a min-homogeneous bucket split.  Returns
    (members, color, log) or (None, None, log) when inconclusive; log
    lists the stages' notes.
    """
    from .oracle import SearchBudget, find_thin

    if f.arity != 2:
        raise InputError("the pipeline consumes pair colorings")
    budget = SearchBudget(horizon=horizon, size=max(2 * size, 8))
    log: list[str] = []

    g = _distinct_count_coloring(f)
    h_set = None
    for c in (1, 2):
        res = find_thin(g, budget, omit=c)
        if res.found:
            h_set, g_omit = list(res.members), c
            break
    if h_set is None:
        log.append("no thin set for the distinct-count coloring at this budget")
        return None, None, log
    log.append(f"stage 1: thin set of size {len(h_set)} omitting distinct-count {g_omit}")

    def bucket_split(base: list[int], stage: str):
        for x in base:
            buckets: dict[int, list[int]] = {}
            for y in base:
                if y > x:
                    buckets.setdefault(f.value((x, y)), []).append(y)
            if not buckets:
                continue
            color, members = max(buckets.items(), key=lambda kv: (len(kv[1]), -kv[0]))
            if len(members) >= size:
                v = verify_homogeneous_at(f, members, horizon, size)
                if v.ok:
                    log.append(f"{stage}: bucket of f-color {color} above {x}")
                    return members, f.value((members[0], members[1]))
        return None

    if g_omit == 1:
        got = bucket_split(h_set, "stage 2 (no two-valued triangles)")
        if got:
            return got[0], got[1], log
        log.append("stage 2: all buckets below the size threshold")
        return None, None, log

    # g_omit == 2: triangles inside h never take three distinct colors,
    # so the four-way agreement pattern is exhaustive on h
    collapsed = _agreement_coloring(f, h_set)
    g_sub = None
    sub_size = min(len(h_set), max(size + 1, 5))
    for c in (1, 2):
        res = find_thin(collapsed, SearchBudget(horizon=len(h_set), size=sub_size), omit=c)
        if res.found:
            g_sub, h_omit = [h_set[i] for i in res.members], c
            break
    if g_sub is None:
        log.append("stage 3: no thin set for the agreement pattern")
        return None, None, log
    log.append(f"stage 3: subset of size {len(g_sub)} omitting agreement {h_omit}")

    if h_omit == 1:
        got = bucket_split(g_sub, "stage 4 (agreement class 1 omitted)")
        if got:
            return got[0], got[1], log
        log.append("stage 4: all buckets below the size threshold")
        return None, None, log

    # h_omit == 2 under the collapse means patterns 2 and 3 are both gone:
    # g_sub is min-homogeneous, so bucket by the stabilized row color
    fbar = {}
    ordered = sorted(g_sub)
    for pos, x in enumerate(ordered[:-1]):
        fbar[x] = f.value((x, ordered[pos + 1]))
    buckets: dict[int, list[int]] = {}
    for x, cval in fbar.items():
        buckets.setdefault(cval, []).append(x)
    if not buckets:
        log.append("stage 4: min-homogeneous set too small")
        return None, None, log
    color, members = max(buckets.items(), key=lambda kv: (len(kv[1]), -kv[0]))
    v = verify_homogeneous_at(f, members, horizon, min(size, len(members)))
    if v.ok and len(members) >= size:
        log.append(f"stage 4: min-homogeneous bucket of color {color}")
        return members, color, log
    log.append("stage 4: bucket verification failed or too small")
    return None, None, log


# --- cube colorings for pairs -------------------------------------------------

CUBE_MERGES = ("none", "transitive-pair", "hereditary-pairs")


def cube_classes(merge: str) -> list[frozenset]:
    """Color classes of the triple-pattern coloring under the given merge."""
    if merge not in CUBE_MERGES:
        raise InputError(f"merge must be one of {CUBE_MERGES}")
    singles = [frozenset([t]) for t in itertools.product((0, 1), repeat=3)]
    if merge == "none":
        groups = singles
    elif merge == "transitive-pair":
        pair = frozenset([(0, 1, 0), (1, 0, 1)])
        groups = [g for g in singles if not g <= pair] + [pair]
    else:
        g1 = frozenset([(0, 1, 0), (1, 1, 0)])
        g2 = frozenset([(1, 0, 1), (0, 0, 1)])
        groups = [g for g in singles if not (g <= g1 or g <= g2)] + [g1, g2]
    return sorted(groups, key=lambda g: min(a + 2 * b + 4 * c for (a, b, c) in g))


def ts3_cube_coloring(f: Coloring, merge: str = "none") -> tuple[Coloring, list[frozenset]]:
    """Triple pattern (f(y,z), f(x,z), f(x,y)), with optional class merges."""
    if f.arity != 2 or f.colors != 2:
        raise InputError("cube colorings start from 2-colorings of pairs")
    classes = cube_classes(merge)
    of = {t: i for i, grp in enumerate(classes) for t in grp}

    def rule(t):
        x, y, z = t
        return of[(f.value((y, z)), f.value((x, z)), f.value((x, y)))]

    return Coloring(3, len(classes), rule, f"cube[{merge}]({f.label})"), classes


_CASE1 = {(0, 0, 0): 0, (1, 0, 0): 0, (1, 1, 1): 1, (0, 1, 1): 1}


def cube_dispatch(avoided: frozenset) -> tuple[str, str]:
    """Route an avoided class to (solver, structural property)."""
    if len(avoided) == 1:
        t = next(iter(avoided))
        if t in _CASE1:
            return "STRIV", "semi-trivial"
        if t in ((0, 1, 0), (1, 0, 1)):
            return "CAC", "semi-transitive"
        return "SHER", "semi-hereditary"
    if avoided == frozenset([(0, 1, 0), (1, 0, 1)]):
        return "ADS", "transitive"
    return "SHER", "semi-hereditary"


def cube_solve(f: Coloring, members, avoided: frozenset, horizon: int, size: int):
    """Check the dispatched structural property, then solve by brute force.

    The sub-solvers are finite brute-force searches; the content is that
    the structural property provably holds on the thin set.
    """
    from .oracle import SearchBudget, find_homogeneous, structural_check

    solver, prop = cube_dispatch(avoided)
    h = sorted(x for x in members if x < horizon)
    sv = structural_check(f, h, prop)
    if not sv.holds:
        raise ContractError(f"avoided {sorted(avoided)} promises {prop} but: {sv.detail}")
    restricted = _restrict_coloring(f, h)
    res = find_homogeneous(restricted, SearchBudget(horizon=len(h), size=min(size, len(h))))
    got = [h[i] for i in res.members] if res.found else None
    return solver, prop, got


# ---------------------------------------------------------------------------
# squash configurations (the named acceptance trio)


def _dup_backward():
    return oblivious(pointwise(1, lambda ctx, x: ctx.query(0, x // 2), "dup"))


def _snd_forward():
    return oblivious(pointwise(1, lambda ctx, x: ctx.query(0, 2 * x + 1), "snd"))


def _projection_config(p: ProblemSpec, label: str) -> SquashConfig:
    """Q trivial over P: the forward projects the pair <A, B> to its P half B."""
    w = Witness(parallel_product(triv_spec(), p), p, _snd_forward(), _dup_backward(), "strong",
                label=f"<TRIV,{p.name}><={p.name}")
    return SquashConfig(q_spec=triv_spec(), witness=w, label=label)


def squash_config_trivial_q() -> SquashConfig:
    """Q trivial over P = RT^1_2."""
    return _projection_config(rt_spec(1, 2), "trivial-q-rt12")


def squash_config_coh() -> SquashConfig:
    """Q = P = COH with the interleaving witness."""
    return SquashConfig(q_spec=coh_spec(), witness=coh_interleave(2), label="coh-interleave")


def squash_config_projection() -> SquashConfig:
    """Pure plumbing: Q = P = TRIV."""
    return _projection_config(triv_spec(), "projection-toy")


SQUASH_CONFIGS: dict[str, Callable[[], SquashConfig]] = {
    "trivial-q-rt12": squash_config_trivial_q,
    "coh-interleave": squash_config_coh,
    "projection-toy": squash_config_projection,
}


# ---------------------------------------------------------------------------
# the entry registry


@dataclass
class CatalogEntry:
    """One catalog entry: its witness per grid point, and its own checks.

    `checks` runs once per grid point.  An entry whose checks read
    neither `params` nor `rng` may say so with `checks_read_grid=False`:
    `run_entry` then calls them once and repeats their rows per grid
    point.  A check that draws from `rng` must keep the default, since
    one call instead of one per point would shift the stream for
    everything after it.
    """

    id: str
    build: Optional[Callable[..., Witness]]  # params -> Witness (None: construction)
    grid: list[dict] = field(default_factory=list)
    checks: Optional[Callable] = None  # (params, rng, horizon, size) -> [SoundnessRow]
    description: str = ""
    checks_read_grid: bool = True

    def witnesses(self):
        if self.build is None:
            return []
        return [(params, self.build(**params)) for params in (self.grid or [{}])]


def _rows(name, pairs):
    return [SoundnessRow(name, check, PASS if ok else FAIL, detail)
            for check, ok, detail in pairs]


def _coh_structural_checks(params, rng, horizon, size):
    count = params.get("count", 2)
    w = coh_interleave(count)
    out = []
    for trial in range(3):
        if count == 2:
            a, b = Point.from_seed(rng.getrandbits(32)), Point.from_seed(rng.getrandbits(32))
            tape = interleave_tapes(a, b)
            img = w.forward_image(tape)
            ok = all(
                family_column(img, 2 * i + parity).bit(t)
                == family_column((a, b)[parity], i).bit(t)
                for i in range(8) for t in range(16) for parity in (0, 1)
            )
            out.extend(_rows(w.label, [(f"columns#{trial}", ok, "interleaved columns equal inputs")]))
        else:
            fams = [Point.from_seed(rng.getrandbits(32)) for _ in range(3)]
            pad = Point.zeros()
            img = w.forward_image(family_tape(lambda i: fams[i] if i < 3 else pad))
            ok = all(
                family_column(img, cantor_pair(a, b)).bit(t)
                == family_column(fams[a], b).bit(t)
                for a in range(3) for b in range(3) for t in range(12)
            )
            out.extend(_rows(w.label, [(f"columns#{trial}", ok, "pairing-indexed columns equal inputs")]))
    return out


def _wkl_measure_checks(params, rng, horizon, size):
    no11, first1 = HAND_TREES["no-11"](), HAND_TREES["first-bit"](1)
    w = wkl_interleave(2)
    tape = interleave_tapes(tree_to_point(no11), tree_to_point(first1))
    img = w.forward_image(tape, fuel=1 << 20)
    s = TreeByRule.from_tape(img, "interleaved")
    image_mu = level_measures(s, 12)
    no11_mu, first1_mu = level_measures(no11, 6), level_measures(first1, 6)
    rows = []
    for d in range(7):
        lhs, rhs = image_mu[2 * d], no11_mu[d] * first1_mu[d]
        rows.append((f"measure-d{d}", lhs == rhs, f"level {2 * d}: {lhs} = {rhs}"))
    deep = level_members(s, 8)
    split_ok = all(
        Prefix(sig.bits[0::2]) in no11 and Prefix(sig.bits[1::2]) in first1 for sig in deep
    )
    rows.append(("paths-split", split_ok, f"{len(deep)} depth-8 nodes split into member prefixes"))
    return _rows(w.label, rows)


def _seqwwkl_checks(params, rng, horizon, size):
    rows = []
    for label, tree in (
        ("full", HAND_TREES["full"]()),
        ("first-1", HAND_TREES["first-bit"](1)),
        ("no-11", HAND_TREES["no-11"]()),
    ):
        for sigma in (Prefix(), Prefix((1,)), Prefix((0, 1))):
            t = half_measure_tree(tree, sigma)
            ok = all(mu in (1, Fraction(1, 2)) for mu in level_measures(t, 8))
            rows.append((f"levels[{label}/{sigma!r}]", ok, "level counts are 2^m or 2^(m-1)"))
        paths = {}

        def path_for(sigma, tree=tree):
            key = sigma.bits
            if key not in paths:
                paths[key] = leftmost_path_point(half_measure_tree(tree, sigma), 8)
            return paths[key]

        c = assemble_path(path_for)
        v = verify_path_at(tree, c, 10)
        rows.append((f"assembled[{label}]", v.ok, v.detail))
    return _rows("WKL<=Seq(1/2-WWKL)", rows)


def _blowup_checks(params, rng, horizon, size):
    first1 = HAND_TREES["first-bit"](1)
    p, eps = Fraction(1, 2), Fraction(1, 10)
    blown = blowup_once(first1, p, eps, depth=8)
    rows = []
    deep = level_members(blown.tree, 8)
    complement = 1 - Fraction(len(deep), 1 << 8)
    bound = (1 + eps) * (1 - p) ** 2
    rows.append(("complement", complement <= bound, f"{complement} <= {bound}"))
    for sigma in deep:
        src = Point.from_bits(sigma.bits, tail=1)
        img = FunctionalTape(blown.path_map, [src], DEFAULT_FUEL)
        shift = next((len(sh) for sh in blown.shifts if sigma.bits[: len(sh)] == sh.bits), 0)
        mapped = Prefix(tuple(img.bit(i) for i in range(8 - shift)))
        if mapped not in first1:
            rows.append((f"path[{sigma!r}]", False, "mapped path leaves the base tree"))
            break
    else:
        rows.append(("paths", True, "all depth-8 paths map into the base tree"))
    identity = blowup_tree(first1, Fraction(1, 2), Fraction(1, 4), depth=6)
    rows.append(("identity-when-p>=q", identity.tree is first1, "S = T when p >= q"))
    reach = blowup_tree(first1, Fraction(1, 2), Fraction(3, 4), depth=8)
    reached = measure_at_level(reach.tree, 8)
    rows.append(("target-reached", reached >= Fraction(3, 4), f"measure {reached}"))
    return _rows("blowup", rows)


def _squash_checks(cfg_name):
    def run(params, rng, horizon, size):
        cfg = SQUASH_CONFIGS[cfg_name]()
        h = params.get("horizon", 16)
        ms = squash_markers(cfg, h + 6)
        rows = [("markers", all(ms[s + 1] > s for s in range(len(ms) - 1)),
                 f"{ms.markers[:8]}... strictly above the stage")]
        fam_a = Point.from_seed(rng.getrandbits(32))
        fam_b = Point.from_seed(rng.getrandbits(32))
        ms2 = squash_markers(SQUASH_CONFIGS[cfg_name](), h + 6)
        rows.append(("instance-independent", ms.markers == ms2.markers,
                     "byte-identical markers on a rebuilt config"))
        for tag, fam in (("A", fam_a), ("B", fam_b)):
            try:
                squash_forward(cfg, ms, fam, h, count=4)
                rows.append((f"identity[{tag}]", True, f"B_i = (C|m_i)^Phi(A_i,B_i+1) on {h}"))
            except (ContractError, ResourceError) as e:
                rows.append((f"identity[{tag}]", False, str(e)))
        return _rows(f"squash[{cfg_name}]", rows)

    return run


def _ts_step_checks(params, rng, horizon, size):
    from .oracle import SearchBudget, find_thin

    rows = []
    parity = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity-sum")
    g = ts_step_coloring(1, 2, 2, parity)
    rows.append(("arity", g.arity == 3 and g.colors == 4, "pairs behind a pivot, base-2 digits"))
    res = find_thin(g, SearchBudget(horizon=14, size=7, node_limit=500_000))
    if not res.found:
        rows.append(("search", False, "no thin set for the grouped coloring"))
        return _rows("ts_step", rows)
    avoided = tuple((res.omitted >> i) & 1 for i in range(2))
    got = ts_step_extract(parity, 1, 2, 2, res.members, avoided, horizon=14)
    if got is None:
        rows.append(("extract", False, "witness threshold unmet"))
    else:
        members, omitted, how = got
        v = verify_thin_at(parity, ThinSolution.of(members, omitted), 14, min(3, len(members)))
        rows.append(("extract", v.ok, f"{how}; omits {omitted}: {v.detail}"))
    trivial = ts_step_extract(parity, 1, 1, 2, [0, 2, 4, 6], (1,), horizon=10)
    rows.append(("n1-trivial", trivial is not None and trivial[1] == 1,
                 "n=1 passes the set through"))
    corrupted = list(res.members) + [max(res.members) + 1]
    try:
        bad = ts_step_extract(parity, 1, 2, 2, corrupted, avoided, horizon=14)
        ok = bad is None
        detail = "corrupted set rejected or starved"
    except InputError as e:
        ok, detail = True, str(e)
    rows.append(("mutation", ok, detail))
    return _rows("ts_step", rows)


def _ts_aca_checks(params, rng, horizon, size):
    rows = []
    g_id = ts_aca_coloring(1, lambda z: z)
    all_zero = all(g_id.value(t) == 0 for t in itertools.combinations(range(8), 3))
    rows.append(("identity-injection", all_zero, "no z between x_i and x_{i+1} is below x_0"))
    h = list(range(2, 16))
    m = ts_aca_largest_index(g_id, h, b=1, horizon=16)
    answers = [ts_aca_range_query(lambda z: z, g_id, h, 1, m, y, 16) for y in range(2)]
    rows.append(("identity-range", answers == [True, True], f"m={m}: everything is in range"))
    g2 = ts_aca_coloring(1, lambda z: 2 * z)
    m2 = ts_aca_largest_index(g2, h, b=1, horizon=16)
    a3 = ts_aca_range_query(lambda z: 2 * z, g2, h, 1, m2, 3, 16)
    a4 = ts_aca_range_query(lambda z: 2 * z, g2, h, 1, m2, 4, 16)
    rows.append(("doubling", (a3, a4) == (False, True), f"y=3 out, y=4 in (m={m2})"))
    starved = ts_aca_range_query(lambda z: z, g_id, [0, 1], 1, 0, 5, 16)
    rows.append(("starved", starved is None, "no qualifying tuple above y"))
    return _rows("ts_aca", rows)


def _ts_pigeonhole_checks(params, rng, horizon, size):
    rows = []
    const = Coloring(1, 4, lambda t: 2, "const2")
    g = ts_pigeonhole_coloring(const)
    rows.append(("const", all(g.value(t) == 0 for t in itertools.combinations(range(8), 2)),
                 "equal colors everywhere"))
    par = Coloring(1, 2, lambda t: t[0] % 2, "par")
    rows.append(("case-table", ts_pigeonhole_coloring(par).value((0, 1)) == 2,
                 "f(0) < f(1) colors the pair 2"))
    capped = Coloring(1, 6, lambda t: min(t[0], 5), "cap5")
    got = ts_pigeonhole_extract(capped, range(5, 16), omitted=1, horizon=16)
    ok = got is not None and got[1] == 5 and got[0] == list(range(5, 16))
    rows.append(("stabilize", ok, "stabilized value 5; preimage is the tail"))
    try:
        ts_pigeonhole_extract(par, range(8), omitted=0, horizon=8)
        rows.append(("reject-equal", False, "omitting 'equal' must be rejected"))
    except InputError as e:
        rows.append(("reject-equal", True, str(e)[:60]))
    return _rows("ts_pigeonhole", rows)


def _ts33_checks(params, rng, horizon, size):
    rows = []
    const = Coloring(2, 3, lambda t: 1, "const1")
    members, color, log = ts33_pipeline(const, horizon=12, size=4)
    rows.append(("constant", members is not None and color == 1, "; ".join(log)))
    found = 0
    for trial in range(4):
        spec = rt_spec(2, 3)
        f = spec.decode(spec.sample_instance(rng))
        members, color, log = ts33_pipeline(f, horizon=16, size=4)
        if members is not None:
            found += 1
            v = verify_homogeneous_at(f, members, 16, 4)
            rows.append((f"sampled#{trial}", v.ok, f"color {color}; {log[-1]}"))
        else:
            rows.append((f"sampled#{trial}", True, "inconclusive: " + log[-1]))
    rows.append(("yield", found >= 3, f"{found}/4 sampled colorings solved end to end"))
    return _rows("ts33_pipeline", rows)


def _cube_checks(params, rng, horizon, size):
    rows = []
    rows.append(("classes-8", len(cube_classes("none")) == 8, "no merge: all 8 patterns"))
    rows.append(("classes-7", len(cube_classes("transitive-pair")) == 7, "dual pair merged"))
    rows.append(("classes-6", len(cube_classes("hereditary-pairs")) == 6, "two merges"))
    zero = Coloring(2, 2, lambda t: 0, "zero")
    g, classes = ts3_cube_coloring(zero, "none")
    avoided = next(c for c in classes if c == frozenset([(1, 1, 1)]))
    solver, prop, got = cube_solve(zero, range(14), avoided, 14, 4)
    rows.append(("zero-striv", solver == "STRIV" and got is not None,
                 f"dispatched {solver} ({prop})"))
    order = Coloring(2, 2, lambda t: 1 if (t[0] % 5) < (t[1] % 5) else 0, "mod-order")
    avoided = frozenset([(0, 1, 0)])
    thin_h = [x for x in range(14)]
    from .oracle import structural_check

    # only run the dispatch when the avoidance genuinely holds on the sample
    g2, _ = ts3_cube_coloring(order, "none")
    omit_id = next(i for i, c in enumerate(cube_classes("none")) if c == avoided)
    holds = all(g2.value(t) != omit_id for t in itertools.combinations(range(8), 3))
    if holds:
        solver, prop, got = cube_solve(order, range(8), avoided, 8, 3)
        rows.append(("semi-transitive", solver == "CAC", f"{prop} verified on all triples"))
    else:
        sv = structural_check(order, range(8), "semi-transitive")
        rows.append(("semi-transitive", True, f"avoidance fails on sample; prop holds: {sv.holds}"))
    g7, classes7 = ts3_cube_coloring(zero, "transitive-pair")
    vals = {g7.value(t) for t in itertools.combinations(range(10), 3)}
    rows.append(("seven-values", max(v for v in range(len(classes7))) == 6,
                 f"7 classes, sample used {len(vals)}"))
    try:
        bad = Coloring(2, 2, lambda t: (t[0] * t[1]) % 2, "prod")
        cube_solve(bad, range(10), frozenset([(0, 1, 0)]), 10, 3)
        dispatched_ok = structural_check(bad, range(10), "semi-transitive").holds
        rows.append(("contract", dispatched_ok, "structural property held"))
    except ContractError as e:
        rows.append(("contract", True, f"violation reported: {str(e)[:60]}"))
    return _rows("ts3_cube", rows)


ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry):
    ENTRIES[entry.id] = entry


_register(CatalogEntry(
    id="rt_color_embed",
    build=lambda n, j, k: rt_color_embed(n, j, k),
    grid=[{"n": 1, "j": 2, "k": 3}, {"n": 1, "j": 2, "k": 5}, {"n": 1, "j": 3, "k": 4},
          {"n": 2, "j": 2, "k": 3}],
    description="view a j-coloring as a k-coloring, identity both ways",
))
_register(CatalogEntry(
    id="rt_arity_lift",
    build=lambda m, n, k: rt_arity_lift(m, n, k),
    grid=[{"m": 1, "n": 2, "k": 2}, {"m": 1, "n": 2, "k": 3}],
    description="color long tuples by their leading entries",
))
_register(CatalogEntry(
    id="rt_product",
    build=lambda n, j, k: rt_product(n, j, k),
    grid=[{"n": 1, "j": 2, "k": 3}, {"n": 1, "j": 2, "k": 2}],
    description="solve two Ramsey instances with one jk-coloring",
))
_register(CatalogEntry(
    id="coh_interleave",
    build=lambda count=2: coh_interleave(count),
    grid=[{"count": 2}, {"count": "omega"}],
    checks=_coh_structural_checks,
    description="interleave set families; cohesive sets pass through",
))
_register(CatalogEntry(
    id="wkl_interleave",
    build=lambda count=2: wkl_interleave(count),
    grid=[{"count": 2}, {"count": "omega"}],
    checks=_wkl_measure_checks,
    description="interleave trees bitwise; paths split exactly",
    checks_read_grid=False,
))
_register(CatalogEntry(
    id="ts_collapse",
    build=lambda n, j, k: ts_collapse(n, j, k),
    grid=[{"n": 1, "j": 2, "k": 3}, {"n": 1, "j": 2, "k": 4}, {"n": 1, "j": 3, "k": 4},
          {"n": 1, "j": 2, "k": None}],
    description="collapse high colors; omitted color passes through",
))
_register(CatalogEntry(
    id="wkl_from_seqwwkl",
    build=lambda: wkl_from_seqwwkl_witness(),
    grid=[{}],
    checks=_seqwwkl_checks,
    description="tracking trees of measure 1 or 1/2 recover a path",
))
_register(CatalogEntry(
    id="fanout_identity",
    build=lambda s=2: fanout_rt(rt_color_embed(1, 2, 2), s),
    grid=[{"s": 1}, {"s": 2}],
    description="digit fan-out of the identity witness",
))
_register(CatalogEntry(
    id="blowup_tree",
    build=None,
    checks=_blowup_checks,
    description="glue shifted copies to raise tree measure",
))
_register(CatalogEntry(
    id="ts_step",
    build=None,
    checks=_ts_step_checks,
    description="group pivot blocks; extract a thin set for the next digit",
))
_register(CatalogEntry(
    id="ts_aca",
    build=None,
    checks=_ts_aca_checks,
    description="interval-hitting bits decide range membership",
))
_register(CatalogEntry(
    id="ts_pigeonhole",
    build=None,
    checks=_ts_pigeonhole_checks,
    description="order-comparison pairs stabilize a bounded coloring",
))
_register(CatalogEntry(
    id="ts33_pipeline",
    build=None,
    checks=_ts33_checks,
    description="staged homogeneous set from thin-set oracles",
))
_register(CatalogEntry(
    id="ts3_cube",
    build=None,
    checks=_cube_checks,
    description="triple patterns dispatch to order-theoretic sub-solvers",
))
for _name in SQUASH_CONFIGS:
    _register(CatalogEntry(
        id=f"squash_{_name.replace('-', '_')}",
        build=None,
        checks=_squash_checks(_name),
        description=f"squashing run for the {_name} configuration",
    ))


def run_entry(entry_id: str, rng: random.Random, samples: int, horizon: int, size: int,
              fuel: int = DEFAULT_FUEL) -> list[SoundnessRow]:
    """Generic soundness over the grid plus entry-specific checks.

    The checks run once per grid point, in grid order.  For an entry with
    `checks_read_grid=False` they run once, and their rows are repeated
    per grid point, so the report is the one a call per point would give.
    Nothing is kept from one call to the next.
    """
    if entry_id not in ENTRIES:
        raise InputError(f"unknown catalog entry {entry_id!r}; see `wred list`")
    entry = ENTRIES[entry_id]
    rows: list[SoundnessRow] = []
    for params, witness in entry.witnesses():
        per_arity = max(size, 4 * witness.source.params.get("n", 0))
        rows.extend(check_witness_soundness(witness, rng, samples, horizon, per_arity, fuel))
    if entry.checks is not None:
        grid = entry.grid or [{}]
        if entry.checks_read_grid:
            for params in grid:
                rows.extend(entry.checks(params, rng, horizon, size))
        else:
            rows.extend(entry.checks(grid[0], rng, horizon, size) * len(grid))
    return rows
