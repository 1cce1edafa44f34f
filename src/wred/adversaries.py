"""Stage-based diagonalization constructions, run against supplied
functionals, with exact rational bookkeeping and replayable logs.

Every run is deterministic given its inputs and budgets; the logs
serialize canonically so regression tests can pin them by digest.
Measures are Fractions throughout, and the per-stage multiplicative
identities the constructions promise are asserted, not assumed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .kernel import (
    DEFAULT_FUEL,
    ContractError,
    Diverge,
    Functional,
    FunctionalTape,
    InputError,
    Prefix,
    RuleTape,
    cantor_pair,
    pointwise,
)
from .problems import (
    Coloring,
    color_bit,
    color_block_width,
    read_color,
    string_index,
)


# ---------------------------------------------------------------------------
# stage logs


class StageRecord(NamedTuple):
    stage: int
    case: str
    detail: str = ""
    acted_for: tuple = ()
    alpha: tuple = ()
    measure_before: Optional[Fraction] = None
    measure_after: Optional[Fraction] = None
    image_measure: Optional[Fraction] = None

    def as_row(self) -> tuple:
        frac = lambda v: "" if v is None else f"{v.numerator}/{v.denominator}"
        return (
            self.stage,
            self.case,
            self.detail,
            " ".join(map(str, self.acted_for)),
            "".join(map(str, self.alpha)),
            frac(self.measure_before),
            frac(self.measure_after),
            frac(self.image_measure),
        )


class StageLog:
    HEADER = ("stage", "case", "detail", "acted_for", "alpha",
              "measure_before", "measure_after", "image_measure")

    def __init__(self, records: Optional[list[StageRecord]] = None):
        self.records = [] if records is None else records

    def add(self, rec: StageRecord) -> None:
        if self.records and rec.stage < self.records[-1].stage:
            raise InputError("stage log is append-only")
        self.records.append(rec)

    def action_stages(self) -> list[StageRecord]:
        return [r for r in self.records if r.case == "2" or r.case == "action"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(self.HEADER)
        out.writerows(r.as_row() for r in self.records)
        return buf.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


# ---------------------------------------------------------------------------
# the q-WWKL measure cutter


class CutTree:
    """A leveled tree given by disjoint-support pattern exclusions.

    A string sigma survives a constraint (t, xs, alpha) unless it is
    longer than t and matches alpha on the positions xs; constraints from
    different stages use disjoint positions, so level counts multiply
    exactly.  `level_count` raises ContractError when two constraints, or
    one constraint's xs, share a position; membership stays defined.

    On string indices, with hi = max(xs), `_masks` holds (max(t, hi), hi,
    mask, pat) per constraint: index idx at length n > max(t, hi) is cut iff
    ((idx + 1) >> (n - 1 - hi)) & mask == pat, mask and pat having bit hi - x
    set for each x in xs, pat only where alpha is 1.
    """

    def __init__(self, height: int = 0, constraints: Optional[list] = None):
        self.height = height
        self.constraints = [] if constraints is None else constraints  # (stage, xs, alpha)
        self._masks: list = []
        self._support = 0  # bit x: x is cut on
        self._shared: Optional[int] = None

    def __contains__(self, sigma: Prefix) -> bool:
        return self.index_member(string_index(sigma))

    def _add_masks(self) -> None:
        """Extend `_masks` by the constraints appended since, noting a shared position."""
        for t, xs, alpha in self.constraints[len(self._masks):]:
            for x in xs:
                if self._support >> x & 1:
                    self._shared = x
                self._support |= 1 << x
            hi = max(xs, default=-1)
            self._masks.append((max(t, hi), hi, sum(1 << (hi - x) for x in xs),
                                sum(a << (hi - x) for x, a in zip(xs, alpha))))

    def bit(self, pos: int) -> int:
        """The tree as a partial oracle, read live: 1 when the string with
        index pos (`string_index`) is in the tree, a gap beyond its height."""
        v = pos + 1  # a leading 1, then the string's bits
        n = v.bit_length() - 1
        if n > self.height:
            raise Diverge("gap", pos)
        masks = self._masks
        if len(masks) < len(self.constraints):
            self._add_masks()
        for above, hi, mask, pat in masks:
            if n > above and (v >> (n - 1 - hi)) & mask == pat:
                return 0
        return 1

    def index_member(self, idx: int) -> bool:
        """Whether the string with index idx (`string_index`) is in the tree."""
        return idx < (2 << self.height) - 1 and self.bit(idx) == 1

    def level_count(self, level: int) -> int:
        if len(self._masks) < len(self.constraints):
            self._add_masks()
        if self._shared is not None:
            raise ContractError(f"cut tree constraints share position {self._shared}: "
                                "level counts do not multiply")
        if level > self.height:
            return 0
        # 2^level times the product of 1 - 2^-len(xs) over the cuts below it
        kept, width = 1, 0
        for t, xs, _alpha in self.constraints:
            if t < level:
                kept *= (1 << len(xs)) - 1
                width += len(xs)
        total, rem = divmod(kept << level, 1 << width)
        if rem:
            raise ContractError(f"cut tree level {level} counts "
                                f"{Fraction(kept << level, 1 << width)}: its supports are too wide")
        return total

    def measure(self) -> Fraction:
        return Fraction(self.level_count(self.height), 2**self.height)


def _string_tape(v: int, n: int) -> RuleTape:
    """The string with index v - 1, of length n, as a tape that reads as
    `index_string(v - 1)` does: its bits, then a gap.  It keeps v, not a
    tuple of the bits."""

    def bit(pos: int) -> int:
        if pos < n:
            return v >> (n - 1 - pos) & 1
        raise Diverge("gap", pos)

    return RuleTape(bit)


def _converged(tape: FunctionalTape, x: int) -> Optional[int]:
    """The tape's bit at x, or None when its sweep stalls at or below x."""
    try:
        return tape.bit(x)
    except Diverge:
        return None


def least_cut_width(p: Fraction, q: Fraction) -> int:
    """Least a with 2^-a < q - p."""
    if not 0 < p < q < 1:
        raise InputError("need 0 < p < q < 1")
    a = 1
    while Fraction(1, 2**a) >= q - p:
        a += 1
    return a


class _ImageSweep:
    """The image point materialized in index order across stages.

    Output bits are produced position by position against the growing
    tree oracle; a converged bit read a fixed region, so it never has to
    be revisited when the oracle extends.  The image height is the
    deepest fully-converged level.  For the same reason an image level,
    once every bit of it has converged, never changes: each is grown once
    from the one above on string indices (children 2i+1, 2i+2) and kept.

    Each `advance` sweeps a fresh `FunctionalTape` that continues the kept
    bits, so one context per advance, and a gap ends it.  Not one tape for
    all stages: the tree oracle grows, so the next stage retries the gap on
    a fresh context, while a tape's stall is terminal, and so is that of
    any tape a composite parks in its context.
    """

    def __init__(self, phi: Functional, fuel: int):
        self.phi = phi
        self.fuel = fuel
        self.bits: list[int] = []
        self.levels: list[list[int]] = [[0]]  # members of each image level, by index

    def advance(self, oracle, upto_index: int) -> None:
        # the sweep continues where the last advance ended
        _converged(FunctionalTape(self.phi, [oracle], self.fuel, bits=self.bits), upto_index)

    def height(self, cap: int) -> int:
        n = 0
        while n < cap and len(self.bits) >= 2 ** (n + 2) - 1:
            n += 1
        return n

    def members(self, ell: int) -> list[int]:
        """The image's members of length ell as string indices, in order; needs ell <= height."""
        bits, levels = self.bits, self.levels
        while len(levels) <= ell:
            levels.append([c for m in levels[-1] for c in (2 * m + 1, 2 * m + 2)
                           if bits[c] == 1])
        return levels[ell]


def qwwkl_cutter(phi: Functional, psi: Functional, p: Fraction, q: Fraction,
                 stages: int, fuel: int = DEFAULT_FUEL):
    """Cut a tree of measure >= p so the image tree drops below measure q.

    Case 2 stages pick a pattern alpha agreed on by at least a 2^-a
    fraction of the image level and prune exactly that pattern from the
    tree: the measure multiplies by precisely 1 - 2^-a each time, and the
    log certifies it; a cut that does not is a ContractError.  Image
    levels are read no deeper than 12.

    A converged backward bit rests only on tau's bits below the sweep's
    use through it (the kernel's promise that `check_use_soundness`
    tests), and the tree is fixed within a stage.  So the bits of the last
    run whose use stays below the first bit where tau differs from that
    run's string hold for tau too: the run for tau continues after them on
    a fresh tape, as `_ImageSweep` continues its sweep, and when they reach
    the last of xs, tau takes their vote without a run.  A backward that
    reads nothing of tau (`zero`) runs once per stage that votes; one that
    reads through the level's last bit (`echo`) runs once per string, and
    steps the positions from the first differing bit on.
    """
    a = least_cut_width(p, q)
    if fuel < 0:
        raise InputError(f"need fuel >= 0, got {fuel}")
    tree = CutTree()
    log = StageLog()
    acted = 0  # the positions cut so far are 0 .. acted-1
    sweep = _ImageSweep(phi, fuel)
    mu_before = tree.measure()  # then the last stage's measure_after, the same tree

    for s in range(stages):
        cap = min(s, 12)
        sweep.advance(tree, 2 ** (cap + 1) - 2)
        n_s = sweep.height(cap)
        image = sweep.members(n_s)
        image_mu = Fraction(len(image), 2**n_s)
        xs = list(range(acted, acted + a))

        reason = None
        if image_mu < q:
            reason = f"image level {n_s} below q"
        if reason is None and xs[-1] >= s:
            reason = f"x_{a - 1} = {xs[-1]} not below the stage"
        votes = {}
        if reason is None:
            # an arity-2 backward also reads the construction's current
            # approximation; queries into the unfixed region diverge and
            # the stage is simply retried once more of the tree is fixed
            tapes_extra = [] if psi.arity == 1 else [tree]
            last = xs[-1]
            outs: list[int] = []  # the last run's bits at 0 .. last
            uses: list[int] = []  # its use of tau through each of them, nondecreasing
            ran = 0  # (tau + 1) of the last run's string; 0 before the first run
            for tau in image:
                # the strings agree below `same`, so do the bits that read only there
                same = n_s - ((tau + 1) ^ ran).bit_length()
                keep = bisect_left(uses, same)
                if keep <= last:
                    ran = tau + 1
                    outs, uses = outs[:keep], uses[:keep]
                    backward = FunctionalTape(psi, [_string_tape(ran, n_s)] + tapes_extra, fuel,
                                              bits=outs)
                    use, u = backward.ctx.use, uses[-1] if keep else -1
                    try:
                        for y in range(keep, last + 1):
                            backward.bit(y)
                            if use.get(0, -1) > u:
                                u = use[0]
                            uses.append(u)
                    except Diverge:
                        reason = (f"backward diverged on a level-{n_s} string at "
                                  f"{xs[max(0, len(outs) - xs[0])]}")
                        break
                    vals = tuple(outs[xs[0]:])
                votes[vals] = votes.get(vals, 0) + 1

        if reason is not None:
            tree.height = s + 1
            mu_after = tree.measure()
            log.add(StageRecord(s, "1", reason, measure_before=mu_before,
                                measure_after=mu_after, image_measure=image_mu))
            mu_before = mu_after
            continue

        threshold = Fraction(len(image), 2**a)
        alpha = min(t for t, c in votes.items() if c >= threshold)
        tree.constraints.append((s, tuple(xs), alpha))
        tree.height = s + 1
        acted += a
        mu_after = tree.measure()
        if mu_after != mu_before * (1 - Fraction(1, 2**a)):
            raise ContractError(f"cut bookkeeping broke the multiplicative identity at stage {s}: "
                                f"measure {mu_before} became {mu_after}")
        log.add(StageRecord(s, "2", f"acted with image count {len(image)} at level {n_s}",
                            acted_for=tuple(xs), alpha=alpha, measure_before=mu_before,
                            measure_after=mu_after, image_measure=image_mu))
        mu_before = mu_after
    return tree, log


# ---------------------------------------------------------------------------
# the thin-set color invalidation game


class TS1Result:
    def __init__(self, colors: list[int],  # f(0), f(1), ...
                 invalidated: list[int], log: StageLog,
                 assembled: Optional[list[int]] = None,  # T within the horizon
                 assembled_colors: Optional[set] = None):
        self.colors = colors
        self.invalidated = invalidated
        self.log = log
        self.assembled = assembled
        self.assembled_colors = assembled_colors


def _canonical_set(index: int) -> tuple:
    return tuple(i for i in range(index.bit_length()) if (index >> i) & 1)


def _set_prefix(members) -> Prefix:
    """A finite set's characteristic string, through its largest member."""
    return Prefix(tuple(1 if i in members else 0 for i in range(max(members, default=-1) + 1)))


def ts1_diagonalizer(phi: Functional, psi: Functional, j: int, k: int, stages: int,
                     fuel: int = DEFAULT_FUEL, horizon: int = 32) -> TS1Result:
    """Defeat a claimed TS^1_j <= TS^1_k reduction pair at finite scale.

    Colors are invalidated one at a time as the backward functional is
    caught asserting membership; at most j-1 action stages can fire, and
    the assembled set shows at most j of the k image colors while the
    backward image must mix source colors.  A stage tries the first 2^12
    canonical finite sets as anchors, and a set is assembled only on a
    homogeneous image tail of at least 4 members.
    """
    if not 2 <= j < k:
        raise InputError("need 2 <= j < k")
    w_j = color_block_width(j)
    colors: list[int] = []
    valid = list(range(j))
    f_sets: list[tuple] = []  # the homogeneous anchors F_0 < F_1 < ...
    invalidated: list[int] = []
    log = StageLog()

    def f_prefix_tape():
        return Prefix(tuple(color_bit(p, w_j, colors.__getitem__)
                            for p in range(len(colors) * w_j)))

    def image_color(image: FunctionalTape, x) -> Optional[int]:
        try:
            return read_color(image, k, x)
        except Diverge:
            return None

    psi_eval_budget = 512  # per stage; truncation is reported, never silent
    for s in range(1, stages + 1):
        acted = False
        truncated = False
        if len(f_sets) < j - 1 and colors:
            base = set()
            for fs in f_sets:
                base.update(fs)
            base_top = max(base) if base else -1
            image = FunctionalTape(phi, [f_prefix_tape()], fuel)
            img = {}
            evals = 0
            # a number is eligible only where the backward still diverges
            # on the anchors built so far; this is per-stage, not per-F
            eligible = []
            backward = FunctionalTape(psi, [_set_prefix(base)], fuel)
            for x in range(len(colors)):
                if colors[x] not in valid:
                    continue
                evals += 1
                if _converged(backward, x) is None:
                    eligible.append(x)
            for idx in range(1, 1 << 12):
                if acted or evals >= psi_eval_budget:
                    truncated = evals >= psi_eval_budget
                    break
                cand = _canonical_set(idx)
                if not cand or cand[-1] > s or cand[0] <= base_top:
                    continue
                vals = set()
                bad = False
                for m in cand:
                    if m not in img:
                        img[m] = image_color(image, m)
                    if img[m] is None:
                        bad = True
                        break
                    vals.add(img[m])
                if bad or len(vals) != 1:
                    continue
                backward = FunctionalTape(psi, [_set_prefix(base | set(cand))], fuel)
                for x in eligible:
                    evals += 1
                    if _converged(backward, x) == 1:
                        f_sets.append(cand)
                        dead = colors[x]
                        invalidated.append(dead)
                        valid.remove(dead)
                        log.add(StageRecord(s, "action",
                                            f"F_{len(f_sets) - 1}={cand} x={x} kills color {dead}",
                                            acted_for=cand))
                        acted = True
                        break
                    if evals >= psi_eval_budget:
                        break
        while len(colors) <= s:
            colors.append(valid[0])
        if not acted:
            note = "search truncated at the evaluation budget" if truncated else ""
            log.add(StageRecord(s, "wait", note or f"colors through {len(colors) - 1}"))

    # assemble T = union of anchors plus a homogeneous tail for the image
    result = TS1Result(colors, invalidated, log)
    image = FunctionalTape(phi, [f_prefix_tape()], fuel)
    image_vals = {}
    for x in range(horizon):
        if x < len(colors):
            image_vals[x] = image_color(image, x)
    start = (max(max(fs) for fs in f_sets) + 1) if f_sets else 0
    by_color: dict[int, list[int]] = {}
    for x in range(start, min(horizon, len(colors))):
        c = image_vals.get(x)
        if c is not None:
            by_color.setdefault(c, []).append(x)
    tail = max(by_color.values(), key=len, default=[])
    if len(tail) >= 4:
        t = sorted(set().union(*f_sets) | set(tail)) if f_sets else sorted(tail)
        result.assembled = t
        result.assembled_colors = {image_vals[x] for x in t if image_vals.get(x) is not None}
    return result


def ts1_backward_sample(psi: Functional, members, horizon: int,
                        fuel: int = DEFAULT_FUEL) -> list[int]:
    """Members the backward functional asserts on a finite set oracle (criterion 5)."""
    if not members:
        return []
    backward = FunctionalTape(psi, [_set_prefix(members)], fuel)
    return [x for x in range(horizon) if _converged(backward, x) == 1]


# ---------------------------------------------------------------------------
# the limit-guess color cycler


class Delta2Approx:
    """A total guesser g(e, i, b, s) -> {0,1} with optional declared limits."""

    def __init__(self, rule: Callable[[int, int, int, int], int],
                 limit: Optional[Callable[[int, int], int]] = None):  # declared lim_s g(e,i,b,s)
        self.rule = rule
        self.limit = limit


def delta2_diagonalizer(k: int, g: Delta2Approx, stages: int) -> tuple[list[Coloring], StageLog]:
    """The instance whose column e defeats the e-th limit-guessed set.

    Column i at stage s: with the approximated set's colors C_{i,s} =
    {f_i(b) : b < s, g(i, i, b, s) = 1}, pick the least missing color
    (case 1), or else the color whose first occurrence is latest (case 2).

    C_{i,s} is scanned one color at a time: for c = 0, 1, ..., the guesser
    is read at the positions b < s with f_i(b) = c, in ascending order,
    until one reads 1.  The first color with no such position is the
    least missing one; when every color has one, C_{i,s} holds all k.
    The guesser is a pure rule, so the order of the reads cannot change
    the answer, and each color's scan stops at or before the point where
    reading b = 0, 1, ... would have seen all k colors: no cell is read
    that such a scan would skip.  The color whose first occurrence is
    latest is the one whose position list became non-empty last.

    Columns run only as far as they are read.  The log needs f_i(i), so
    column i is scanned through stage i; a coloring's first read scans
    its column on through stage stages - 1.  Each column's scan resumes
    where it stopped, so no cell is read twice.
    """
    if k < 2:
        raise InputError("need at least 2 colors")
    rule = g.rule

    def column(i: int):
        """Column i's scan and its coloring rule: extend(t) runs the stages
        up to t and returns stage t's case and color; value finishes the
        scan before its first read of the column."""
        f_i: list[int] = []
        at: list[list[int]] = [[] for _ in range(k)]  # color -> its positions in f_i
        newest = 0  # the color whose first occurrence is latest

        def extend(through: int) -> tuple[str, int]:
            nonlocal newest
            for s in range(len(f_i), through + 1):
                for choice, positions in enumerate(at):
                    for b in positions:
                        if rule(i, i, b, s) == 1:
                            break
                    else:
                        case = "1"
                        break
                else:
                    choice = newest
                    case = "2"
                if not at[choice]:
                    newest = choice
                at[choice].append(s)
                f_i.append(choice)
            return case, choice

        def value(t: tuple[int]) -> int:
            if t[0] >= stages:
                return 0
            if len(f_i) < stages:
                extend(stages - 1)
            return f_i[t[0]]

        return extend, value

    log = StageLog()
    colorings = []
    for i in range(stages):
        extend, value = column(i)
        case, choice = extend(i)
        log.add(StageRecord(i, case, f"f_{i}({i}) = {choice}"))
        colorings.append(Coloring(1, k, value, f"diag[{i}]"))
    return colorings, log


def check_defeats(colorings: list[Coloring], g: Delta2Approx, e: int,
                  horizon: int) -> tuple[bool, str]:
    """Confirm the e-th declared limit set is finite or uses all colors.

    Fewer than 4 members below the horizon counts as finite.
    """
    if g.limit is None:
        raise InputError("defeat checking needs a declared limit")
    d_e = [b for b in range(horizon) if g.limit(e, b) == 1]
    if len(d_e) < 4:
        return True, f"D_{e} has only {len(d_e)} members below {horizon}"
    k = colorings[e].colors
    used = {colorings[e].value((b,)) for b in d_e}
    if used == set(range(k)):
        return True, f"all {k} colors occur on D_{e}"
    return False, f"colors {sorted(used)} only"


# ---------------------------------------------------------------------------
# rainbow adversaries


class CMResult:
    def __init__(self, coloring: Coloring,
                 trigger: Optional[tuple] = None):  # (x, y, sigma, stage)
        self.coloring = coloring
        self.trigger = trigger

    def excluded_pair(self):
        return self.trigger


# the rainbow adversaries try strings up to this length, and read each
# image below this position
_LEN_CAP, _OUT_BOUND = 6, 16


def _fresh_double_one(phi: Functional, sigma: Prefix, used=frozenset()):
    """Least x < y outside `used` with converged output 1 at both, on the string oracle."""
    image = FunctionalTape(phi, [sigma], DEFAULT_FUEL)
    ones = []
    for pos in range(_OUT_BOUND):
        v = _converged(image, pos)
        if v is None:
            break
        if v == 1 and pos not in used:
            ones.append(pos)
            if len(ones) == 2:
                return ones[0], ones[1]
    return None


def _strings():
    """The strings up to _LEN_CAP: shortest first, then in lexicographic order."""
    for length in range(_LEN_CAP + 1):
        for bits in itertools.product((0, 1), repeat=length):
            yield Prefix(bits)


def _glued(glue: dict, label: str) -> Coloring:
    """Fresh pairing colors, except that from its trigger on, a glued member
    takes its group's least member's color.

    `glue` maps each glued member to (its group's least member, trigger).
    """

    def rule(t):
        z, s = t
        if z in glue and s >= glue[z][1]:
            return cantor_pair(glue[z][0], s)
        return cantor_pair(z, s)

    return Coloring(2, None, rule, label)


def cm_coloring(phi: Functional) -> CMResult:
    """Glue one pair per stage once the functional shows two 1s.

    Colors are fresh pairing values except that, after the trigger, the
    two glued witnesses share a color forever; the coloring is 2-bounded
    and anything extending the trigger string computes both witnesses.
    The trigger is the first string of the search that shows two 1s.
    """
    for sigma in _strings():
        got = _fresh_double_one(phi, sigma)
        if got is not None:
            x, y = got
            stage = max(x, y, len(sigma)) + 1
            return CMResult(_glued({x: (x, stage), y: (x, stage)}, "cm-glued"),
                            (x, y, sigma, stage))
    return CMResult(_glued({}, "cm-untriggered"))


class CylinderSet:
    def __init__(self, strings: tuple, measure: Fraction,
                 used: tuple):  # (x, y) per string, in order
        self.strings = strings
        self.measure = measure
        self.used = used

    def overlaps(self, other: "CylinderSet") -> bool:
        """Whether a string of one set is comparable with one of the other;
        found cylinder sets must be disjoint (criterion 8)."""
        for a in self.strings:
            for b in other.strings:
                if a.is_prefix_of(b) or b.is_prefix_of(a):
                    return True
        return False


class ArbBoundsResult:
    def __init__(self, coloring: Coloring, cylinders: list[CylinderSet],
                 bound: int,  # the coloring is bound-bounded
                 triggers: list[int]):  # discovery stage per cylinder set
        self.coloring = coloring
        self.cylinders = cylinders
        self.bound = bound
        self.triggers = triggers


def rainbow_measure_coloring(phi: Functional, q: Fraction) -> ArbBoundsResult:
    """Collect disjoint cylinder sets of measure >= q on which the
    functional commits to two rainbow members, then glue those members.

    At most ceil(1/q) sets can ever be found: more would give disjoint
    subsets of total measure above 1, and are a ContractError.
    """
    if not 0 < q < 1:
        raise InputError("need 0 < q < 1")
    cylinders: list[CylinderSet] = []
    used_all: set[int] = set()

    while True:
        collected: list[Prefix] = []
        pairs: list[tuple] = []
        mass = Fraction(0)
        for sigma in _strings():
            if any(c.is_prefix_of(sigma) or sigma.is_prefix_of(c)
                   for cyl in cylinders for c in cyl.strings):
                continue
            if any(c.is_prefix_of(sigma) or sigma.is_prefix_of(c) for c in collected):
                continue
            fresh = _fresh_double_one(phi, sigma, used_all)
            if fresh is None:
                continue
            collected.append(sigma)
            pairs.append(fresh)
            mass += Fraction(1, 2 ** len(sigma))
            if mass >= q:
                break
        if mass < q:
            break
        for x, y in pairs:
            used_all.update((x, y))
        cylinders.append(CylinderSet(tuple(collected), mass, tuple(pairs)))
        if len(cylinders) > math.ceil(1 / q):
            raise ContractError(f"{len(cylinders)} disjoint cylinder sets of measure {q} or more: "
                                "more than the measure allows")

    triggers = []
    t = 0
    for cyl in cylinders:
        t = max(t + 1, max((max(u) for u in cyl.used), default=0) + 1,
                max(len(s) for s in cyl.strings) + 1)
        triggers.append(t)

    glue: dict[int, tuple[int, int]] = {}  # member -> (least used in its set, trigger)
    for cyl, trig in zip(cylinders, triggers):
        members = sorted({v for pair in cyl.used for v in pair})
        for v in members:
            glue[v] = (members[0], trig)

    bound = max((len({v for pair in cyl.used for v in pair}) for cyl in cylinders), default=1)
    return ArbBoundsResult(_glued(glue, f"arb-bounds(q={q})"), cylinders, bound, triggers)


def rrt_column_splitter(phi: Functional, columns: int) -> list[ArbBoundsResult]:
    """One arb-bounds run per column, at geometrically shrinking targets.

    Column j (0-indexed) restricts the functional to output column
    pair(0, j) and runs the cylinder search at q = 2^-(j+1), so the
    measure of sets solving column j shrinks below 2^-j as in the
    splitting argument.
    """
    if columns < 1:
        raise InputError("need at least one column")
    out = []
    for jcol in range(columns):
        col = cantor_pair(0, jcol)
        restricted = pointwise(1, lambda ctx, x, col=col: _inner_value(phi, ctx, x, col),
                               f"column[{col}]")
        out.append(rainbow_measure_coloring(restricted, Fraction(1, 2 ** (jcol + 1))))
    return out


def _inner_value(phi: Functional, ctx, x: int, col: int):
    return ctx.run(phi, [ctx.tape(0)], cantor_pair(x, col))
