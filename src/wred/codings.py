"""Information-coding colorings and explicit sequential solvers.

The decoders here never pretend to compute a jump: they are claim
checkers over finite certificates.  Test predicates must declare their
ground truth and stabilization/witness bounds, and the module audits the
declarations by brute force on the test domain before using them.
Acceptance criteria 6 and 8 and tests/test_codings.py check these
constructions; nothing else in the package calls them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .kernel import InputError
from .problems import Coloring, ThinSolution, verify_thin_at

TEST_DOMAIN = 24  # the predicates' audits quantify over [0, TEST_DOMAIN)


# ---------------------------------------------------------------------------
# bounded alternating predicates (the jump coding)


class BoundedPredicate:
    """phi(i, x_0..x_{n-1}) with declared ground truth on a test domain.

    Membership means the alternating statement (exists x0)(forall x1)...
    holds; the declaration is audited against brute-force bounded
    quantification over [0, TEST_DOMAIN).
    """

    def __init__(self, rule: Callable, depth: int, truth: Callable[[int], int],
                 label: str = "predicate"):
        self.rule = rule
        self.depth = depth
        self.truth = truth
        self.label = label


def _alternating(pred: BoundedPredicate, i: int, chosen: tuple, bound_list) -> bool:
    """Quantify the remaining variables below the given bounds."""
    j = len(chosen)
    if j == pred.depth:
        return bool(pred.rule(i, *chosen))
    bound = bound_list[j]
    vals = (_alternating(pred, i, chosen + (x,), bound_list) for x in range(bound))
    if j % 2 == 0:  # existential
        return any(vals)
    return all(vals)


def unbounded_truth(pred: BoundedPredicate, i: int) -> bool:
    """Brute-force the alternation over the whole test domain."""
    return _alternating(pred, i, (), [TEST_DOMAIN] * pred.depth)


def audit_predicate(pred: BoundedPredicate, indices) -> list[int]:
    """Indices where the declared truth disagrees with brute force (criterion 6)."""
    return [i for i in indices if bool(pred.truth(i)) != unbounded_truth(pred, i)]


def jump_coloring(pred: BoundedPredicate) -> Callable[[int], Coloring]:
    """Column i colors a tuple 1 when the bounded alternation holds below it (criterion 6)."""
    n = pred.depth

    def column(i: int) -> Coloring:
        def rule(ys):
            return 1 if _alternating(pred, i, (), list(ys)) else 0

        return Coloring(n, 2, rule, f"jump[{pred.label}#{i}]")

    return column


def membership_witness_bound(pred: BoundedPredicate, i: int) -> Optional[int]:
    """Least leading witness when i is a member (depth 1 or 2)."""
    if pred.depth == 1:
        for x0 in range(TEST_DOMAIN):
            if pred.rule(i, x0):
                return x0
        return None
    if pred.depth == 2:
        for x0 in range(TEST_DOMAIN):
            if all(pred.rule(i, x0, x1) for x1 in range(TEST_DOMAIN)):
                return x0
        return None
    raise InputError("witness bounds are implemented for depths 1 and 2")


def refutation_bound(pred: BoundedPredicate, i: int, x0: int) -> Optional[int]:
    """Least x1 refuting phi(i, x0, .) when i is a non-member (depth 2)."""
    for x1 in range(TEST_DOMAIN):
        if not pred.rule(i, x0, x1):
            return x1
    return None


def true_homogeneous_set(pred: BoundedPredicate, i: int, horizon: int,
                         size: int) -> list[int]:
    """A finite sample of a genuinely correct homogeneous set for column i.

    Members: a tail above the leading Skolem witness, where the bounded
    formula is already true.  Non-members at depth 2: the staircase that
    outruns the refutation bounds, so every pair computes 0 (criterion 6).
    """
    n, member = pred.depth, bool(pred.truth(i))
    if n == 1:
        if member:
            w0 = membership_witness_bound(pred, i)
            if w0 is None:
                raise InputError(f"{pred.label}: declared member {i} has no witness")
            return list(range(w0 + 1, max(w0 + 1 + size, horizon)))
        return list(range(0, max(size, min(horizon, TEST_DOMAIN))))
    if n == 2:
        if member:
            w0 = membership_witness_bound(pred, i)
            if w0 is None:
                raise InputError(f"{pred.label}: declared member {i} has no witness")
            return list(range(w0 + 1, max(w0 + 2 + size, horizon)))
        out = [0]
        while len(out) < size + 1:
            bounds = [refutation_bound(pred, i, x0) for x0 in range(out[-1] + 1)]
            if any(b is None for b in bounds):
                raise InputError(f"{pred.label}: declared non-member {i} lacks refutations")
            out.append(max(out[-1] + 1, max(bounds) + 1))
        return out
    raise InputError("homogeneous samples are implemented for depths 1 and 2")


def jump_decode(pred: BoundedPredicate, families: Callable[[int], Coloring],
                h_sets: Callable[[int], list], indices, horizon: int) -> dict[int, int]:
    """Read one membership bit per column off the homogeneous color (criterion 6)."""
    out = {}
    for i in indices:
        f_i = families(i)
        sample = sorted(x for x in h_sets(i) if x < horizon)
        tuples = list(itertools.combinations(sample, pred.depth))
        if not tuples:
            raise InputError(f"column {i}: sample too small for a tuple")
        colors = {f_i.value(t) for t in tuples}
        if len(colors) != 1:
            raise InputError(f"column {i}: sample is not homogeneous ({sorted(colors)})")
        out[i] = colors.pop()
    return out


# ---------------------------------------------------------------------------
# limit predicates (the Kummer coding)


class LimitPredicate:
    """h(i, y_0..y_{n-1}) whose iterated limit is a declared set D.

    Declared bounds make 'limit' finitely meaningful: past bound(i), the
    rows of column i are constant at D(i) (depth-1 case); the audit
    checks the declaration on the test domain.
    """

    def __init__(self, rule: Callable, depth: int, limit: Callable[[int], int],
                 bound: Callable[[int], int], label: str = "limit-predicate"):
        self.rule = rule
        self.depth = depth
        self.limit = limit
        self.bound = bound
        self.label = label


def audit_limit(pred: LimitPredicate, indices) -> list[int]:
    """Indices whose rule leaves the declared limit past its bound (criterion 6)."""
    if pred.depth != 1:
        raise InputError("limit audits are implemented at depth 1")
    bad = []
    for i in indices:
        b = pred.bound(i)
        if any(pred.rule(i, y) != pred.limit(i) for y in range(b, TEST_DOMAIN)):
            bad.append(i)
    return bad


def kummer_coloring(pred: LimitPredicate, k: int) -> Callable[[tuple], Coloring]:
    """The family member at xs counts which declared indices fire."""
    n = pred.depth

    def member(xs: tuple) -> Coloring:
        xs = tuple(sorted(xs))
        if len(xs) != k - 1:
            raise InputError(f"family indices are {k - 1}-element tuples")

        def rule(ys):
            return sum(1 for i in xs if pred.rule(i, *ys))

        return Coloring(n, k, rule, f"kummer[{xs}]")

    return member


def kummer_claim_check(pred: LimitPredicate, k: int, xs: tuple, members,
                       omitted: int, horizon: int):
    """The coded count occurs on the thin set and differs from its
    omitted color; built from the stabilization staircase (criterion 6)."""
    xs = tuple(sorted(xs))
    f = kummer_coloring(pred, k)(xs)
    sample = sorted(y for y in set(members) if y < horizon)
    v = verify_thin_at(f, ThinSolution.of(sample, omitted), horizon, 1)
    if v.failed:
        raise InputError(f"the given set is not thin: {v.detail}")
    s0 = max((pred.bound(i) for i in xs), default=0)
    stair = [y for y in sample if y > s0][: pred.depth]
    if len(stair) < pred.depth:
        return None, "the set is too sparse to host the staircase"
    target = sum(1 for i in xs if pred.limit(i))
    got = f.value(tuple(stair))
    if got != target:
        return False, f"staircase color {got} differs from the coded count {target}"
    if target == omitted:
        return False, f"coded count {target} equals the omitted color"
    return True, f"count {target} occurs on the set and is not omitted"


# ---------------------------------------------------------------------------
# explicit sequential solvers


def seq_rrt1_greedy(columns: Callable[[int], Coloring], count: int, size: int,
                    horizon: int):
    """One rainbow per column: each new element's color is fresh.

    Greedy-minimal: every element is the least eligible one.  Returns
    None for a column whose eligibility runs dry inside the horizon
    (which signals an unbounded fiber at this scale; criterion 8).
    """
    out = []
    for i in range(count):
        f = columns(i)
        if f.arity != 1:
            raise InputError("the greedy solver consumes arity-1 colorings")
        chosen: list[int] = []
        used: set[int] = set()
        for x in range(horizon):
            c = f.value((x,))
            if c not in used:
                chosen.append(x)
                used.add(c)
                if len(chosen) == size:
                    break
        out.append(chosen if len(chosen) == size else None)
    return out


def seq_ts1_omega_solver(columns: Callable[[int], Coloring], count: int, size: int,
                         horizon: int):
    """Thin sets with omitted color 0, chasing the nonzero support.

    The jump question 'is there b > a with f(b) != 0' is answered by
    search up to the horizon; when the support runs dry the set continues
    with consecutive integers and is trivially thin (the range is finite
    at this scale).  The simulation is disclosed in the note
    (test_seq_ts1_omega_mixed_support).
    """
    out = []
    for i in range(count):
        f = columns(i)
        picks: list[int] = []
        cur = -1
        for _ in range(size):
            nxt = next((b for b in range(cur + 1, horizon) if f.value((b,)) != 0), None)
            if nxt is None:
                nxt = cur + 1
            picks.append(nxt)
            cur = nxt
        attained = {f.value((b,)) for b in picks}
        if 0 not in attained:
            omitted, note = 0, "support-chasing"
        else:
            # the nonzero support ran dry: the range is finite at this
            # scale, so the set is trivially thin for a fresh color
            omitted = next(c for c in range(1, len(attained) + 2) if c not in attained)
            note = "trivially thin"
        out.append((picks, omitted, f"{note}; jump simulated by search below {horizon}"))
    return out


# ---------------------------------------------------------------------------
# limit lift (arity bump through stable approximations)


class StableApprox:
    """f_i(xs, s) with a declared stabilization bound on the test domain."""

    def __init__(self, rule: Callable,  # (i, xs tuple, s) -> color
                 arity: int,  # of the limit coloring
                 colors: int, stab: int, label: str = "approx"):
        self.rule = rule
        self.arity = arity
        self.colors = colors
        self.stab = stab
        self.label = label

    def limit_coloring(self, i: int) -> Coloring:
        return Coloring(self.arity, self.colors,
                        lambda xs: self.rule(i, xs, self.stab), f"lim[{self.label}#{i}]")

    def lifted_coloring(self, i: int) -> Coloring:
        def rule(t):
            xs, s = t[:-1], t[-1]
            return self.rule(i, tuple(xs), s)

        return Coloring(self.arity + 1, self.colors, rule, f"lift[{self.label}#{i}]")


def audit_stabilization(approx: StableApprox, i: int, domain: int) -> list:
    """Tuples where the rule still moves past the declared bound."""
    bad = []
    for xs in itertools.combinations(range(domain), approx.arity):
        want = approx.rule(i, xs, approx.stab)
        for s in range(approx.stab, domain + approx.stab):
            if approx.rule(i, xs, s) != want:
                bad.append((xs, s))
                break
    return bad


def limit_lift_transfer(approx: StableApprox, i: int, members, omitted: int,
                        horizon: int):
    """A thin set for the lifted coloring, restricted past stabilization,
    is thin for the limit coloring (test_codings.py::test_lift_thinness_transfer)."""
    if audit_stabilization(approx, i, min(horizon, 12)):
        raise InputError("stabilization bound violated on test data")
    lifted = approx.lifted_coloring(i)
    sample = sorted(x for x in set(members) if x < horizon)
    v = verify_thin_at(lifted, ThinSolution.of(sample, omitted), horizon, 1)
    if v.failed:
        raise InputError(f"not thin for the lifted coloring: {v.detail}")
    restricted = [x for x in sample if x >= approx.stab]
    limit = approx.limit_coloring(i)
    return restricted, verify_thin_at(limit, ThinSolution.of(restricted, omitted),
                                      horizon, 1)
