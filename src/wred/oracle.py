"""Brute-force finite solvers: the ground truth for every property test.

Deliberately naive.  Searches are exhaustive DFS under a node budget;
`find_rainbow` alone tries a greedy pass first, and every result records
which engine produced it.  Exhaustive results are canonical: the
returned set is lexicographically least among solutions of the requested
size.  A candidate joins a consistent set of smaller members, so each
predicate tests only the tuples the candidate adds (`_new_tuples`) and
reads an old color only to compare against it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .kernel import InputError, Prefix
from .problems import Coloring, TreeByRule, level_members


class SearchBudget:
    def __init__(self, horizon: int = 16, size: int = 4, node_limit: int = 200_000):
        self.horizon = horizon
        self.size = size
        self.node_limit = node_limit
        if self.horizon <= 0 or self.size <= 0 or self.node_limit <= 0:
            raise InputError("budget limits must be positive")


class SearchResult(NamedTuple):
    members: tuple = ()
    omitted: Optional[int] = None
    mode: str = "exhaustive"  # 'greedy' | 'exhaustive'
    nodes: int = 0
    exhausted: bool = False  # node limit hit: absence is NOT certified

    @property
    def found(self) -> bool:
        return bool(self.members)

    @property
    def inconclusive(self) -> bool:
        return not self.members and self.exhausted


def _dfs_extend(consistent, budget: SearchBudget) -> SearchResult:
    """Lexicographic DFS for a size-s subset of [0, N) passing `consistent`.

    `consistent(chosen, x)` judges adding x to an already-consistent
    chosen prefix, so the first solution found is the least one.  A level
    that runs out of candidates, of room or of nodes backs up: its parent
    drops its last choice and tries the next one, so after the node limit
    every open level spends one more node on its way out.
    """
    size, horizon, limit = budget.size, budget.horizon, budget.node_limit
    nodes = 0
    chosen: list[int] = []
    x = 0  # the next candidate for position len(chosen)
    while len(chosen) < size:
        if horizon - x >= size - len(chosen) and (nodes := nodes + 1) <= limit:
            if consistent(chosen, x):
                chosen.append(x)
            x += 1
        elif chosen:
            x = chosen.pop() + 1
        else:
            return SearchResult(mode="exhaustive", nodes=nodes, exhausted=nodes > limit)
    return SearchResult(tuple(chosen), mode="exhaustive", nodes=nodes)


def _new_tuples(chosen: list, x: int, n: int):
    """The n-tuples with x on top of chosen (all below x), lexicographic."""
    return (t + (x,) for t in itertools.combinations(chosen, n - 1))


def find_homogeneous(f: Coloring, budget: SearchBudget) -> SearchResult:
    """Least size-s subset of [0, N) monochromatic under f, if any."""
    n = f.arity

    def consistent(chosen, x):
        colors = {f.value(t) for t in _new_tuples(chosen, x, n)}
        if len(chosen) >= n:  # the old tuples share one color
            colors.add(f.value(tuple(chosen[:n])))
        return len(colors) <= 1

    return _dfs_extend(consistent, budget)


def find_thin(f: Coloring, budget: SearchBudget, omit: Optional[int] = None) -> SearchResult:
    """Least thin set with the least feasible omitted color attached."""
    if f.colors is not None and f.colors < 2:
        raise InputError("thin sets need at least 2 colors")
    color_range = [omit] if omit is not None else list(range(f.colors if f.colors is not None else 8))
    best: Optional[SearchResult] = None
    any_exhausted = False
    for c in color_range:

        def consistent(chosen, x, c=c):
            return all(f.value(t) != c for t in _new_tuples(chosen, x, f.arity))

        res = _dfs_extend(consistent, budget)
        any_exhausted |= res.exhausted
        if res.found:
            return SearchResult(res.members, omitted=c, mode=res.mode, nodes=res.nodes)
    return SearchResult(exhausted=any_exhausted)


def enumerate_thin(f: Coloring, budget: SearchBudget, limit: int = 50) -> list:
    """Up to `limit` thin solutions (all omitted colors, lexicographic sets)."""
    out = []
    kk = f.colors if f.colors is not None else 8
    for c in range(kk):
        for members in itertools.combinations(range(budget.horizon), budget.size):
            if all(f.value(t) != c for t in itertools.combinations(members, f.arity)):
                out.append(SearchResult(members, omitted=c))
                if len(out) >= limit:
                    return out
    return out


def find_rainbow(f: Coloring, budget: SearchBudget) -> SearchResult:
    """Greedy-first rainbow search with exhaustive fallback."""
    n = f.arity

    def consistent(chosen, x):
        new = [f.value(t) for t in _new_tuples(chosen, x, n)]
        fresh = set(new)
        return len(fresh) == len(new) and fresh.isdisjoint(
            map(f.value, itertools.combinations(chosen, n)))

    greedy: list[int] = []
    for x in range(budget.horizon):
        if consistent(greedy, x):
            greedy.append(x)
            if len(greedy) == budget.size:
                return SearchResult(tuple(greedy), mode="greedy", nodes=len(greedy))
    return _dfs_extend(consistent, budget)


def find_min_homogeneous(f: Coloring, budget: SearchBudget) -> SearchResult:
    """Set on which the color of a pair depends only on its minimum."""
    if f.arity != 2:
        raise InputError("min-homogeneity is defined for pair colorings")

    def consistent(chosen, x):
        # a's pairs in chosen share the color of (a, a's successor in chosen)
        for a, b in zip(chosen, chosen[1:] + [None]):
            c = f.value((a, x))
            if b is not None and c != f.value((a, b)):
                return False
        return True

    return _dfs_extend(consistent, budget)


def enumerate_paths(tree: TreeByRule, depth: int) -> list[Prefix]:
    """Exactly the members of the tree at the given level, lexicographic."""
    return level_members(tree, depth)


STRUCTURAL_PROPERTIES = ("transitive", "semi-transitive", "semi-hereditary", "semi-trivial")


class StructuralVerdict(NamedTuple):
    holds: bool
    witness: Optional[tuple] = None
    detail: str = ""


def structural_check(f: Coloring, members, prop: str) -> StructuralVerdict:
    """Exhaustive triple scan of a pair coloring restricted to `members`."""
    if f.arity != 2:
        raise InputError("structural properties are defined for pair colorings")
    if prop not in STRUCTURAL_PROPERTIES:
        raise InputError(f"unknown property {prop!r}")
    h = sorted(set(members))
    used_colors = {f.value(p) for p in itertools.combinations(h, 2)}

    def violators(condition):
        bad = {}
        for x, y, z in itertools.combinations(h, 3):
            c = condition(x, y, z)
            if c is not None and c not in bad:
                bad[c] = (x, y, z)
        return bad

    if prop in ("transitive", "semi-transitive"):
        bad = violators(
            lambda x, y, z: f.value((x, y))
            if f.value((x, y)) == f.value((y, z)) and f.value((x, z)) != f.value((x, y))
            else None
        )
        if prop == "transitive" and bad:
            c, w = next(iter(bad.items()))
            return StructuralVerdict(False, witness=w, detail=f"color {c} not transitive at {w}")
    elif prop == "semi-hereditary":
        bad = violators(
            lambda x, y, z: f.value((x, z))
            if f.value((x, z)) == f.value((y, z)) and f.value((x, y)) != f.value((x, z))
            else None
        )
    else:
        # semi-trivial: for all colors but possibly one, every {y > x : f(x,y) = i}
        # restricted to the sample is homogeneous
        bad = {}
        for i in sorted(used_colors):
            for x in h:
                ys = [y for y in h if y > x and f.value((x, y)) == i]
                vals = {f.value(p) for p in itertools.combinations(ys, 2)}
                if len(vals) > 1:
                    bad[i] = (x, tuple(ys))
                    break
    if len(bad) <= 1:
        return StructuralVerdict(True)
    return StructuralVerdict(False, witness=bad[min(bad)], detail=f"colors {sorted(bad)} all fail")
