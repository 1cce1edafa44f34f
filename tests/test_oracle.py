import itertools

import pytest

from wred.kernel import InputError, Point, Prefix, tuple_rank
from wred.oracle import (
    SearchBudget,
    SearchResult,
    _dfs_extend,
    enumerate_paths,
    enumerate_thin,
    find_homogeneous,
    find_min_homogeneous,
    find_rainbow,
    find_thin,
    structural_check,
)
from wred.problems import HAND_TREES, Coloring, TreeByRule, read_color

PARITY = Coloring(2, 2, lambda t: (t[0] + t[1]) % 2, "parity")
CONST = Coloring(2, 3, lambda t: 1, "const1")
MOD3 = Coloring(1, 3, lambda t: t[0] % 3, "mod3")


def test_homogeneous_constant():
    res = find_homogeneous(CONST, SearchBudget(horizon=10, size=4))
    assert res.members == (0, 1, 2, 3)


def test_homogeneous_parity_is_evens():
    res = find_homogeneous(PARITY, SearchBudget(horizon=8, size=4))
    assert res.members == (0, 2, 4, 6)


def test_homogeneous_pigeonhole_absence_certified():
    res = find_homogeneous(Coloring(1, 2, lambda t: t[0] % 2, "par1"), SearchBudget(horizon=8, size=9))
    assert not res.found and not res.inconclusive  # absence certified, budget not hit


def test_thin_least_feasible_color_first():
    # colors are searched in order, so omitted color 0 wins for x mod 3
    res = find_thin(MOD3, SearchBudget(horizon=9, size=6))
    assert res.omitted == 0 and res.members == (1, 2, 4, 5, 7, 8)


def test_thin_two_colorings_are_homogeneous_sets():
    # for k=2, a set is thin iff it is homogeneous (for the other color)
    f = Coloring(1, 2, lambda t: t[0] % 2, "par1")
    thin = find_thin(f, SearchBudget(horizon=8, size=4))
    assert len({f.value((x,)) for x in thin.members}) == 1
    hom = find_homogeneous(f, SearchBudget(horizon=8, size=4))
    omitted = 1 - f.value((hom.members[0],))
    assert all(f.value((x,)) != omitted for x in hom.members)


def test_thin_targeted_color():
    res = find_thin(MOD3, SearchBudget(horizon=9, size=6), omit=2)
    assert res.omitted == 2 and res.members == (0, 1, 3, 4, 6, 7)


def test_thin_infeasible_budget_inconclusive():
    f = Coloring(1, 2, lambda t: t[0] % 2, "par1")
    res = find_thin(f, SearchBudget(horizon=6, size=4, node_limit=1))
    assert not res.found and res.inconclusive


def test_enumerate_thin_all_verify():
    out = enumerate_thin(MOD3, SearchBudget(horizon=9, size=5), limit=30)
    assert out
    for r in out:
        assert all(MOD3.value((x,)) != r.omitted for x in r.members)


def test_rainbow_injective_greedy():
    inj = Coloring(2, None, tuple_rank, "rank")
    res = find_rainbow(inj, SearchBudget(horizon=8, size=5))
    assert res.members == (0, 1, 2, 3, 4) and res.mode == "greedy"


def test_rainbow_constant_none():
    res = find_rainbow(Coloring(1, None, lambda t: 0, "c0"), SearchBudget(horizon=6, size=2))
    assert not res.found and not res.inconclusive


def test_paths_full_and_fibonacci_and_dead():
    assert len(enumerate_paths(TreeByRule.full(), 3)) == 8
    no11 = HAND_TREES["no-11"]()
    assert len(enumerate_paths(no11, 4)) == 8  # Fibonacci count F(6)
    dead = TreeByRule(lambda s: len(s) == 0, "dead")
    assert enumerate_paths(dead, 2) == []


def test_paths_lexicographic():
    got = enumerate_paths(TreeByRule.full(), 2)
    assert got == [Prefix(b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]


def test_min_homogeneous_min_dependent():
    f = Coloring(2, 3, lambda t: t[0] % 3, "by-min")
    res = find_min_homogeneous(f, SearchBudget(horizon=8, size=4))
    assert res.members == (0, 1, 2, 3)


def test_min_homogeneous_parity_example():
    res = find_min_homogeneous(PARITY, SearchBudget(horizon=8, size=4))
    assert res.members == (0, 1, 3, 5)


def test_structural_constant_passes_all():
    const = Coloring(2, 2, lambda t: 1, "const")
    h = range(8)
    for prop in ("transitive", "semi-transitive", "semi-hereditary", "semi-trivial"):
        assert structural_check(const, h, prop).holds


def test_structural_linear_order_transitive():
    order = [3, 0, 5, 1, 7, 2, 6, 4]
    pos = {v: i for i, v in enumerate(order)}
    f = Coloring(2, 2, lambda t: 1 if pos[t[0]] < pos[t[1]] else 0, "order")
    assert structural_check(f, range(8), "transitive").holds


def test_structural_broken_triple_fails_with_witness():
    f = Coloring(2, 2, lambda t: 0 if t != (0, 2) else 1, "broken")
    v = structural_check(f, range(4), "transitive")
    assert not v.holds and v.witness == (0, 1, 2)


def test_structural_rejects_bad_arity_and_property():
    with pytest.raises(InputError):
        structural_check(MOD3, range(4), "transitive")
    with pytest.raises(InputError):
        structural_check(PARITY, range(4), "bogus")


def test_exhaustive_results_reproducible():
    a = find_homogeneous(PARITY, SearchBudget(horizon=10, size=4))
    b = find_homogeneous(PARITY, SearchBudget(horizon=10, size=4))
    assert a == b


def test_path_count_equals_measure_identity():
    import itertools
    from fractions import Fraction

    from wred.problems import measure_at_level

    no11 = HAND_TREES["no-11"]()
    for t in (TreeByRule.full(), no11):
        for d in range(8):
            count = len(enumerate_paths(t, d))
            assert Fraction(count, 2**d) == measure_at_level(t, d)
            # a count that reads no tree-level code: the strings of length d
            # all of whose prefixes satisfy the rule
            direct = sum(all(t.member(Prefix(bits[:i])) for i in range(d + 1))
                         for bits in itertools.product((0, 1), repeat=d))
            assert count == direct, (t.label, d)


# --- the searches against whole-set predicates ------------------------------


def _whole_set_searches():
    # each predicate as it read before: every tuple of sorted(chosen + [x])
    def homogeneous(f, budget):
        def consistent(chosen, x):
            colors = {f.value(t) for t in itertools.combinations(sorted(chosen + [x]), f.arity)}
            return len(colors) <= 1

        return _dfs_extend(consistent, budget)

    def thin(f, budget):
        any_exhausted = False
        for c in range(f.colors):
            def consistent(chosen, x, c=c):
                return all(f.value(t) != c
                           for t in itertools.combinations(sorted(chosen + [x]), f.arity))

            res = _dfs_extend(consistent, budget)
            any_exhausted |= res.exhausted
            if res.found:
                return SearchResult(res.members, omitted=c, mode=res.mode, nodes=res.nodes)
        return SearchResult(exhausted=any_exhausted)

    def rainbow(f, budget):
        def consistent(chosen, x):
            colors = [f.value(t) for t in itertools.combinations(sorted(chosen + [x]), f.arity)]
            return len(colors) == len(set(colors))

        greedy = []
        for x in range(budget.horizon):
            if consistent(greedy, x):
                greedy.append(x)
                if len(greedy) == budget.size:
                    return SearchResult(tuple(greedy), mode="greedy", nodes=len(greedy))
        return _dfs_extend(consistent, budget)

    def min_homogeneous(f, budget):
        def consistent(chosen, x):
            trial = sorted(chosen + [x])
            for i, a in enumerate(trial):
                if len({f.value((a, b)) for b in trial[i + 1:]}) > 1:
                    return False
            return True

        return _dfs_extend(consistent, budget)

    return {find_homogeneous: homogeneous, find_thin: thin, find_rainbow: rainbow,
            find_min_homogeneous: min_homogeneous}


def _recorded_coloring(seed, n, k):
    # a pure seeded coloring that logs every rule run, i.e. every memo miss
    runs = []
    noise = Point.from_seed(seed)

    def rule(t):
        runs.append(t)
        return read_color(noise, k, tuple_rank(t))

    return Coloring(n, k, rule, f"rec{seed}"), runs


def test_searches_match_whole_set_predicates_run_for_run():
    budgets = [SearchBudget(horizon=9, size=3), SearchBudget(horizon=10, size=5),
               SearchBudget(horizon=10, size=4, node_limit=12),
               SearchBudget(horizon=8, size=6, node_limit=3)]
    seen = set()
    for search, whole_set in _whole_set_searches().items():
        for seed in range(4):
            for n in ([2] if search is find_min_homogeneous else [1, 2, 3]):
                for k in (2, 3, 4):
                    for budget in budgets:
                        f, runs = _recorded_coloring(seed, n, k)
                        g, want = _recorded_coloring(seed, n, k)
                        res = search(f, budget)
                        assert res == whole_set(g, budget), (search.__name__, seed, n, k, budget)
                        assert runs == want, (search.__name__, seed, n, k, budget)
                        seen.add((res.found, res.exhausted, res.mode))
    # found and certified-absent, exhausted, and greedy results are all compared
    assert {(True, False, "exhaustive"), (False, False, "exhaustive"),
            (False, True, "exhaustive"), (True, False, "greedy")} <= seen
