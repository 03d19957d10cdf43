"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the documented runtimes.
"""

import itertools
import random
import time

from fsgame import bisim, game, hierarchy
from fsgame.game import GamePosition, SpoilerWins, DuplicatorWins
from fsgame.graphs import Graph, chromatic_number, graph_of, make_graph
from fsgame.logic import fo, ml
from oracles import VectorOracle, chromatic_brute, separator_exists_enum
from randgen import random_pointed, random_position, random_signature, unfold

BUDGETS = [(m, k) for m in range(4) for k in range(3)]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_solver_matches_enumeration_oracle():
    rng = random.Random(20240521)
    started = time.perf_counter()
    mismatches = 0
    cross_checked = 0
    for index in range(200):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        signature = game.position_signature(pos)
        oracle = VectorOracle(pos.left, pos.right, signature)
        for m, k in BUDGETS:
            verdict = game.solve(GamePosition(m, k, pos.left, pos.right))
            if isinstance(verdict, SpoilerWins) != oracle.exists(m, k):
                mismatches += 1
        if index < 15:
            # tie the fast oracle back to the literal enumeration on a sample
            for m, k in ((0, 0), (1, 1), (2, 1)):
                assert oracle.exists(m, k) == separator_exists_enum(
                    pos.left, pos.right, m, k, signature
                )
                cross_checked += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0
    _report(
        1,
        "solver verdicts match formula enumeration on 200 positions x 12 budgets",
        ok,
        f"{elapsed:.1f}s, {cross_checked} enumeration cross-checks",
    )
    assert ok


def test_criterion_2_planted_equivalent_pairs_yield_duplicator_wins():
    rng = random.Random(7177)
    started = time.perf_counter()
    losses = 0
    for _ in range(100):
        props = random_signature(rng, 2)
        m = rng.randint(0, 3)
        k = rng.randint(0, 2)
        p = random_pointed(rng, 4, props)
        partner = unfold(p, m) if rng.random() < 0.7 else p
        left = {p} | {random_pointed(rng, 4, props) for _ in range(rng.randint(0, 2))}
        right = {partner} | {random_pointed(rng, 4, props) for _ in range(rng.randint(0, 2))}
        verdict = game.solve(GamePosition(m, k, frozenset(left), frozenset(right)))
        if not isinstance(verdict, DuplicatorWins):
            losses += 1
    ok = losses == 0
    _report(2, "planted depth-m equivalent cross pairs force D wins (100 positions)", ok,
            f"{time.perf_counter() - started:.1f}s")
    assert ok


def test_criterion_3_fo_size_arithmetic():
    sizes = [fo.fo_size(fo.make_psi(n)) for n in range(1, 11)]
    ok = sizes[0] == 11
    ok = ok and all(sizes[i + 1] == 2 * sizes[i] + 13 for i in range(9))
    ok = ok and all(sizes[n - 1] == 3 * 2 ** (n + 2) - 13 for n in range(1, 11))
    ok = ok and all(
        fo.fo_size(fo.make_phi(n)) == 3 * 2 ** (n + 2) - 7 for n in range(1, 11)
    )
    _report(3, "first-order size closed forms for n=1..10", ok)
    assert ok


def test_criterion_4_hierarchy_cardinalities():
    counts = [len(hierarchy.v_level(n)) for n in range(1, 6)]
    ok = counts == [1, 2, 4, 16, 65536]
    ok = ok and len(hierarchy.vv_set(2)) == 4
    ok = ok and len(hierarchy.ee_set(2)) == 6
    _report(4, "level and family cardinalities", ok, f"levels {counts}")
    assert ok


def test_criterion_5_phi_separates_families():
    started = time.perf_counter()
    ok = True
    for n in (1, 2):
        phi = fo.make_phi(n)
        vv = hierarchy.vv_set(n)
        ee = hierarchy.ee_set(n)
        ok = ok and all(fo.eval_fo(p.model, phi, {"x": p.point}) for p in vv)
        ok = ok and all(not fo.eval_fo(q.model, phi, {"x": q.point}) for q in ee)
    _report(5, "first-order separators hold on all singleton joins, fail on all pair joins",
            ok, f"{time.perf_counter() - started:.1f}s")
    assert ok


def test_criterion_6_level_three_pairwise_non_equivalent():
    models = [hierarchy.model_of(a) for a in sorted(hierarchy.v_level(3))]
    pairs = list(itertools.combinations(models, 2))
    ok = len(pairs) == 6 and all(bisim.n_bisimilar(p, q, 2) is None for p, q in pairs)
    _report(6, "all 6 pairs from level 3 are non-equivalent at depth 2", ok)
    assert ok


def test_criterion_7_coloring_lemmas():
    started = time.perf_counter()
    rng = random.Random(424242)
    ok = True

    def rnd_graph(n: int, p: float) -> Graph:
        verts = [f"v{i}" for i in range(n)]
        return make_graph(
            verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p]
        )

    for _ in range(100):
        g = rnd_graph(rng.randint(2, 8), rng.random())
        verts = sorted(g.vertices)
        cut = rng.randint(1, len(verts))
        v1 = set(verts[:cut])
        v2 = set(verts[cut - 1:])  # overlap keeps both sides nonempty covers
        g1 = make_graph(v1, [(u, v) for u, v in g.edges if u in v1 and v in v1])
        g2 = make_graph(v2, [(u, v) for u, v in g.edges if u in v2 and v in v2])
        ok = ok and chromatic_number(g) <= chromatic_number(g1) + chromatic_number(g2)

    for _ in range(100):
        g = rnd_graph(rng.randint(2, 8), rng.random())
        e1 = {e for e in g.edges if rng.random() < 0.6}
        e2 = (set(g.edges) - e1) | {e for e in g.edges if rng.random() < 0.4}
        ok = ok and chromatic_number(g) <= chromatic_number(
            Graph(g.vertices, frozenset(e1))
        ) * chromatic_number(Graph(g.vertices, frozenset(e2)))

    corpus = [rnd_graph(n, p) for n in range(1, 7) for p in (0.0, 0.3, 0.6, 1.0)]
    for g in corpus:
        ok = ok and chromatic_number(g) == chromatic_brute(g.vertices, g.edges)

    _report(7, "coloring split inequalities and brute-force agreement", ok,
            f"{time.perf_counter() - started:.1f}s, corpus of {len(corpus)}")
    assert ok


def test_criterion_8_lower_bound_at_n2():
    started = time.perf_counter()
    vv2 = hierarchy.vv_set(2)
    ee2 = hierarchy.ee_set(2)
    chi = chromatic_number(graph_of(vv2, ee2))
    certificate_ok = chi == 4
    verdicts_ok = True
    total_nodes = 0
    for k in (0, 1):
        assert (1 << k) < chi  # the certificate predicts D for this column
        for m in range(4):
            verdict = game.solve(GamePosition(m, k, vv2, ee2))
            total_nodes += verdict.nodes
            verdicts_ok = verdicts_ok and isinstance(verdict, DuplicatorWins)
    elapsed = time.perf_counter() - started
    ok = certificate_ok and verdicts_ok
    _report(8, "solver and chromatic certificate agree: D wins at n=2 for k<2, m<=3",
            ok, f"runtime {elapsed:.2f}s single-threaded, {total_nodes} nodes, chi={chi}")
    assert ok


def test_criterion_9_upper_bound_at_n1():
    started = time.perf_counter()
    vv1 = hierarchy.vv_set(1)
    ee1 = hierarchy.ee_set(1)
    frontier = game.minimal_separating(vv1, ee1, 5)
    ok = bool(frontier)
    for m, k, formula in frontier:
        ok = ok and k >= 1
        ok = ok and ml.separates(formula, vv1, ee1)
        sizes = ml.ml_sizes(formula)
        ok = ok and sizes.ms <= m and sizes.cs <= k
    _report(9, "a minimal separator exists at n=1 and every frontier entry needs k>=1",
            ok, f"{time.perf_counter() - started:.1f}s, frontier {[(m, k) for m, k, _ in frontier]}")
    assert ok


def test_criterion_10_strategy_round_trips():
    rng = random.Random(987654)
    started = time.perf_counter()
    ok = True
    wins = 0
    while wins < 50:
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        verdict = game.solve(pos)
        if not isinstance(verdict, SpoilerWins):
            continue
        wins += 1
        formula = game.extract_formula(verdict.strategy)
        sizes = ml.ml_sizes(formula)
        ok = ok and sizes.ms <= pos.m and sizes.cs <= pos.k
        ok = ok and ml.separates(formula, pos.left, pos.right)
        rebuilt = game.strategy_from_formula(formula, pos.left, pos.right)
        try:
            game.verify_strategy(rebuilt)  # exhaustive playout over D choices
            game.verify_strategy(verdict.strategy)
        except game.StrategyError:
            ok = False
    _report(10, "50 extracted separators verify and 50 rebuilt strategies win all playouts",
            ok, f"{time.perf_counter() - started:.1f}s")
    assert ok


def test_criterion_11_minimal_frontier_at_n2():
    started = time.perf_counter()
    vv2 = hierarchy.vv_set(2)
    ee2 = hierarchy.ee_set(2)
    frontier = game.minimal_separating(vv2, ee2, 15)
    expected = ml.parse_ml("([][]<>T | []<>[]F) & ([]<><>T | [][][]F)")
    ok = frontier == [(12, 3, expected)]
    chi = chromatic_number(graph_of(vv2, ee2))
    for m, k, formula in frontier:
        ok = ok and ml.separates(formula, vv2, ee2)
        ok = ok and ml.ml_sizes(formula) == ml.SizeReport(m, k)
        ok = ok and (1 << k) >= chi  # the coloring bound: D wins while 2^k < chi
    _report(11, "the exact n=2 frontier to size 15 is one separator at (12,3)", ok,
            f"{time.perf_counter() - started:.1f}s, frontier {[(m, k) for m, k, _ in frontier]}")
    assert ok


def test_criterion_12_no_small_modal_separator_at_n3():
    # the game theorem makes an empty frontier a lower bound: no modal
    # formula with m + k <= 12 separates the n=3 families, while first-order
    # formulas of size 83 (psi) and 89 (phi) do
    started = time.perf_counter()
    vv3 = hierarchy.vv_set(3)
    ee3 = hierarchy.ee_set(3)
    # the budget counts table vectors too: 91 search states plus 7,948 vectors
    frontier = game.minimal_separating(vv3, ee3, 12, node_limit=10_000)
    chi = chromatic_number(graph_of(vv3, ee3))
    fo_sizes = (fo.fo_size(fo.make_psi(3)), fo.fo_size(fo.make_phi(3)))
    ok = frontier == [] and chi == 16 and fo_sizes == (83, 89)
    _report(12, "no modal separator with m+k <= 12 at n=3, alongside chi=16", ok,
            f"{time.perf_counter() - started:.1f}s, frontier {frontier}, chi={chi}, "
            f"first-order sizes {fo_sizes}")
    assert ok
