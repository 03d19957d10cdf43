"""The benchmark's workloads: inputs from a seed, the timed client calls, and
the checks on their outputs.

Each workload is one single-threaded client that calls the library and waits
for every result (a closed loop).  ``ops`` returns the client calls in order;
each call is one timed op.  ``setup`` makes the inputs from the seed and a
part number: a workload with ``DISTINCT_PARTS`` draws new inputs for every
part, so that a run covers more of them; the others ignore it.  ``check`` runs after the timed section and says
whether one op's result is right; ``full`` adds the expensive independent
checks, which the harness runs on the first sample of a run only (later
samples must reproduce the first sample's outputs exactly, see ``describe``).
"""

from __future__ import annotations

import json
import random

from fsgame import cli, game, graphs, hierarchy
from fsgame.game import DuplicatorWins, GamePosition, SpoilerWins
from fsgame.logic import fo, ml

from oracles import VectorOracle
from randgen import random_position


class FrontierN2:
    """The exact minimal-separator frontier of the n=2 join families, then two
    deep single solves on the same pair of families.  The seed is unused: the
    families are fixed by the paper."""

    name = "frontier-n2"
    DISTINCT_PARTS = False
    MAX_SIZE = 15
    SOLVES = ((6, 3), (8, 2))
    FRONTIER = [(12, 3)]

    def setup(self, seed: int, part: int):
        return hierarchy.vv_set(2), hierarchy.ee_set(2)

    def ops(self, inputs):
        vv, ee = inputs
        calls = [lambda: game.minimal_separating(vv, ee, self.MAX_SIZE)]
        for m, k in self.SOLVES:
            calls.append(lambda m=m, k=k: game.solve(GamePosition(m, k, vv, ee)))
        return calls

    def check(self, inputs, i, result, full: bool) -> bool:
        vv, ee = inputs
        if i == 0:
            return [(m, k) for m, k, _ in result] == self.FRONTIER and all(
                ml.separates(f, vv, ee) and ml.ml_sizes(f) == ml.SizeReport(m, k)
                for m, k, f in result
            )
        return isinstance(result, DuplicatorWins)

    def describe(self, i, result) -> str:
        if i == 0:
            return repr([(m, k, ml.print_ml(f)) for m, k, f in result])
        return repr(game.verdict_to_dict(result))


class CorpusRandom:
    """Seeded random positions (the generator parameters of acceptance
    criterion 1), each solved at every budget m <= 3, k <= 2; an op is one
    ``solve`` plus ``verify_strategy`` when the first player wins.  A few
    positions in a thousand cost 100-400 ms, so the time of one corpus
    depends on the seed; every part of a seed is a corpus of its own."""

    name = "corpus-random"
    DISTINCT_PARTS = True
    POSITIONS = 4000
    BUDGETS = [(m, k) for m in range(4) for k in range(3)]

    def __init__(self) -> None:
        self._oracles: dict[int, VectorOracle] = {}

    def setup(self, seed: int, part: int):
        # part 0 is the corpus of the seed itself
        rng = random.Random(seed if part == 0 else f"{seed}/{part}")
        return [
            random_position(rng, max_worlds=4, max_side=3, max_props=2)
            for _ in range(self.POSITIONS)
        ]

    def ops(self, positions):
        return [
            lambda pos=pos, m=m, k=k: self._solve(GamePosition(m, k, pos.left, pos.right))
            for pos in positions
            for m, k in self.BUDGETS
        ]

    @staticmethod
    def _solve(pos: GamePosition):
        # keep only what the checks need, so retained strategies do not
        # inflate the peak RSS of the run
        verdict = game.solve(pos)
        if isinstance(verdict, SpoilerWins):
            game.verify_strategy(verdict.strategy)
            return verdict.formula, verdict.nodes
        return None, verdict.nodes

    def check(self, positions, i, result, full: bool) -> bool:
        pos = positions[i // len(self.BUDGETS)]
        m, k = self.BUDGETS[i % len(self.BUDGETS)]
        formula, _ = result
        if formula is not None:
            sizes = ml.ml_sizes(formula)
            if not (ml.separates(formula, pos.left, pos.right) and sizes.ms <= m and sizes.cs <= k):
                return False
        if not full:
            return True
        oracle = self._oracles.get(id(pos))
        if oracle is None:
            oracle = self._oracles[id(pos)] = VectorOracle(
                pos.left, pos.right, game.position_signature(pos)
            )
        return oracle.exists(m, k) == (formula is not None)

    def describe(self, i, result) -> str:
        formula, nodes = result
        return f"{'D' if formula is None else ml.print_ml(formula)}:{nodes}"


# chromatic numbers of the conflict graphs of the n = 1, 2, 3 join families
CHI = {1: 2, 2: 4, 3: 16}


class CertifyN2:
    """The second player's side: experiment reports for n = 1, 2, 3, then an
    exhaustive playout of the coloring strategy in every n=1 and n=2 cell with
    m <= 3 and 2**k below the chromatic number.  The seed is unused.

    The cells (n, m, k) = (2, 2, 1) and (2, 3, 1) are left out: they cost 4 s
    and 6.5 s, against 2 s for all other ops together, and a sample must fit
    many times in a run for its median to be steady on a noisy machine."""

    name = "certify-n2"
    DISTINCT_PARTS = False
    REPORTS = (1, 2, 3)
    CELLS = [
        (n, m, k)
        for n in (1, 2)
        for k in range(4)
        for m in range(4)
        if (1 << k) < CHI[n] and (n, m, k) not in ((2, 2, 1), (2, 3, 1))
    ]

    def setup(self, seed: int, part: int):
        return {n: (hierarchy.vv_set(n), hierarchy.ee_set(n)) for n in (1, 2)}

    def ops(self, families):
        calls = [lambda n=n: cli.build_experiment_report(n) for n in self.REPORTS]
        for n, m, k in self.CELLS:
            vv, ee = families[n]
            calls.append(
                lambda pos=GamePosition(m, k, vv, ee): game.exhaustive_playout(
                    graphs.duplicator_coloring_strategy(pos)
                )
            )
        return calls

    def check(self, families, i, result, full: bool) -> bool:
        if i >= len(self.REPORTS):
            return result is True
        n = self.REPORTS[i]
        default = fo.SizeConvention.ATOMIC_ONE.value
        psi = 3 * 2 ** (n + 2) - 13
        ok = (
            result.chromatic["chi"] == CHI[n]
            and result.fo_sizes["psi"][default] == psi
            and result.fo_sizes["phi"][default] == psi + 6
        )
        if result.separation is not None:
            ok = ok and result.separation["vv_all_true"] and result.separation["ee_all_false"]
        for cell in result.grid or ():
            if (1 << cell["k"]) < CHI[n]:
                ok = ok and cell["winner"] == "D"
        return ok

    def describe(self, i, result) -> str:
        if i >= len(self.REPORTS):
            return repr(result)
        report = result.to_dict()
        del report["wall_seconds"]
        if report["grid"] is not None:
            report["grid"] = [
                {key: v for key, v in cell.items() if key != "seconds"} for cell in report["grid"]
            ]
        return json.dumps(report, sort_keys=True)


WORKLOADS = {w.name: w for w in (FrontierN2(), CorpusRandom(), CertifyN2())}
