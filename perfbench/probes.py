"""Per-layer tracing from outside the library.

A probe replaces a function at the places where it is bound (usually the
module of the calling layer, since ``from x import f`` copies the binding)
with a wrapper that counts calls and records the call's self time: its
duration minus the time spent in probed calls it made.  A layer's self time
is the sum over its probes; the library itself is not edited.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("kripke", "ml", "fo", "bisim", "game", "hierarchy", "graphs", "cli")

# probe name -> binding sites ("module" or "module:Class", attribute).  The
# layer is the probe name's first component.  Probes without a metric of their
# own (kripke.join, game.minimal, graphs.respond, ...) keep their work out of
# the caller's self time, so each layer's self time is its own.
PROBES = {
    "kripke.successors": [("fsgame.game", "successors"), ("fsgame.bisim", "successors")],
    "kripke.generated": [("fsgame.graphs", "generated")],
    "kripke.join": [("fsgame.hierarchy", "join")],
    "kripke.model": [("fsgame.kripke:KripkeModel", "__init__")],
    "ml.eval": [("fsgame.logic.ml", "eval_ml"), ("fsgame.game", "eval_ml")],
    "fo.eval": [("fsgame.logic.fo", "eval_fo")],
    "bisim.truncate_type": [("fsgame.game", "truncate_type")],
    "bisim.bounded_type": [("fsgame.game", "bounded_type")],
    "bisim.n_bisimilar": [("fsgame.graphs", "n_bisimilar")],
    "game.solve": [("fsgame.game", "solve")],
    "game.minimal": [("fsgame.game", "minimal_separating")],
    "game.win": [("fsgame.game:_Solver", "win")],
    "game.search": [("fsgame.game:_Solver", "_search")],
    "game.images": [("fsgame.game", "_choice_images")],
    "game.partitions": [("fsgame.game", "_anchored_partitions")],
    "game.strategy": [("fsgame.game", "_strategy_for")],
    "game.verify": [("fsgame.game", "verify_strategy")],
    "game.playout": [("fsgame.game", "exhaustive_playout")],
    "game.legal_moves": [("fsgame.game", "legal_moves")],
    "game.apply_move": [("fsgame.game", "apply_move"), ("fsgame.graphs", "apply_move")],
    "hierarchy.families": [("fsgame.hierarchy", "vv_set"), ("fsgame.hierarchy", "ee_set")],
    "hierarchy.model_of": [("fsgame.graphs", "model_of")],
    "hierarchy.parse_hf": [("fsgame.graphs", "parse_hf")],
    "graphs.graph_of": [("fsgame.graphs", "graph_of")],
    "graphs.chromatic": [("fsgame.graphs", "chromatic_number")],
    "graphs.strategy": [("fsgame.graphs", "duplicator_coloring_strategy")],
    "graphs.respond": [("fsgame.graphs:_ColoringResponder", "respond")],
    "cli.experiment": [("fsgame.cli", "build_experiment_report")],
}

# probes whose result is a list: also sum its length (images, partitions, moves)
SIZED = {"game.images", "game.partitions", "game.legal_moves"}


def _owner(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Recorder:
    """Counts and self times of every probe, from ``install`` on."""

    def __init__(self) -> None:
        # probe -> [calls, self seconds, summed result length]
        self.stats: dict[str, list] = {name: [0, 0.0, 0] for name in PROBES}
        self._children = [0.0]

    def install(self) -> None:
        for name, sites in PROBES.items():
            for site, attr in sites:
                owner = _owner(site)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter
        sized = name in SIZED

        def probe(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - children.pop()
                children[-1] += elapsed
            if sized:
                stat[2] += len(result)
            return result

        return probe


def layer_metrics(stats: dict, window_s: float, types: int) -> dict:
    """The per-layer metrics of one traced sample, named as in BENCHMARK.json,
    except ``trace.overhead``, which compares samples.

    ``window_s`` is the traced sample's set-up plus timed section; a layer's
    share is its self time over that window.  ``types`` is the size of the
    type table at the end.
    """
    calls = {name: stat[0] for name, stat in stats.items()}
    self_s = {name: stat[1] for name, stat in stats.items()}
    items = {name: stat[2] for name, stat in stats.items()}
    nodes, win_calls = calls["game.search"], calls["game.win"]
    out = {
        "bisim.types": types,
        "bisim.truncate_type.calls": calls["bisim.truncate_type"],
        "bisim.truncate_type.self_s": self_s["bisim.truncate_type"],
        "bisim.bounded_type.calls": calls["bisim.bounded_type"],
        "bisim.bounded_type.self_s": self_s["bisim.bounded_type"],
        "game.nodes": nodes,
        "game.win_calls": win_calls,
        "game.memo_hit_ratio": 1 - nodes / win_calls if win_calls else 0.0,
        "game.images": items["game.images"],
        "game.images.self_s": self_s["game.images"],
        "game.partitions": items["game.partitions"],
        "game.partitions.self_s": self_s["game.partitions"],
        "game.solve.self_s": self_s["game.solve"],
        "game.strategy.self_s": self_s["game.strategy"],
        "game.verify.self_s": self_s["game.verify"],
        "game.playout.positions": calls["game.playout"],
        "game.legal_moves.moves": items["game.legal_moves"],
        "game.apply_move.calls": calls["game.apply_move"],
        "ml.eval.calls": calls["ml.eval"],
        "ml.eval.self_s": self_s["ml.eval"],
        "fo.eval.calls": calls["fo.eval"],
        "fo.eval.self_s": self_s["fo.eval"],
        "cli.experiment.self_s": self_s["cli.experiment"],
        "kripke.successors.calls": calls["kripke.successors"],
        "kripke.generated.calls": calls["kripke.generated"],
        "kripke.generated.self_s": self_s["kripke.generated"],
        "kripke.models_built": calls["kripke.model"],
        "hierarchy.model_of.calls": calls["hierarchy.model_of"],
        "hierarchy.parse_hf.calls": calls["hierarchy.parse_hf"],
        "hierarchy.parse_hf.self_s": self_s["hierarchy.parse_hf"],
        "hierarchy.families.self_s": self_s["hierarchy.families"],
        "graphs.graph_of.calls": calls["graphs.graph_of"],
        "graphs.graph_of.self_s": self_s["graphs.graph_of"],
        "graphs.chromatic.calls": calls["graphs.chromatic"],
        "graphs.chromatic.self_s": self_s["graphs.chromatic"],
    }
    for layer in LAYERS:
        total = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = total
        out[f"{layer}.share"] = total / window_s
    return out


# counts that must repeat exactly between samples and runs of the same code
EXACT = ("game.nodes", "game.win_calls", "game.images", "game.partitions")
