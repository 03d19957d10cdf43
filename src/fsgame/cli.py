"""Command-line surface: evaluation, equivalence checks, game solving,
minimal-separator search, family generation, the size-gap experiment, and an
interactive play loop.

Machine-readable output is JSON on stdout, diagnostics go to stderr.  Exit
codes: 0 ok, 1 verdict-level refusal (budget ceilings, generation guards,
inputs nested deeper than the recursion limit), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import game, graphs, hierarchy, kripke
from . import bisim as bisim_mod
from .logic import fo, ml


# the printed phi formula grows fourfold per step: n = 16 prints 5.3 MB in
# about a second, n = 20 prints 85 MB
PHI_CAP = 16


def _out(data: object) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _node_limit(args: argparse.Namespace) -> int:
    return game._node_limit(args.node_limit, "--node-limit")


def _cmd_eval(args: argparse.Namespace) -> int:
    p = kripke.read_pointed(args.model)
    f = ml.parse_ml(args.formula)
    value = ml.eval_ml(p, f)
    trace: list[dict] = []
    memo: dict = {}  # each subformula's extent, computed once

    def walk(node: ml.MLFormula) -> None:
        if isinstance(node, (ml.And, ml.Or)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ml.Diamond, ml.Box)):
            walk(node.child)
        holds = p.point in ml.extent(node, p.model, memo)
        trace.append({"subformula": ml.print_ml(node), "value": holds})

    walk(f)
    sizes = ml.ml_sizes(f)
    _out(
        {
            "formula": ml.print_ml(f),
            "value": value,
            "ms": sizes.ms,
            "cs": sizes.cs,
            "trace": trace,
        }
    )
    return 0


def _cmd_bisim(args: argparse.Namespace) -> int:
    a = kripke.read_pointed(args.model_a)
    b = kripke.read_pointed(args.model_b)
    if args.depth < 0:
        raise ValueError("--depth must be non-negative")
    witness = bisim_mod.n_bisimilar(a, b, args.depth)
    result: dict = {"bisimilar": witness is not None, "depth": args.depth}
    if witness is not None and args.witness:
        result["witness"] = {
            "layers": [sorted([u, v] for u, v in layer) for layer in witness.layers]
        }
    _err(("" if witness is not None else "not ") + f"{args.depth}-bisimilar")
    _out(result)
    return 0


def _load_position(args: argparse.Namespace) -> game.GamePosition:
    if args.position is not None:
        if args.left or args.right or args.m is not None or args.k is not None:
            raise ValueError("give either a position file or --left/--right with --m/--k")
        with open(args.position, encoding="utf-8") as fh:
            return game.position_from_dict(json.load(fh))
    if not (args.left and args.right and args.m is not None and args.k is not None):
        raise ValueError("need a position file, or --left, --right, --m and --k")
    # the file errors first, then --m, --k and the signature
    left, right = kripke.read_modelset(args.left), kripke.read_modelset(args.right)
    pos = game.GamePosition(game._budget(args.m, "--m"), game._budget(args.k, "--k"), left, right)
    game.position_signature(pos)
    return pos


def _cmd_solve(args: argparse.Namespace) -> int:
    verdict = game.solve(_load_position(args), node_limit=_node_limit(args))
    _out(game.verdict_to_dict(verdict))
    return 0


def _cmd_minimal(args: argparse.Namespace) -> int:
    left = kripke.read_modelset(args.left)
    right = kripke.read_modelset(args.right)
    node_limit = _node_limit(args)  # its error comes before that of --max-size
    max_size = game._budget(args.max_size, "--max-size")
    frontier = game.minimal_separating(left, right, max_size, node_limit=node_limit)
    _out({"frontier": _frontier_rows(frontier)})
    return 0


def _frontier_rows(frontier: list[tuple[int, int, ml.MLFormula]]) -> list[dict]:
    return [{"m": m, "k": k, "s": m + k, "formula": ml.print_ml(f)} for m, k, f in frontier]


def _fo_sizes(f: fo.FOFormula) -> dict:
    return {
        convention.value: fo.fo_size(f, convention) for convention in fo.SizeConvention
    }


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.level is not None:
        n = args.level
        level = [s.encoding for s in sorted(hierarchy.v_level(n, name="--level"))]
        return _emit(args, [(f"level{n}.json", level)], level)
    for name, n, build in (("vv", args.vv, hierarchy.vv_set), ("ee", args.ee, hierarchy.ee_set)):
        if n is None:
            continue
        members = sorted(build(n, name=f"--{name}"), key=kripke.canonical_key)
        models = [kripke.pointed_to_dict(p) for p in members]
        return _emit(args, [(f"{name}{n}_{i:03d}.json", d) for i, d in enumerate(models)], models)
    n = args.phi
    if n > PHI_CAP:
        _err(f"refused: refusing to print --phi {n}, past {PHI_CAP}")
        return 1
    phi = fo.make_phi(n)
    psi = fo.make_psi(n)
    _out(
        {
            "n": n,
            "formula": fo.print_fo(phi),
            "sizes": _fo_sizes(phi),
            "psi_sizes": _fo_sizes(psi),
        }
    )
    return 0


def _emit(args: argparse.Namespace, files: list[tuple[str, object]], data: object) -> int:
    """Print ``data``; with ``--out``, write each (file name, JSON) pair of
    ``files`` into that directory instead and print the paths written."""
    if not args.out:
        _out(data)
        return 0
    os.makedirs(args.out, exist_ok=True)
    written = []
    for filename, content in files:
        path = os.path.join(args.out, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    _out({"written": written})
    return 0


@dataclass
class ExperimentReport:
    """Closed-form formula sizes of the first-order separators next to solver
    verdicts and chromatic certificates for the modal side, at one n."""

    n: int
    fo_sizes: dict
    separation: dict | None
    chromatic: dict
    grid: list | None
    frontier: list | None
    wall_seconds: float

    def __post_init__(self) -> None:
        expected_psi = 3 * 2 ** (self.n + 2) - 13
        default = fo.SizeConvention.ATOMIC_ONE.value
        if self.fo_sizes["psi"][default] != expected_psi:
            raise ValueError("psi size does not match its closed form")
        if self.fo_sizes["phi"][default] != expected_psi + 6:
            raise ValueError("phi size does not match its closed form")

    def to_dict(self) -> dict:
        return asdict(self)


# The rows the report fills beyond the certificate, per n: the (m, k) caps of
# the solver grid and the largest size of the minimal frontier (None: no
# frontier).  The separation check runs at every n listed; any other n gets the
# chromatic certificate alone.
_REPORT_ROWS: dict[int, tuple[tuple[int, int], int | None]] = {
    1: ((4, 2), 5),
    2: ((3, 1), None),
}


def build_experiment_report(n: int, *, node_limit: int | None = None) -> ExperimentReport:
    """Assemble the report; the separation check, the solver grid and the
    frontier run at the n of ``_REPORT_ROWS``, other n get the chromatic
    certificate alone.  A ``node_limit`` that is not a non-negative integer
    raises ``ValueError`` for every n, also where no solver runs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    game._node_limit(node_limit)
    started = time.perf_counter()
    try:
        vv, ee = hierarchy.vv_set(n), hierarchy.ee_set(n)
    except hierarchy.FamilyTooLarge:
        # one refusal for both families, in the report's words
        raise hierarchy.FamilyTooLarge(f"the pair family at n={n} is not enumerable") from None
    psi, phi = fo.make_psi(n), fo.make_phi(n)
    sizes = {"psi": _fo_sizes(psi), "phi": _fo_sizes(phi)}

    chi = graphs.chromatic_number(graphs.graph_of(vv, ee))
    chromatic = {
        "chi": chi,
        "duplicator_wins_k_up_to": (chi - 1).bit_length() - 1 if chi >= 2 else None,
    }

    separation = grid = frontier = None
    rows = _REPORT_ROWS.get(n)
    if rows is not None:
        (m_cap, k_cap), frontier_size = rows
        separation = {
            "vv_all_true": all(fo.eval_fo(p.model, phi, {"x": p.point}) for p in vv),
            "ee_all_false": all(not fo.eval_fo(p.model, phi, {"x": p.point}) for p in ee),
            "vv_count": len(vv),
            "ee_count": len(ee),
        }
        grid = []
        for m in range(m_cap + 1):
            for k in range(k_cap + 1):
                cell: dict = {"m": m, "k": k}
                cell_start = time.perf_counter()
                try:
                    verdict = game.solve(game.GamePosition(m, k, vv, ee), node_limit=node_limit)
                except game.SearchBudgetExceeded as exc:
                    cell.update({"winner": None, "error": "budget-exceeded", "nodes": exc.nodes})
                else:
                    cell.update(game.verdict_to_dict(verdict))
                cell["seconds"] = round(time.perf_counter() - cell_start, 6)
                grid.append(cell)
        if frontier_size is not None:
            frontier = _frontier_rows(
                game.minimal_separating(vv, ee, frontier_size, node_limit=node_limit)
            )

    return ExperimentReport(
        n=n,
        fo_sizes=sizes,
        separation=separation,
        chromatic=chromatic,
        grid=grid,
        frontier=frontier,
        wall_seconds=round(time.perf_counter() - started, 6),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = build_experiment_report(args.n, node_limit=_node_limit(args))
    _out(report.to_dict())
    return 0


def _describe_member(i: int, p: kripke.PointedModel) -> str:
    m = p.model
    val = {q: sorted(e) for q, e in sorted(m.valuation.items())}
    return (
        f"  #{i}: point={p.point!r} worlds={sorted(m.worlds)} "
        f"edges={sorted(m.edges)}" + (f" valuation={val}" if val else "")
    )


def _print_position(pos: game.GamePosition) -> None:
    print(f"position: m={pos.m} k={pos.k}")
    for name, side in (("left", pos.left), ("right", pos.right)):
        print(f"{name}:" if side else f"{name}: (empty)")
        for i, p in enumerate(game._sorted_members(side)):
            print(_describe_member(i, p))


def _describe_move(pos: game.GamePosition, move: game.Move) -> str:
    is_left = isinstance(move, (game.LeftSplit, game.LeftSucc))
    side = "left" if is_left else "right"
    labels = {
        p: f"#{i}" for i, p in enumerate(game._sorted_members(pos.left if is_left else pos.right))
    }
    if isinstance(move, (game.LeftSplit, game.RightSplit)):
        part1, part2 = (move.left1, move.left2) if is_left else (move.right1, move.right2)
        fmt = lambda part: "{" + ",".join(sorted(labels[p] for p in part)) + "}"
        return (
            f"{side}-split (m1={move.m1},k1={move.k1}) {fmt(part1)}"
            f" / (m2={move.m2},k2={move.k2}) {fmt(part2)}"
        )
    picks = ", ".join(
        f"{labels[p]}->{target.point!r}"
        for p, target in sorted(move.choice.items(), key=lambda kv: labels[kv[0]])
    )
    return f"{side}-succ [{picks}]"


_BRANCHES = {"l": "left", "left": "left", "r": "right", "right": "right"}


def _ask(prompt: str, menu: list[str], read, refusal: str):
    """Print the menu and prompt until ``read`` accepts the answer, and return
    what it read; None once the user quits (``q``, ``quit`` or end of input)."""
    while True:
        for line in menu:
            print(line)
        try:
            answer = input(prompt).strip()
        except EOFError:
            answer = "q"
        if answer.lower() in ("q", "quit"):
            print("quit")
            return None
        choice = read(answer)
        if choice is not None:
            return choice
        print(refusal)


def _cmd_play(args: argparse.Namespace) -> int:
    with open(args.position, encoding="utf-8") as fh:
        pos = game.position_from_dict(json.load(fh))
    user_is_s = args.play_as == "S"
    limit = _node_limit(args)
    while True:
        _print_position(pos)
        status = game.terminal_status(pos)
        if isinstance(status, game.SWin):
            print(f"game over: S wins, literal {ml.print_ml(status.literal)} separates")
            return 0
        if isinstance(status, game.DWin):
            print("game over: D wins, no literal separates and no move remains")
            return 0
        moves = game.legal_moves(pos)
        if user_is_s:

            def numbered(answer: str) -> game.Move | None:
                try:
                    i = int(answer)
                except ValueError:
                    return None
                return moves[i] if 0 <= i < len(moves) else None

            menu = [f"  [{i}] {_describe_move(pos, move)}" for i, move in enumerate(moves)]
            move = _ask("S move number> ", menu, numbered, "illegal move, try again")
            if move is None:
                return 0
        else:
            verdict = game.solve(pos, node_limit=limit)
            if isinstance(verdict, game.SpoilerWins) and verdict.strategy.move is not None:
                move = verdict.strategy.move
            else:
                move = moves[0]
            print(f"S plays {_describe_move(pos, move)}")
        choice = None
        if isinstance(move, (game.LeftSplit, game.RightSplit)):
            if user_is_s:  # the machine takes the first branch that it wins, else the left
                choice = "left"
                for branch in ("left", "right"):
                    verdict = game.solve(game.apply_move(pos, move, branch), node_limit=limit)
                    if isinstance(verdict, game.DuplicatorWins):
                        choice = branch
                        break
            else:
                choice = _ask("D branch (l/r)> ", [], _BRANCHES.get, "illegal choice, try again")
                if choice is None:
                    return 0
            print(f"D chooses the {choice} branch")
        pos = game.apply_move(pos, move, choice)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsgame",
        description="Separate sets of pointed Kripke models with size-budgeted modal formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a modal formula on a pointed model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("formula", help="formula text, e.g. '[]F | <>p'")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("bisim", help="check depth-bounded equivalence of two pointed models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--witness", action="store_true", help="include the layered relations")
    p.set_defaults(handler=_cmd_bisim)

    p = sub.add_parser("solve", help="solve a game position exactly")
    p.add_argument("position", nargs="?", help="position JSON file")
    p.add_argument("--left", help="left model-set JSON file")
    p.add_argument("--right", help="right model-set JSON file")
    p.add_argument("--m", type=int, help="modal budget")
    p.add_argument("--k", type=int, help="connective budget")
    p.add_argument("--node-limit", type=int)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("minimal", help="budget-minimal separating formulas")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--node-limit", type=int)
    p.set_defaults(handler=_cmd_minimal)

    p = sub.add_parser("gen", help="generate hierarchy levels, join families, or separator formulas")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=int)
    group.add_argument("--vv", type=int)
    group.add_argument("--ee", type=int)
    group.add_argument("--phi", type=int)
    p.add_argument("--out", help="directory for generated files (default: stdout)")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("experiment", help="size report: first-order sizes vs solver verdicts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-limit", type=int)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("play", help="interactive play against the exact solver")
    p.add_argument("position", help="position JSON file")
    p.add_argument("--as", dest="play_as", choices=("S", "D"), required=True)
    p.add_argument("--node-limit", type=int)
    p.set_defaults(handler=_cmd_play)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except game.SearchBudgetExceeded as exc:
        _out({"error": "budget-exceeded", "nodes": exc.nodes})
        return 1
    except (hierarchy.LevelTooLarge, hierarchy.FamilyTooLarge) as exc:
        _err(f"refused: {exc}")
        return 1
    except RecursionError:
        _err("refused: the input nests deeper than the recursion limit")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _err(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
