"""Command-line front end.

Every subcommand writes one CSV report: ``#`` comment lines carrying the
command, the seed (always echoed, used or not), and key parameters, then a
header row and data rows. Output is deterministic byte for byte under the
default ``--reproducible`` flag, which suppresses the version and timestamp
comments. Exit codes: 0 success, 2 usage, 3 bad input data, 4 an exact
computation over its capacity cap. Errors and warnings go to stderr as one
``error: <message>`` or ``warning: <message>`` line each.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._exact import pattern_outcomes
from .errors import CapacityError, EvidenceError, VotefuseError
from .fusion import (
    FIXED_RULES,
    ConfusionMatrix,
    _tally,
    confusion_from_predictions,
    expected_risk,
    fuse_dataset,
)
from .io import (
    Report,
    _split_tokens,
    _strict_float,
    load_cost_matrix,
    load_game,
    load_predictions,
    load_team_structure,
)
from .jury import competence_monte_carlo, indirect_competence, jury_exact, optimal_weights
from .power import banzhaf_exact, power_exact, power_monte_carlo, shapley_shubik_exact
from .scoring import ScoringVector, condorcet_efficiency
from .wmr import DEFAULT_MAX_WEIGHT, enumerate_unique_wmr, enumeration_is_bound_stable

USAGE_EXIT = 2
DATA_EXIT = 3
CAPACITY_EXIT = 4


def _float(text: str) -> float:
    """A float option, read as strictly as a number in an input file."""
    try:
        return _strict_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _float_list(text: str) -> list[float]:
    parts = [token for token, _ in _split_tokens(text)]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma- or space-separated list of numbers")
    try:
        return [_strict_float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed (echoed in the report)")
    sub.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")
    sub.add_argument(
        "--reproducible",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="omit version/timestamp comments so equal inputs give equal bytes",
    )


def _fusion_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--validation", default=None, help="predictions CSV used to estimate accuracies")
    sub.add_argument("--weights", type=_float_list, default=None, help="classifier weights (sum/majority)")
    sub.add_argument("--trim", type=_float, default=0.1)
    sub.add_argument("--k", type=int, default=5, help="neighborhood size for adaptive-wmr")
    sub.add_argument("--bias", type=_float, default=0.0)
    sub.add_argument("--clip", type=_float, default=1e-6)
    sub.add_argument("--cost", default=None, help="cost matrix CSV for expected risk")


def _report(args, command: str, extra: list[str], header: tuple[str, ...], rows) -> str:
    """The report text: comments naming the command, the seed and ``extra``, then the rows."""
    lines = [f"command={command}", f"seed={args.seed}"] + extra
    if not args.reproducible:
        lines.append(f"version={__version__}")
        lines.append(f"generated={datetime.now(timezone.utc).isoformat()}")
    return Report(tuple(lines), header, tuple(rows)).to_text()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_power(args) -> str:
    game = load_game(args.game)
    extra = [f"game={Path(args.game).name}", f"method={args.method}"]
    if args.method == "monte-carlo":
        extra.append(f"trials={args.trials}")
        kinds = ("banzhaf", "shapley") if args.kind == "both" else (args.kind,)
        reports = [power_monte_carlo(game, k, trials=args.trials, seed=args.seed) for k in kinds]
    elif args.kind == "both":
        reports = power_exact(game)
    else:
        reports = [banzhaf_exact(game) if args.kind == "banzhaf" else shapley_shubik_exact(game)]
    rows = [
        (rep.kind, str(i), _fmt(rep.raw[i]), repr(rep.normalized[i]),
         "" if rep.stderr is None else repr(rep.stderr[i]))
        for rep in reports for i in range(game.n)
    ]
    return _report(args, "power", extra, ("kind", "player", "raw", "normalized", "stderr"), rows)


def _cmd_wmr_enum(args) -> str:
    rules = enumerate_unique_wmr(args.n, args.max_weight)
    stable = enumeration_is_bound_stable(args.n, args.max_weight)
    bound = DEFAULT_MAX_WEIGHT[args.n] if args.max_weight is None else args.max_weight
    extra = [
        f"n={args.n}",
        f"max_weight={bound}",
        f"count={len(rules)}",
        f"bound_stable={'true' if stable else 'false'}",
    ]
    weights = np.array([c.weights for c in rules], dtype=np.int64)
    tables = np.where(pattern_outcomes(weights, 0) == 1, ord("A"), ord("B")).astype(np.uint8)
    rows = [
        (" ".join(map(str, c.weights)), table.tobytes().decode("ascii"))
        for c, table in zip(rules, tables)
    ]
    return _report(args, "wmr enum", extra, ("weights", "table"), rows)


def _cmd_jury(args) -> str:
    skills = args.skills
    n = len(skills)
    weights = args.weights if args.weights is not None else [1.0] * n
    extra = [
        f"n={n}",
        f"bias={_fmt(args.bias)}",
        f"nd_policy={args.nd_policy}",
        f"method={args.method}",
    ]
    if args.method == "monte-carlo":
        extra.append(f"trials={args.trials}")
    rows = []
    if args.method == "exact":
        exact = jury_exact(weights, args.bias, skills, nd_policy=args.nd_policy)
        rows.append(("competence", "", repr(exact.competence), ""))
        for i, d in enumerate(exact.decisiveness):
            rows.append(("decisiveness", str(i), repr(d), ""))
    else:
        est = competence_monte_carlo(
            weights, args.bias, skills, trials=args.trials, seed=args.seed,
            nd_policy=args.nd_policy,
        )
        rows.append(("competence", "", repr(est.value), repr(est.stderr)))
    for i, w in enumerate(optimal_weights(skills, clip=args.clip)):
        rows.append(("optimal_weight", str(i), repr(float(w)), ""))
    if args.teams:
        structure = load_team_structure(args.teams)
        ind = indirect_competence(structure, skills, nd_policy=args.nd_policy)
        rows.append(("indirect_competence", "", repr(ind), ""))
    return _report(args, "jury", extra, ("metric", "player", "value", "stderr"), rows)


def _scoring_text(text: str) -> str:
    """A ``--scoring`` value, kept as given for the report: a rule name or a score list."""
    if text not in ("borda", "plurality"):
        _float_list(text)
    return text


def _scoring_vector(text: str, m: int) -> ScoringVector:
    if text == "borda":
        return ScoringVector.borda(m)
    if text == "plurality":
        return ScoringVector.plurality(m)
    return ScoringVector(tuple(_float_list(text)))


def _cmd_efficiency(args) -> str:
    scoring = _scoring_vector(args.scoring, args.candidates)
    res = condorcet_efficiency(
        scoring,
        args.candidates,
        args.voters,
        method=args.method,
        tie_policy=args.tie_policy,
        trials=args.trials,
        seed=args.seed,
    )
    extra = [
        f"candidates={args.candidates}",
        f"voters={args.voters}",
        f"scoring={args.scoring}",
        f"tie_policy={args.tie_policy}",
        f"method={args.method}",
    ]
    if args.method == "monte-carlo":
        extra.append(f"trials={args.trials}")
    row = (
        repr(res.value),
        "" if res.exact is None else str(res.exact),
        str(res.profiles_with_winner),
        "" if res.stderr is None else repr(res.stderr),
        "" if res.ci95 is None else repr(res.ci95[0]),
        "" if res.ci95 is None else repr(res.ci95[1]),
        "" if res.trials is None else str(res.trials),
        res.method,
    )
    header = ("value", "exact", "profiles_with_winner", "stderr", "ci_low", "ci_high", "trials", "method")
    return _report(args, "efficiency", extra, header, (row,))


def _judged(pred, codes, cost) -> tuple[int, int, int, Optional[float]]:
    """Labelled samples whose fused decision is right, undecided and in all, and the risk
    under ``cost`` of the decided ones (None without a cost or a decided one)."""
    m = len(pred.labels)
    # one tally, where an undecided sample (code -1) votes for an extra label m
    counts = _tally(pred.truth_codes, np.where(codes < 0, m, codes), m + 1)
    decided = counts[:m, :m]
    risk = None
    if cost is not None and decided.any():
        risk = expected_risk(ConfusionMatrix(pred.labels, decided), cost)
    return int(np.trace(counts)), int(counts[:, m].sum()), int(counts.sum()), risk


def _fuse_decisions(pred, validation, rule, args, bias: float, weights) -> np.ndarray:
    """Label codes of the fused decisions, -1 where undecided."""
    decisions = fuse_dataset(
        pred,
        rule,
        validation=validation,
        classifier_weights=weights,
        trim=args.trim,
        k=args.k,
        bias=bias,
        clip=args.clip,
    )
    code = {lab: i for i, lab in enumerate(pred.labels)}
    code[None] = -1
    return np.fromiter(map(code.__getitem__, decisions), np.intp, len(decisions))


def _cmd_fuse(args) -> str:
    pred = load_predictions(args.predictions)
    validation = load_predictions(args.validation) if args.validation else None
    codes = _fuse_decisions(pred, validation, args.rule, args, args.bias, args.weights)
    extra = [
        f"predictions={Path(args.predictions).name}",
        f"rule={args.rule}",
        f"k={args.k}" if args.rule == "adaptive-wmr" else f"trim={_fmt(args.trim)}",
    ]
    cost = load_cost_matrix(args.cost) if args.cost else None
    hits, undecided, labelled, risk = _judged(pred, codes, cost)
    if labelled:
        extra.append(f"fused_accuracy={hits / labelled!r}")
        if undecided:
            extra.append(f"undecided={undecided}")
    if cost is not None:
        if risk is None:
            raise EvidenceError("cannot score risk: no labelled, decided samples")
        extra.append(f"expected_risk={risk!r}")
    names = np.array(pred.labels + ("ND",), dtype=object)
    rows = zip(pred.sample_ids, names[codes].tolist())
    return _report(args, "fuse", extra, ("sample_id", "decision"), rows)


def _cmd_report(args) -> str:
    pred = load_predictions(args.predictions)
    validation = load_predictions(args.validation) if args.validation else None
    source = validation if validation is not None else pred
    if not (pred.truth_codes >= 0).any():
        raise EvidenceError("the report needs true labels on the prediction set")
    k = source.n_classifiers
    accuracies = [source.accuracy(j) for j in range(k)]
    rows = []
    for name, acc in zip(source.classifier_names, accuracies):
        rows.append(("classifier_accuracy", name, repr(acc)))
    for name, w in zip(source.classifier_names, optimal_weights(accuracies, clip=args.clip)):
        rows.append(("optimal_weight", name, repr(float(w))))
    cost = load_cost_matrix(args.cost) if args.cost else None
    if cost is not None:
        for j, name in enumerate(source.classifier_names):
            cm = confusion_from_predictions(source, j)
            rows.append(("classifier_risk", name, repr(expected_risk(cm, cost))))
    rules = list(FIXED_RULES) + ["wmr"]
    if len(pred.labels) == 2 and pred.features is not None and source.features is not None:
        rules.append("adaptive-wmr")
    for rule in rules:
        # the fixed rows are a summary, not a request to weigh by the bias
        bias = args.bias if rule in ("wmr", "adaptive-wmr") else 0.0
        weights = args.weights if rule in ("sum", "majority") else None
        codes = _fuse_decisions(pred, validation, rule, args, bias, weights)
        hits, _, labelled, risk = _judged(pred, codes, cost)
        rows.append(("fused_accuracy", rule, repr(hits / labelled)))
        if risk is not None:
            rows.append(("fused_risk", rule, repr(risk)))
    extra = [f"predictions={Path(args.predictions).name}", f"k={args.k}"]
    return _report(args, "report", extra, ("section", "key", "value"), rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="votefuse",
        description="Voting power, weighted majority rules, jury competence, "
        "Condorcet efficiency, and classifier fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="Banzhaf and Shapley-Shubik power of a weighted game")
    p.add_argument("--game", required=True, help="game file (weights/quota key = value lines)")
    p.add_argument("--kind", choices=("banzhaf", "shapley", "both"), default="both")
    p.add_argument("--method", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    _common_options(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("wmr", help="weighted majority rule tools")
    wsub = p.add_subparsers(dest="wmr_command", required=True)
    pe = wsub.add_parser("enum", help="enumerate all distinct decisive rules for n voters")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--max-weight", type=int, default=None)
    _common_options(pe)
    pe.set_defaults(func=_cmd_wmr_enum)

    p = sub.add_parser("jury", help="collective competence of a weighted group vote")
    p.add_argument("--skills", type=_float_list, required=True, help="per-judge correctness probabilities")
    p.add_argument("--weights", type=_float_list, default=None, help="per-judge weights (default equal)")
    p.add_argument("--bias", type=_float, default=0.0)
    p.add_argument("--nd-policy", choices=("incorrect", "coin-flip"), default="incorrect")
    p.add_argument("--method", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--clip", type=_float, default=1e-6)
    p.add_argument("--teams", default=None, help="team file for indirect competence")
    _common_options(p)
    p.set_defaults(func=_cmd_jury)

    p = sub.add_parser("efficiency", help="Condorcet efficiency of a positional scoring rule")
    p.add_argument("--candidates", "-m", type=int, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--scoring", type=_scoring_text, required=True,
                   help="'borda', 'plurality', or a score list like '2,1,0'")
    p.add_argument("--method", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--tie-policy", choices=("fail", "split-credit"), default="fail")
    p.add_argument("--trials", type=int, default=100_000)
    _common_options(p)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("fuse", help="fuse a predictions CSV with a chosen rule")
    p.add_argument("--rule", required=True, choices=tuple(FIXED_RULES) + ("wmr", "adaptive-wmr"))
    _fusion_options(p)
    _common_options(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("report", help="per-classifier and fused summary of a predictions CSV")
    _fusion_options(p)
    _common_options(p)
    p.set_defaults(func=_cmd_report)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Write a warning as one ``warning: <message>`` line, free of paths and line numbers."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the caller's filters still decide which warnings are shown; this decides how
    shown, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        text = args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except (VotefuseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    finally:
        warnings.showwarning = shown
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
