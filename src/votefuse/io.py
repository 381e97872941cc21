"""File formats: game files, team files, ballot/prediction/cost CSV, reports.

All parsers attach file, line, and column to their errors. All writers are
deterministic: given equal inputs they emit byte-identical text, floats are
rendered with ``repr`` (shortest round-tripping form), and rows keep a fixed
order. Lines starting with ``#`` carry metadata in every CSV dialect here and
are preserved by :func:`read_report`.
"""

from __future__ import annotations

import csv
import io as _io
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ParseError, SampleError
from .fusion import ClassifierOutput, CostMatrix, PredictionSet
from .jury import TeamStructure
from .model import VotingGame, as_fraction
from .scoring import RankedBallot

PathLike = Union[str, Path]


def _read_text(path: PathLike) -> str:
    return Path(path).read_text(encoding="utf-8")


def _csv_text(rows, head: str = "") -> str:
    """``head`` followed by the rows as CSV lines ending in a bare newline."""
    buf = _io.StringIO()
    buf.write(head)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _fraction_token(token: str, path: str, line: int, col: int) -> Fraction:
    try:
        return as_fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a number: {token!r}", path=path, line=line, column=col) from None


def _split_tokens(value: str) -> list[tuple[str, int]]:
    """Tokens of a value string with 1-based column offsets (commas or spaces)."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"[^, \t]+", value)]


def _key_value_lines(text: str, path: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", path=path, line=lineno, column=1)
        key, _, value = raw.partition("=")
        yield lineno, key.strip(), value, len(key) + 2


def _single_token(key: str, value: str, path: str, line: int, offset: int) -> tuple[str, int]:
    """The one token of a ``key = value`` line and its column."""
    tokens = _split_tokens(value)
    if len(tokens) != 1:
        raise ParseError(f"{key} must be a single value", path=path, line=line, column=offset)
    tok, col = tokens[0]
    return tok, offset + col - 1


def parse_game(text: str, source: str = "<string>") -> VotingGame:
    """Parse a game file: ``weights = ...`` and an optional ``quota = ...`` line.

    Weights are integers or fractions like ``3/2``, separated by spaces or
    commas. The quota may be a number or the word ``majority`` (half the
    total weight, which is also the default when the line is absent).
    """
    weights = None
    quota = None
    for lineno, key, value, offset in _key_value_lines(text, source):
        if key == "weights":
            if weights is not None:
                raise ParseError("duplicate weights line", path=source, line=lineno, column=1)
            tokens = _split_tokens(value)
            if not tokens:
                raise ParseError("weights line is empty", path=source, line=lineno, column=offset)
            weights = [
                _fraction_token(tok, source, lineno, offset + col - 1) for tok, col in tokens
            ]
        elif key == "quota":
            if quota is not None:
                raise ParseError("duplicate quota line", path=source, line=lineno, column=1)
            tok, col = _single_token(key, value, source, lineno, offset)
            quota = "majority" if tok == "majority" else _fraction_token(tok, source, lineno, col)
        else:
            raise ParseError(f"unknown key {key!r}", path=source, line=lineno, column=1)
    if weights is None:
        raise ParseError("missing weights line", path=source, line=1, column=1)
    try:
        if quota is None or quota == "majority":
            return VotingGame(tuple(weights))
        return VotingGame(tuple(weights), quota)
    except ValueError as exc:
        raise ParseError(str(exc), path=source, line=1, column=1) from None


def load_game(path: PathLike) -> VotingGame:
    return parse_game(_read_text(path), source=str(path))


def dump_game(game: VotingGame) -> str:
    lines = [
        "weights = " + " ".join(str(w) for w in game.weights),
        f"quota = {game.quota}",
    ]
    return "\n".join(lines) + "\n"


def save_game(game: VotingGame, path: PathLike) -> None:
    Path(path).write_text(dump_game(game), encoding="utf-8")


def parse_team_structure(text: str, source: str = "<string>") -> TeamStructure:
    """Parse a team file: one ``team = i j k`` line per team, optional ``top_bias``.

    Member weights and biases take their simple defaults; richer structures
    are built through the API.
    """
    teams: list[tuple[int, ...]] = []
    top_bias = 0.0
    for lineno, key, value, offset in _key_value_lines(text, source):
        if key == "team":
            tokens = _split_tokens(value)
            if not tokens:
                raise ParseError("team line is empty", path=source, line=lineno, column=offset)
            members = []
            for tok, col in tokens:
                try:
                    members.append(int(tok))
                except ValueError:
                    raise ParseError(
                        f"not a player index: {tok!r}",
                        path=source,
                        line=lineno,
                        column=offset + col - 1,
                    ) from None
            teams.append(tuple(members))
        elif key == "top_bias":
            tok, col = _single_token(key, value, source, lineno, offset)
            top_bias = float(_fraction_token(tok, source, lineno, col))
        else:
            raise ParseError(f"unknown key {key!r}", path=source, line=lineno, column=1)
    if not teams:
        raise ParseError("no team lines found", path=source, line=1, column=1)
    try:
        return TeamStructure(teams=tuple(teams), top_bias=top_bias)
    except ValueError as exc:
        raise ParseError(str(exc), path=source, line=1, column=1) from None


def load_team_structure(path: PathLike) -> TeamStructure:
    return parse_team_structure(_read_text(path), source=str(path))


def _csv_rows(text: str, path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Comment lines (without '# ') and (lineno, cells) rows of a CSV body.

    Each line is one row. When the text has no quote or NUL character, a line
    within the field size limit is split at commas, which is what the CSV
    reader makes of it; any other line goes through the reader on its own.
    """
    comments = []
    numbered = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            comments.append(raw[1:].lstrip())
            continue
        if not raw.strip():
            continue
        numbered.append((lineno, raw))
    plain = '"' not in text and "\0" not in text
    limit = csv.field_size_limit()
    rows = []
    for lineno, raw in numbered:
        if plain and len(raw) <= limit:
            rows.append((lineno, raw.split(",")))
            continue
        try:
            cells = next(csv.reader([raw]))
        except csv.Error as exc:
            raise ParseError(f"bad CSV row: {exc}", path=path, line=lineno, column=1) from None
        rows.append((lineno, cells))
    return comments, rows


def _check_widths(rows: list[tuple[int, list[str]]], width: int, path: str) -> None:
    for lineno, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"row has {len(cells)} cells, header has {width}", path=path, line=lineno, column=1
            )


def parse_ballots(text: str, source: str = "<string>") -> list[RankedBallot]:
    """Parse a ballot CSV: one voter per row, labels in preference order."""
    _, rows = _csv_rows(text, source)
    if not rows:
        raise ParseError("no ballots found", path=source, line=1, column=1)
    ballots = []
    for lineno, cells in rows:
        labels = [c.strip() for c in cells if c.strip()]
        if not labels:
            raise ParseError("empty ballot row", path=source, line=lineno, column=1)
        try:
            ballots.append(RankedBallot(tuple(labels)))
        except Exception as exc:
            raise ParseError(str(exc), path=source, line=lineno, column=1) from None
    return ballots


def load_ballots(path: PathLike) -> list[RankedBallot]:
    return parse_ballots(_read_text(path), source=str(path))


def _column_kind(name: str) -> str:
    if name == "sample_id":
        return "id"
    if name == "true_label":
        return "truth"
    if name.startswith("feat_"):
        return "feature"
    if ":" in name:
        return "proba"
    return "vote"


def _vote_cell(raw: str):
    """A classifier cell: a label, or a ranking ``a>b>c`` as a tuple of labels."""
    v = raw.strip()
    if ">" in v:
        return tuple(part.strip() for part in v.split(">"))
    return v


def parse_predictions(text: str, source: str = "<string>") -> PredictionSet:
    """Parse a predictions CSV into a :class:`PredictionSet`.

    The header starts with ``sample_id``, optionally followed by
    ``true_label`` and ``feat_*`` columns, then one column per classifier.
    A classifier column holds either plain labels, rankings written
    ``A>B>C``, or splits into a group of ``name:label`` probability columns
    (one per label). The label universe is the sorted set of all labels
    seen; probability groups must cover it exactly. No column name may
    repeat.

    The body is read by columns: label and ranking cells are interpreted
    once per distinct value, and all numeric cells are converted as one
    block.
    """
    _, rows = _csv_rows(text, source)
    if not rows:
        raise ParseError("empty predictions file", path=source, line=1, column=1)
    header_line, header = rows[0]
    header = [h.strip() for h in header]
    if not header or header[0] != "sample_id":
        raise ParseError(
            "first header column must be sample_id", path=source, line=header_line, column=1
        )
    body = rows[1:]
    if not body:
        raise ParseError("no data rows", path=source, line=header_line, column=1)
    _check_widths(body, len(header), source)
    lines = [lineno for lineno, _ in body]
    columns = list(zip(*(cells for _, cells in body)))

    def fail(message: str, row: Optional[int], col: int) -> ParseError:
        """An error at a data row (None: the header) and a 0-based column."""
        line = header_line if row is None else lines[row]
        return ParseError(message, path=source, line=line, column=col + 1)

    # classifiers in first-appearance order; proba columns group by name prefix
    classifiers: list[tuple[str, str, list[int]]] = []  # (name, form, columns)
    seen: dict[str, int] = {}
    truth_col = None
    feat_cols = []
    for i, h in enumerate(header):
        if h in header[:i]:
            raise fail(f"duplicate column {h!r}", None, i)
        kind = _column_kind(h)
        if kind == "truth":
            truth_col = i
        elif kind == "feature":
            feat_cols.append(i)
        elif kind in ("vote", "proba"):
            name = h.split(":", 1)[0]
            if name not in seen:
                seen[name] = len(classifiers)
                classifiers.append((name, kind, [i]))
            elif kind == "proba" and classifiers[seen[name]][1] == "proba":
                classifiers[seen[name]][2].append(i)
            else:
                raise fail(f"duplicate classifier column {h!r}", None, i)
    if not classifiers:
        raise fail("no classifier columns found", None, 0)

    sample_ids = tuple(map(str.strip, columns[0]))
    if "" in sample_ids:
        raise fail("empty sample_id", sample_ids.index(""), 0)

    truth: Optional[tuple[Optional[str], ...]] = None
    if truth_col is not None:
        truth_cells = {raw: raw.strip() or None for raw in dict.fromkeys(columns[truth_col])}
        truth = tuple(map(truth_cells.__getitem__, columns[truth_col]))

    numeric = feat_cols + [i for _, form, cols in classifiers if form == "proba" for i in cols]
    values = {}
    if numeric:
        try:
            block = np.array([columns[i] for i in numeric], dtype=np.float64)
        except ValueError:
            for row in range(len(body)):
                for i in numeric:
                    try:
                        float(columns[i][row])
                    except ValueError:
                        raise fail(f"not a number: {columns[i][row]!r}", row, i) from None
            raise
        values = dict(zip(numeric, block))
    features = np.column_stack([values[i] for i in feat_cols]) if feat_cols else None

    # the label universe, from distinct cells
    labels_seen: set[str] = set()
    if truth is not None:
        labels_seen.update(t for t in truth_cells.values() if t is not None)
    votes: dict[int, dict] = {}  # classifier column -> {raw cell: label or ranking}
    for name, form, cols in classifiers:
        if form == "proba":
            labels_seen.update(header[i].split(":", 1)[1] for i in cols)
            continue
        votes[cols[0]] = {raw: _vote_cell(raw) for raw in dict.fromkeys(columns[cols[0]])}
        for v in votes[cols[0]].values():
            if isinstance(v, tuple):
                labels_seen.update(v)
            else:
                labels_seen.add(v)
    labels_seen.discard("")
    labels = tuple(sorted(labels_seen))
    if len(labels) < 2:
        raise fail(f"found {len(labels)} distinct labels, need at least 2", None, 0)

    outputs = []
    for name, form, cols in classifiers:
        if form == "proba":
            suffix = {header[i].split(":", 1)[1]: i for i in cols}
            if tuple(sorted(suffix)) != labels:
                raise fail(
                    f"probability group {name!r} covers {sorted(suffix)}, expected {list(labels)}",
                    None,
                    cols[0],
                )
            matrix = np.column_stack([values[suffix[lab]] for lab in labels])
            outputs.append(ClassifierOutput.from_proba(matrix))
            continue
        column, cells = columns[cols[0]], votes[cols[0]]
        ranked = [raw for raw, v in cells.items() if isinstance(v, tuple)]
        if len(ranked) == len(cells):
            outputs.append(ClassifierOutput("rank", ranks=tuple(map(cells.__getitem__, column))))
        elif ranked:
            raise fail(f"column {name!r} mixes plain labels and rankings",
                       column.index(ranked[0]), cols[0])
        else:
            empty = [raw for raw, v in cells.items() if not v]
            if empty:
                raise fail(f"empty vote in column {name!r}", column.index(empty[0]), cols[0])
            outputs.append(ClassifierOutput("hard", hard=tuple(map(cells.__getitem__, column))))

    try:
        return PredictionSet(
            labels=labels,
            sample_ids=sample_ids,
            outputs=tuple(outputs),
            classifier_names=tuple(name for name, _, _ in classifiers),
            true_labels=truth,
            features=features,
        )
    except SampleError as exc:
        col = truth_col if exc.classifier is None else classifiers[exc.classifier][2][0]
        raise fail(str(exc), exc.sample, col) from None
    except Exception as exc:
        raise fail(str(exc), None, 0) from None


def load_predictions(path: PathLike) -> PredictionSet:
    return parse_predictions(_read_text(path), source=str(path))


def dump_predictions(pred: PredictionSet) -> str:
    """Serialize a prediction set to CSV text that parses back equal."""
    header = ["sample_id"]
    if pred.true_labels is not None:
        header.append("true_label")
    n_feat = 0 if pred.features is None else pred.features.shape[1]
    header += [f"feat_{j}" for j in range(n_feat)]
    for name, out in zip(pred.classifier_names, pred.outputs):
        if out.kind == "proba":
            header += [f"{name}:{lab}" for lab in pred.labels]
        else:
            header.append(name)
    rows = [header]
    for s in range(pred.n_samples):
        row = [pred.sample_ids[s]]
        if pred.true_labels is not None:
            t = pred.true_labels[s]
            row.append("" if t is None else t)
        row += [repr(float(x)) for x in (pred.features[s] if n_feat else ())]
        for out in pred.outputs:
            if out.kind == "proba":
                row += [repr(float(x)) for x in out.proba[s]]
            elif out.kind == "rank":
                row.append(">".join(out.ranks[s]))
            else:
                row.append(out.hard[s])
        rows.append(row)
    return _csv_text(rows)


def save_predictions(pred: PredictionSet, path: PathLike) -> None:
    Path(path).write_text(dump_predictions(pred), encoding="utf-8")


def parse_cost_matrix(text: str, source: str = "<string>") -> CostMatrix:
    """Parse a cost CSV with labelled rows and columns.

    The header is an empty cell followed by the predicted labels; each row
    starts with a true label. Labels are reordered to sorted order so the
    matrix aligns with confusion matrices built from predictions.
    """
    _, rows = _csv_rows(text, source)
    if len(rows) < 2:
        raise ParseError("cost matrix needs a header and one row per label", path=source, line=1, column=1)
    header_line, header = rows[0]
    cols = [h.strip() for h in header[1:]]
    if not cols or any(not c for c in cols):
        raise ParseError("header must list predicted labels", path=source, line=header_line, column=1)
    body = rows[1:]
    if len(body) != len(cols):
        raise ParseError(
            f"{len(body)} rows for {len(cols)} labels", path=source, line=header_line, column=1
        )
    _check_widths(body, len(header), source)
    raw: dict[str, dict[str, float]] = {}
    for lineno, cells in body:
        rlab = cells[0].strip()
        if rlab in raw:
            raise ParseError(f"duplicate row label {rlab!r}", path=source, line=lineno, column=1)
        entry = {}
        for j, cell in enumerate(cells[1:]):
            try:
                entry[cols[j]] = float(cell)
            except ValueError:
                raise ParseError(
                    f"not a number: {cell!r}", path=source, line=lineno, column=j + 2
                ) from None
        raw[rlab] = entry
    if sorted(raw) != sorted(cols):
        raise ParseError(
            f"row labels {sorted(raw)} do not match column labels {sorted(cols)}",
            path=source,
            line=header_line,
            column=1,
        )
    labels = tuple(sorted(cols))
    gains = np.array([[raw[t][p] for p in labels] for t in labels], dtype=np.float64)
    return CostMatrix(labels, gains)


def load_cost_matrix(path: PathLike) -> CostMatrix:
    return parse_cost_matrix(_read_text(path), source=str(path))


def dump_cost_matrix(cost: CostMatrix) -> str:
    gains = ([lab] + [repr(float(x)) for x in row] for lab, row in zip(cost.labels, cost.gains))
    return _csv_text([[""] + list(cost.labels), *gains])


@dataclass(frozen=True)
class Report:
    """A CSV report: leading ``#`` comment lines, a header, and string rows."""

    comments: tuple[str, ...]
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_text(self) -> str:
        head = "".join(f"# {c}\n" for c in self.comments)
        return _csv_text((self.header, *self.rows), head)


def parse_report(text: str, source: str = "<string>") -> Report:
    comments, rows = _csv_rows(text, source)
    if not rows:
        raise ParseError("report has no header row", path=source, line=1, column=1)
    header = tuple(rows[0][1])
    _check_widths(rows[1:], len(header), source)
    body = tuple(tuple(cells) for _, cells in rows[1:])
    return Report(tuple(comments), header, body)


def read_report(path: PathLike) -> Report:
    return parse_report(_read_text(path), source=str(path))
