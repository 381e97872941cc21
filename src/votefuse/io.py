"""File formats: game and team files, prediction/cost CSV, ballot CSV text, reports.

All parsers attach file, line, and column to their errors. All writers are
deterministic: equal inputs give byte-identical text, floats are written with
``repr`` (shortest round-tripping form), and rows keep a fixed order. A
writer's text parses back equal (a cost matrix's, to the same gain per label
pair), or the writer raises :class:`DataError`. Lines starting with ``#``
carry metadata in every CSV dialect here and are kept by :func:`read_report`.
"""

from __future__ import annotations

import csv
import io as _io
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import DataError, ParseError, SampleError
from .fusion import ClassifierOutput, CostMatrix, PredictionSet, _read_only
from .jury import TeamStructure
from .model import VotingGame, as_fraction
from .scoring import RankedBallot

PathLike = Union[str, Path]


def _text(data: bytes) -> str:
    """The text of a UTF-8 file's bytes, as every loader reads it.

    A leading byte order mark is dropped and every line end becomes ``\\n``
    (universal newlines), as ``Path.read_text(encoding="utf-8-sig")`` reads
    the file.
    """
    return _io.TextIOWrapper(_io.BytesIO(data), encoding="utf-8-sig").read()


def _read_text(path: PathLike) -> str:
    """The text of a UTF-8 file (see :func:`_text`)."""
    return _text(Path(path).read_bytes())


def _csv_text(rows) -> str:
    """The rows as CSV lines, each ending in a bare newline.

    A row whose first cell starts with ``#`` is written with every cell
    quoted, so that its line does not read back as a comment.
    """
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    body = buf.getvalue()
    if body.startswith("#") or "\n#" in body:
        buf = _io.StringIO()
        plain = csv.writer(buf, lineterminator="\n")
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if row and str(row[0]).startswith("#") else plain).writerow(row)
        body = buf.getvalue()
    return body


def _unreadable(cell: str, strips: bool) -> str:
    """What keeps a written CSV cell from reading back as ``cell``, a line break first; "" if nothing.

    The parsers read one row per ``str.splitlines`` line and refuse a row that
    holds a NUL; one that ``strips`` its cells loses the blanks around them.
    """
    if cell.splitlines() not in ([], [cell]):
        return "a line break"
    if "\0" in cell:
        return "a NUL"
    return "surrounding blanks" if strips and cell != cell.strip() else ""


#: The characters of a number in a game or team file: ASCII digits, signs,
#: '.', an exponent and '/'; no digit-group '_' and no other script's digits.
_NUMBER = re.compile(r"[-+0-9./eE]+")


def _fraction_token(token: str, path: str, line: int, col: int) -> Fraction:
    if token.isascii() and token.isdigit():  # a plain integer, read without Fraction's parser
        return Fraction(int(token))
    try:
        if _NUMBER.fullmatch(token):
            return as_fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"not a number: {token!r}", path=path, line=line, column=col)


def _plain(text: str) -> bool:
    """Whether ``float`` may read ``text`` as a number here: ASCII, with no digit-group ``_``."""
    return text.isascii() and "_" not in text


def _strict_float(text: str) -> float:
    """``float(text)`` for :func:`_plain` text; other text is a ``ValueError``, as float words it."""
    if _plain(text):
        return float(text)
    raise ValueError(f"could not convert string to float: {text!r}")


def _numbers(columns, lines, cols, path: str) -> np.ndarray:
    """Columns of numeric cells as one float64 array, indexed [column, row].

    ``lines`` numbers the rows and ``cols`` the columns (from 1); the first
    cell, row by row, that is not a finite number is an error at its own cell.
    The columns are converted as one block. A number is :func:`_plain`, as in
    game files, which each column's joined text shows; only a block that
    fails to convert, or holds text that is not plain or a value that is not
    finite, has its cells scanned one by one.
    """
    try:
        block = np.array(columns, dtype=np.float64)
    except ValueError:
        block = None
    plain = block is not None and all(_plain("".join(c)) for c in columns)
    if not plain or not np.isfinite(block).all():
        for line, cells in zip(lines, zip(*columns)):
            for col, cell in zip(cols, cells):
                try:
                    what = "" if math.isfinite(_strict_float(cell)) else "a finite number"
                except ValueError:
                    what = "a number"
                if what:
                    raise ParseError(f"not {what}: {cell!r}", path=path, line=line, column=col)
    return block


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
    quota_at = 1, 1  # the quota's line and column, as spots holds each weight's
    for lineno, key, value, offset in _key_value_lines(text, source):
        if key == "weights":
            if weights is not None:
                raise ParseError("duplicate weights line", path=source, line=lineno, column=1)
            tokens = _split_tokens(value)
            if not tokens:
                raise ParseError("weights line is empty", path=source, line=lineno, column=offset)
            spots = [(lineno, offset + col - 1) for _, col in tokens]
            weights = [_fraction_token(tok, source, *at) for (tok, _), at in zip(tokens, spots)]
        elif key == "quota":
            if quota is not None:
                raise ParseError("duplicate quota line", path=source, line=lineno, column=1)
            tok, col = _single_token(key, value, source, lineno, offset)
            quota_at = lineno, col
            quota = "majority" if tok == "majority" else _fraction_token(tok, source, lineno, col)
        else:
            raise ParseError(f"unknown key {key!r}", path=source, line=lineno, column=1)
    if weights is None:
        raise ParseError("missing weights line", path=source, line=1, column=1)
    try:
        return VotingGame(tuple(weights), None if quota == "majority" else quota)
    except ValueError as exc:
        # VotingGame refuses the first negative weight, else the quota
        line, col = next((at for w, at in zip(weights, spots) if w < 0), quota_at)
        raise ParseError(str(exc), path=source, line=line, column=col) from None


def load_game(path: PathLike) -> VotingGame:
    return parse_game(_read_text(path), source=str(path))


def dump_game(game: VotingGame) -> str:
    """The game file of ``game``, which parses back to an equal game."""
    weights = " ".join(str(w) for w in game.weights)
    return f"weights = {weights}\nquota = {game.quota}\n"


def parse_team_structure(text: str, source: str = "<string>") -> TeamStructure:
    """Parse a team file: one ``team = i j k`` line per team, optional ``top_bias``.

    Member weights and biases take their simple defaults; richer structures
    are built through the API.
    """
    teams: list[tuple[int, ...]] = []
    spots: list[list[tuple[int, int]]] = []  # the line and column of each team's members
    top_bias = 0.0
    for lineno, key, value, offset in _key_value_lines(text, source):
        if key == "team":
            tokens = _split_tokens(value)
            if not tokens:
                raise ParseError("team line is empty", path=source, line=lineno, column=offset)
            spots.append([(lineno, offset + col - 1) for _, col in tokens])
            for (tok, _), (line, col) in zip(tokens, spots[-1]):
                if not re.fullmatch(r"[-+]?[0-9]+", tok):
                    message = f"not a player index: {tok!r}"
                    raise ParseError(message, path=source, line=line, column=col)
            teams.append(tuple(int(tok) for tok, _ in tokens))
        elif key == "top_bias":
            tok, col = _single_token(key, value, source, lineno, offset)
            exact = _fraction_token(tok, source, lineno, col)
            try:
                top_bias = float(exact)
                fault = "too close to 0 for a float" if exact and not top_bias else ""
            except OverflowError:
                fault = "past the float range"
            if fault:
                message = f"top_bias is {fault}: {tok!r}"
                raise ParseError(message, path=source, line=lineno, column=col)
        else:
            raise ParseError(f"unknown key {key!r}", path=source, line=lineno, column=1)
    if not teams:
        raise ParseError("no team lines found", path=source, line=1, column=1)
    try:
        return TeamStructure(teams=tuple(teams), top_bias=top_bias)
    except ValueError as exc:
        # TeamStructure refuses the first team with a repeat, else a negative index
        faults = (
            [j for j, i in enumerate(t) if i in t[:j]] or [j for j, i in enumerate(t) if i < 0]
            for t in teams
        )
        line, col = next((at[bad[0]] for at, bad in zip(spots, faults) if bad), (1, 1))
        raise ParseError(str(exc), path=source, line=line, column=col) from None


def load_team_structure(path: PathLike) -> TeamStructure:
    return parse_team_structure(_read_text(path), source=str(path))


class _CsvText:
    """The rows of a CSV text, one list of cells per line, and its ``#`` comment lines.

    A line that starts with ``#`` is a comment, kept without the ``#`` and
    the blanks after it, and a line that is empty or holds only blanks is
    skipped. Every other line is one row, and ``numbers`` holds its line
    number. A row is split at its commas, which is what the CSV reader makes
    of a line with no quote that is no longer than the field size limit;
    any other line goes through the reader, and the first line it refuses
    is an error. A row line that holds a NUL is an error, as the reader of
    Python 3.10 words it, so that no Python version reads it as text.
    """

    def __init__(self, text: str, path: str):
        self.path = path
        self.comments: list[str] = []
        self.numbers: list[int] = []
        self.rows: list[list[str]] = []
        limit = csv.field_size_limit()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if raw.startswith("#"):
                self.comments.append(raw[1:].lstrip())
            elif raw.strip():
                if "\0" in raw:
                    raise self._error("bad CSV row: line contains NUL", lineno)
                plain = '"' not in raw and len(raw) <= limit
                self.rows.append(raw.split(",") if plain else self._read(lineno, raw))
                self.numbers.append(lineno)

    def _error(self, message: str, lineno: int) -> ParseError:
        return ParseError(message, path=self.path, line=lineno, column=1)

    def _read(self, lineno: int, raw: str) -> list[str]:
        try:
            return next(csv.reader([raw]))
        except csv.Error as exc:
            raise self._error(f"bad CSV row: {exc}", lineno) from None

    def body(self, width: int) -> list[list[str]]:
        """The rows after the header; a row of another width than ``width`` is an error at its line."""
        for lineno, row in zip(self.numbers[1:], self.rows[1:]):
            if len(row) != width:
                raise self._error(f"row has {len(row)} cells, header has {width}", lineno)
        return self.rows[1:]


def parse_ballots(text: str, source: str = "<string>") -> list[RankedBallot]:
    """Parse a ballot CSV: one voter per row, labels in preference order."""
    table = _CsvText(text, source)
    if not table.rows:
        raise ParseError("no ballots found", path=source, line=1, column=1)
    ballots = []
    for lineno, cells in zip(table.numbers, table.rows):
        labels = [c.strip() for c in cells if c.strip()]
        if not labels:
            raise ParseError("empty ballot row", path=source, line=lineno, column=1)
        try:
            ballots.append(RankedBallot(tuple(labels)))
        except Exception as exc:
            raise ParseError(str(exc), path=source, line=lineno, column=1) from None
    return ballots


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

    The body is read by columns, taken from the rows of the text. A
    classifier's label or ranking cells are interpreted
    once per distinct cell, and the output keeps the distinct values and a
    row index into them (see :class:`ClassifierOutput`); all numeric cells
    are converted as one block. The :class:`PredictionSet` built at the end
    runs every check on values.
    """
    table = _CsvText(text, source)
    if not table.rows:
        raise ParseError("empty predictions file", path=source, line=1, column=1)
    header_line = table.numbers[0]
    header = [h.strip() for h in table.rows[0]]
    if header[0] != "sample_id":
        raise ParseError(
            "first header column must be sample_id", path=source, line=header_line, column=1
        )
    if len(table.rows) == 1:
        raise ParseError("no data rows", path=source, line=header_line, column=1)
    columns = list(zip(*table.body(len(header))))
    lines = table.numbers[1:]
    n = len(lines)

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

    numeric = sorted(feat_cols + [i for _, form, c in classifiers if form == "proba" for i in c])
    values = {}
    if numeric:
        block = _numbers([columns[i] for i in numeric], lines, [i + 1 for i in numeric], source)
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
        if ranked and len(ranked) < len(cells):
            raise fail(f"column {name!r} mixes plain labels and rankings",
                       column.index(ranked[0]), cols[0])
        empty = [raw for raw, v in cells.items() if not v]
        if empty:
            raise fail(f"empty vote in column {name!r}", column.index(empty[0]), cols[0])
        codes: dict = {}
        code_of = {raw: codes.setdefault(v, len(codes)) for raw, v in cells.items()}
        rows = _read_only(np.fromiter(map(code_of.__getitem__, column), np.intp, n))
        outputs.append(ClassifierOutput("rank" if ranked else "hard", tuple(codes), rows))

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


#: The most bytes of prediction sets a process keeps, each counted as its
#: file's length plus the bytes of every array the set holds.
_KEPT_PREDICTION_BYTES = 16 << 20

#: The SHA-256 digest of a prediction file's bytes -> (the counted bytes of
#: the entry, the validated set parsed from them), oldest first.
_kept_predictions: dict[bytes, tuple[int, PredictionSet]] = {}
_kept_bytes = 0  # the counted bytes of the kept entries, summed
_kept_lock = threading.Lock()


def _entry_bytes(size: int, pred: PredictionSet) -> int:
    """The counted bytes of ``pred``, parsed from ``size`` bytes: those and its arrays' bytes."""
    arrays = [pred.vote_codes, pred.truth_codes, pred.score_tensor(), pred.features]
    arrays += [a for out in pred.outputs for a in (out.rows, out.proba)]
    return size + sum(a.nbytes for a in arrays if a is not None)


def _keep_predictions(key: bytes, size: int, pred: PredictionSet) -> None:
    """Keep ``pred``, parsed from ``size`` bytes, under ``key``."""
    global _kept_bytes
    size = _entry_bytes(size, pred)
    if size > _KEPT_PREDICTION_BYTES:
        return
    with _kept_lock:
        if key in _kept_predictions:  # another thread parsed the same bytes
            return
        _kept_predictions[key] = size, pred
        _kept_bytes += size
        while _kept_bytes > _KEPT_PREDICTION_BYTES:
            _kept_bytes -= _kept_predictions.pop(next(iter(_kept_predictions)))[0]


def load_predictions(path: PathLike) -> PredictionSet:
    """The :class:`PredictionSet` of a predictions CSV (see :func:`parse_predictions`).

    A process parses and validates the same bytes once, whatever the path
    they were read from. It keeps each validated set, keyed by the SHA-256
    digest of the file's bytes, and a load of kept bytes returns that same
    set: a set is frozen, and every array it holds is a read-only view of a
    read-only owner. An entry counts as the file's length plus the bytes of
    every array of the set (codes, scores, features, outputs), and entries
    are kept up to 16 MiB in all; the oldest entry is dropped first, and a
    larger one is parsed but not kept. A file that fails to parse or
    validate is never kept, so it fails again at the same line and column.
    """
    data = Path(path).read_bytes()
    import hashlib  # here, not at start-up: only prediction files are digested

    key = hashlib.sha256(data).digest()
    with _kept_lock:
        kept = _kept_predictions.get(key)
    if kept is not None:
        return kept[1]
    pred = parse_predictions(_text(data), source=str(path))
    _keep_predictions(key, len(data), pred)
    return pred


def dump_predictions(pred: PredictionSet) -> str:
    """Serialize a prediction set to CSV text that parses back equal.

    A sample id that starts with ``#`` is quoted. A set that no text parses
    back to raises :class:`DataError`, which names the sample, classifier or
    label at fault: an empty sample id, text with surrounding blanks, a line
    break or a NUL, a voted label holding ``>``, a classifier name that reads
    as another column, labels out of sorted order, or labels that no cell
    shows.
    """
    labels = pred.labels
    if list(labels) != sorted(labels):
        raise DataError(f"labels {list(labels)} are not sorted, and they parse back sorted")
    for lab in labels:
        if _unreadable(lab, strips=True):
            raise DataError(f"label {lab!r} has surrounding blanks, a line break or a NUL")
    for s, sid in enumerate(pred.sample_ids):
        if not sid or _unreadable(sid, strips=True):
            raise DataError(f"sample {s} has the id {sid!r}, which does not parse back")
    header = ["sample_id"]
    columns = [pred.sample_ids]
    shown: set = set()
    if pred.true_labels is not None:
        header.append("true_label")
        columns.append(["" if t is None else t for t in pred.true_labels])
        shown.update(pred.true_labels)
    if pred.features is not None:
        if not pred.features.shape[1]:
            raise DataError("a feature matrix with no columns does not parse back")
        header += [f"feat_{j}" for j in range(pred.features.shape[1])]
        columns += [list(map(repr, col.tolist())) for col in pred.features.T]
    for name, out in zip(pred.classifier_names, pred.outputs):
        form = "proba" if out.kind == "proba" else "vote"
        heads = [f"{name}:{lab}" for lab in labels] if form == "proba" else [name]
        if _unreadable(name, strips=True) or any(
            _column_kind(h) != form or h.split(":", 1)[0] != name for h in heads
        ):
            raise DataError(f"classifier name {name!r} does not parse back as a classifier")
        header += heads
        if out.kind == "proba":
            columns += [list(map(repr, col.tolist())) for col in out.proba.T]
            shown.update(labels)
            continue
        for d, ranking in enumerate(out.rankings):
            for lab in ranking:
                if ">" in lab:
                    raise DataError(
                        f"sample {int(np.argmax(out.rows == d))}: classifier {name!r} votes "
                        f"{lab!r}, and '>' would make it a ranking"
                    )
            shown.update(ranking)
        columns.append(out._per_sample([">".join(r) for r in out.rankings]))
    missing = sorted(set(labels) - shown)
    if missing:
        raise DataError(f"labels {missing} appear in no cell, so they would not parse back")
    if len(set(pred.classifier_names)) != pred.n_classifiers:
        raise DataError(f"classifier names {list(pred.classifier_names)} repeat")
    return _csv_text([header, *zip(*columns)])


def parse_cost_matrix(text: str, source: str = "<string>") -> CostMatrix:
    """Parse a cost CSV with labelled rows and columns.

    The header is an empty cell followed by the predicted labels; each row
    starts with a true label. Labels are reordered to sorted order so the
    matrix aligns with confusion matrices built from predictions.
    """
    table = _CsvText(text, source)
    header_line = table.numbers[0] if table.rows else 1
    if len(table.rows) < 2:
        raise ParseError(
            "cost matrix needs a header and one row per label", path=source, line=header_line, column=1
        )
    header = table.rows[0]
    cols = [h.strip() for h in header[1:]]
    if not cols or any(not c for c in cols):
        raise ParseError("header must list predicted labels", path=source, line=header_line, column=1)
    n_rows = len(table.rows) - 1
    if n_rows != len(cols):
        raise ParseError(
            f"{n_rows} rows for {len(cols)} labels", path=source, line=header_line, column=1
        )
    body = list(zip(*table.body(len(header))))
    lines = table.numbers[1:]
    rows: dict[str, int] = {}  # row label -> row
    for lineno, cell in zip(lines, body[0]):
        rlab = cell.strip()
        if rlab in rows:
            raise ParseError(f"duplicate row label {rlab!r}", path=source, line=lineno, column=1)
        rows[rlab] = len(rows)
    values = _numbers(body[1:], lines, range(2, len(header) + 1), source)  # [column, row]
    if sorted(rows) != sorted(cols):
        raise ParseError(
            f"row labels {sorted(rows)} do not match column labels {sorted(cols)}",
            path=source,
            line=header_line,
            column=1,
        )
    labels = tuple(sorted(cols))
    gains = values[np.ix_([cols.index(p) for p in labels], [rows[t] for t in labels])].T
    return CostMatrix(labels, gains)


def load_cost_matrix(path: PathLike) -> CostMatrix:
    return parse_cost_matrix(_read_text(path), source=str(path))


def dump_cost_matrix(cost: CostMatrix) -> str:
    """CSV text that parses back to the same gain per label pair, or a :class:`DataError` naming a label."""
    for lab in cost.labels:
        if fault := _unreadable(lab, strips=True):
            raise DataError(f"cost label {lab!r} has {fault}: it does not parse back")
    gains = ([lab] + [repr(float(x)) for x in row] for lab, row in zip(cost.labels, cost.gains))
    return _csv_text([[""] + list(cost.labels), *gains])


@dataclass(frozen=True)
class Report:
    """A CSV report: leading ``#`` comment lines, a header, and string rows."""

    comments: tuple[str, ...]
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_text(self) -> str:
        """The report as CSV text, one line per comment and row.

        Raises :class:`DataError`, naming the text, where the parser would not
        read the report back: a comment that starts with a blank, a comment or
        cell that holds a line break, a cell that holds a NUL, a row of another
        width than the header, and a row that is empty or holds only blanks.
        """
        for c in self.comments:  # the parser keeps a NUL in a comment
            fault = "a blank at its start" if c[:1].isspace() else _unreadable(c, strips=False)
            if fault and fault != "a NUL":
                raise DataError(f"report comment {c!r} has {fault}: it does not parse back")
        ragged = next((row for row in self.rows if len(row) != len(self.header)), None)
        if ragged is not None:
            raise DataError(f"report row {ragged!r} has {len(ragged)} cells, header has "
                            f"{len(self.header)}: it does not parse back")
        try:
            body = _csv_text((self.header, *self.rows))
        except csv.Error:  # the writer of Python 3.10 refuses a NUL
            body = "\0"
        # the writer ends lines with a bare \n, so a \r\n ends a cell in \r
        if "\0" in body or "\r\n" in body or len(body.splitlines()) != len(self.rows) + 1:
            cells = (c for row in (self.header, *self.rows) for c in row)
            bad, fault = next((c, f) for c in cells if (f := _unreadable(c, strips=False)))
            raise DataError(f"report cell {bad!r} has {fault}: it does not parse back")
        lines = "\n" + body  # so that the header line, too, follows a line break
        blank = re.search(r"\n[^\S\n]*\n", lines)  # a line that is empty or holds only blanks
        if blank:
            row = (self.header, *self.rows)[lines.count("\n", 0, blank.start())]
            raise DataError(f"report row {row!r} is blank: it does not parse back")
        return "".join(f"# {c}\n" for c in self.comments) + body


def parse_report(text: str, source: str = "<string>") -> Report:
    table = _CsvText(text, source)
    if not table.rows:
        raise ParseError("report has no header row", path=source, line=1, column=1)
    header = tuple(table.rows[0])
    body = tuple(map(tuple, table.body(len(header))))
    return Report(tuple(table.comments), header, body)


def read_report(path: PathLike) -> Report:
    """The report a file holds; a file of :meth:`Report.to_text` reads back as the report written."""
    return parse_report(_read_text(path), source=str(path))
