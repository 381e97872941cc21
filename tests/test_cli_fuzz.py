"""The command line under fuzzing: argv from the parser's own options, over mutated input files.

Whatever the draw, ``main`` returns 0, 2, 3 or 4 and raises nothing. An exit
of 3 or 4 writes exactly one line to stderr, ``error: ...``, and an error
about an input file names it as ``path:line:col``. Input files start from
small valid seeds; a draw swaps some of their tokens for adversarial ones,
and may add blank lines, CRLF line ends or a byte order mark. Sizes stay
small so that every run is cheap: at most 6 judges, 4 candidates, 4 voters,
5 rule voters and 300 trials.
"""

import argparse
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from votefuse.cli import build_parser, main

SEEDS = {
    "game": "weights = 2 1 1\nquota = 2\n",
    "teams": "team = 0 1\nteam = 2\ntop_bias = 1/2\n",
    "predictions": (
        "sample_id,true_label,feat_0,c1,c2,p:n,p:y\n"
        "s1,y,0.5,y,y,0.2,0.8\n"
        "s2,n,1.5,n,n,0.9,0.1\n"
        "s3,y,-1,y,n,0.4,0.6\n"
        "s4,n,2,n,y,0.5,0.5\n"
    ),
    "cost": ",n,y\nn,1.0,0.0\ny,0.0,1.0\n",
}

#: The input file each file option reads, by its destination.
FILES = {
    "game": "game",
    "teams": "teams",
    "predictions": "predictions",
    "validation": "predictions",
    "cost": "cost",
}

ADVERSARIAL = ["inf", "nan", "1e400", "-1e-400", "1e30", "1/0", "1_000", "\u0661", "-1", "x", ""]
#: Plain values come up twice as often as each adversarial token.
NUMBER = st.sampled_from(["0", "1", "2", "0.5", "0.6", "0.9", "-0.5", "3/2"] * 2 + ADVERSARIAL)

#: Values of the options that take one, by destination; ``output`` stays stdout.
VALUES = {
    "seed": st.integers(-1, 2**32),
    "trials": st.integers(-1, 300),
    "n": st.integers(-1, 5),
    "max_weight": st.integers(-1, 6),
    "candidates": st.integers(-1, 4),
    "voters": st.integers(-1, 4),
    "k": st.integers(-1, 5),
    "output": st.just("-"),
    "scoring": st.sampled_from(["borda", "plurality", "2,1,0", "1,0,0,0", "2,x,0", "3/2,1,0", ""]),
    "skills": st.lists(NUMBER, min_size=1, max_size=6).map(",".join),
    "weights": st.lists(NUMBER, min_size=1, max_size=6).map(",".join),
}

TOKEN = re.compile(r"[^\s,=]+")


@st.composite
def input_text(draw, kind: str) -> str:
    """A seed file with some tokens swapped, and maybe blank lines, CRLF and a BOM."""
    text = SEEDS[kind]
    spans = [m.span() for m in TOKEN.finditer(text)]
    picks = draw(st.lists(st.integers(0, len(spans) - 1), max_size=3, unique=True))
    for k in sorted(picks, reverse=True):
        a, b = spans[k]
        text = text[:a] + draw(st.sampled_from(ADVERSARIAL)) + text[b:]
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def _arguments(draw, parser: argparse.ArgumentParser) -> list:
    """Options of ``parser`` with drawn values; a file option's value is ``{kind}``."""
    argv = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            name = draw(st.sampled_from(sorted(action.choices)))
            argv += [name, *_arguments(draw, action.choices[name])]
            continue
        # a required option is left out now and then, for the usage error
        if not draw(st.sampled_from([True] * 9 + [False]) if action.required else st.booleans()):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            argv.append(flag)
        elif action.dest in FILES:
            argv += [flag, "{%s}" % FILES[action.dest]]
        elif action.choices is not None:
            argv += [flag, draw(st.sampled_from([*action.choices] * 4 + ["bogus"]))]
        else:
            argv += [flag, str(draw(VALUES.get(action.dest, NUMBER)))]
    return argv


@st.composite
def cli_calls(draw):
    """An argv for ``main`` and the text of each input file it may read."""
    texts = {kind: draw(input_text(kind)) for kind in SEEDS}
    return _arguments(draw, build_parser()), texts


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cli_calls())
@example((["efficiency", "-m", "3", "--voters", "3", "--scoring", "2,x,0"], SEEDS))
@example((["jury", "--skills", "0.6,0.7", "--teams", "{teams}"],
          {**SEEDS, "teams": "team = 0 1\nteam = 1\ntop_bias = -1e-400\n"}))
@example((["power", "--game", "{game}"], {**SEEDS, "game": "\ufeffweights = 1_000 1\n"}))
def test_every_call_exits_cleanly(call):
    argv, texts = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: str(Path(tmp, f"{kind}.txt")) for kind in texts}
        for kind, text in texts.items():
            Path(paths[kind]).write_text(text, encoding="utf-8", newline="")
        argv = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (3, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert out.getvalue() == "", argv
        for path in paths.values():
            if path in err:
                assert re.search(re.escape(path) + r":\d+:\d+: ", err), (argv, err)
    if code == 0:
        assert err == "" and out.getvalue().startswith("# command="), (argv, err)
