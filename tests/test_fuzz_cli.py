"""Fuzz the instance parsers through the CLI.

Property: generated `.gfm` text, `.graph` text with `@gf<q>` suffixes and
`gen:` ids end in a report (exit 0) or a structured JSON error (exit 2),
never in an exception.  Header integers stay small, so every example is
cheap; the seeds are fixed, so the suite runs the same examples each time.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from gfmatroids.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_SMALL = st.integers(-2, 6)
_ENTRY = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(["x", "1.5", "=", "labels"]))
_STRAY = st.lists(st.sampled_from(["x", "=", "q", "n=1=2", "modulus=x"]), max_size=1)
_SUFFIX = st.sampled_from(["", "@gf2", "@gf3", "@gf4", "@gf8", "@gf6", "@gf257", "@gf", "@gfx"])
_FIELD = st.sampled_from([[], ["--field", "2"], ["--field", "4"], ["--field", "8:13"],
                          ["--field", "4:-1"], ["--field", "6"]])


def _lines(draw, max_lines=5):
    return [" ".join(draw(st.lists(_ENTRY, max_size=5))) for _ in range(draw(st.integers(0, max_lines)))]


@st.composite
def gfm_texts(draw):
    head = [f"q={draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 8, 9, 27, 251, 256, 257]))}",
            f"rows={draw(_SMALL)}", f"cols={draw(_SMALL)}"]
    if draw(st.booleans()):
        head.append(f"modulus={draw(st.integers(-3, 40))}")
    lines = ["gfm " + " ".join(draw(st.permutations(head + draw(_STRAY))))]
    if draw(st.booleans()):
        lines.append(" ".join(["labels"] + [f"l{j % 4}" for j in range(draw(st.integers(0, 5)))]))
    return "\n".join(lines + _lines(draw)) + "\n"


@st.composite
def graph_texts(draw):
    head = [f"n={draw(_SMALL)}", f"m={draw(_SMALL)}"] + draw(_STRAY)
    lines = ["graph " + " ".join(draw(st.permutations(head)))]
    return "\n".join(lines + _lines(draw, max_lines=6)) + "\n"


_GEN_IDS = st.one_of(
    st.sampled_from(["k3", "k4", "petersen", "cube", "heawood", "mystery", ""]),
    st.builds("mk{}{}".format, _SMALL, st.sampled_from(["", "_dual"])),
    st.builds("pg_{}_{}".format, st.integers(-1, 2), _SMALL),
    st.builds("u_{}_{}".format, _SMALL, _SMALL),
)


def _outcome(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    rep = json.loads(out.getvalue())
    if code == 0:
        assert "girth" in rep
    else:
        assert code == 2
        assert set(rep) == {"error"}
        assert isinstance(rep["error"]["type"], str) and rep["error"]["message"]


@FUZZ
@given(text=st.one_of(gfm_texts(), st.text(max_size=30).map("gfm ".__add__)), field=_FIELD)
@example(text="gfm q=2 rows=100000000 cols=100000000\n0\n", field=[])
@example(text="gfm q=2 rows=0 cols=2000000\n", field=[])
def test_gfm_text_gives_report_or_structured_error(tmp_path_factory, text, field):
    path = tmp_path_factory.getbasetemp() / "fuzz.gfm"
    path.write_text(text)
    _outcome(["girth", str(path), *field])


@FUZZ
@given(text=graph_texts(), suffix=_SUFFIX, field=_FIELD)
def test_graph_text_gives_report_or_structured_error(tmp_path_factory, text, suffix, field):
    path = tmp_path_factory.getbasetemp() / "fuzz.graph"
    path.write_text(text)
    _outcome(["girth", f"{path}{suffix}", *field])


@FUZZ
@given(gen_id=_GEN_IDS, suffix=_SUFFIX, field=_FIELD)
@example(gen_id="mk100000", suffix="", field=[])
@example(gen_id="mk400_dual", suffix="@gf3", field=[])
@example(gen_id="u_0_100000000", suffix="@gf2", field=[])
@example(gen_id="u_1_100000000", suffix="", field=["--field", "4"])
def test_gen_id_gives_report_or_structured_error(gen_id, suffix, field):
    _outcome(["girth", f"gen:{gen_id}{suffix}", *field])
