"""Property test: ``check`` answers every instance document with exit code
0, 1 or 2 and never raises; exit 1 comes with one ``error:`` line."""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from p2pstorage.cli import main

# Values a field may wrongly take: bools, fractions, NaN and inf, strings,
# null and containers.  Large integral values would be read as a unit
# count and are left out.
_junk = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.7, 2.0, -1]),
    st.floats(-1.0, 12.0),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def _junk_value(draw, doc, n):
    gen = doc.get("generator")
    target = gen if isinstance(gen, dict) and draw(st.booleans()) else doc
    if target:
        target[draw(st.sampled_from(sorted(target)))] = draw(_junk)


def _wrong_length(draw, doc, n):
    length = draw(st.sampled_from([0, n - 1, n + 1]))
    doc[draw(st.sampled_from(["alpha", "beta", "lambda"]))] = [1] * length


def _missing_key(draw, doc, n):
    if doc:
        del doc[draw(st.sampled_from(sorted(doc)))]


def _lambda_beyond_floats(draw, doc, n):
    doc["lambda"] = 10**400


def _unknown_key(draw, doc, n):
    gen = doc.get("generator")
    target = gen if isinstance(gen, dict) and draw(st.booleans()) else doc
    target["mystery"] = 1


def _both_sources(draw, doc, n):
    doc["edges" if "generator" in doc else "generator"] = {"kind": "line", "n": n}


def _bad_edge(draw, doc, n):
    if isinstance(doc.get("edges"), list):
        doc["edges"].append(draw(st.lists(st.integers(-1, n), max_size=3)))


_CORRUPTIONS = [
    _junk_value,
    _wrong_length,
    _missing_key,
    _lambda_beyond_floats,
    _unknown_key,
    _both_sources,
    _bad_edge,
]


@st.composite
def instance_docs(draw, valid=False):
    """A valid document of at most 12 units, the same with up to three
    corruptions, or now and then a junk value in place of the document;
    only the first with ``valid``."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pairs = [[x, y] for x in range(n) for y in range(n) if x != y]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
        doc = {"n": n, "edges": edges}
    else:
        gen = {"kind": draw(st.sampled_from(["complete", "line", "random_regular"])), "n": n}
        if gen["kind"] == "random_regular":
            gen["d"] = draw(st.integers(0, n - 1))
            gen["seed"] = draw(st.integers(0, 10**6))
        doc = {"generator": gen}
    for key, value in (("alpha", st.integers(0, 4)), ("beta", st.integers(0, 4)),
                       ("lambda", st.floats(0.0, 2.0))):
        doc[key] = draw(st.one_of(value, st.lists(value, min_size=n, max_size=n)))
    if valid:
        return doc
    for corrupt in draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=3)):
        corrupt(draw, doc, n)
    return draw(st.one_of(st.just(doc), _junk)) if draw(st.integers(0, 19)) == 19 else doc


@settings(max_examples=200, deadline=None)
@given(doc=instance_docs())
def test_check_exits_with_a_code_and_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "check_never_raises.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
