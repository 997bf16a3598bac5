"""Property test: ``verify`` answers every small instance document and
flag set with exit code 0, 1 or 2 and never raises; exit 1 comes with one
``error:`` line unless argparse refused a flag with a usage message."""

import contextlib
import io
import json
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_check_never_raises import instance_docs

from p2pstorage import analysis
from p2pstorage.cli import main

# Per flag, values the program must take and values it must refuse, some
# of them refused by argparse itself ("abc").
_FLAGS = {
    "--gamma": ["1.0", "inf", "0", "nan", "1e308", "abc"],
    "--k-c": ["0", "1", "0.45", "-1", "nan", "inf", "abc"],
    "--k-a": ["0", "0.45", "-1", "nan", "abc"],
    "--empirical-steps": ["0", "50", "-3"],
    "--empirical-tol": ["0.05", "1", "0", "nan", "abc"],
}


@st.composite
def verify_flags(draw):
    """A subset of the flags, as ``--flag=value`` arguments (the one form
    argparse takes for a value that starts with a minus sign)."""
    flags = draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True))
    return [f"{flag}={draw(st.sampled_from(_FLAGS[flag]))}" for flag in flags]


def _more_than_five_units(doc) -> bool:
    # Whether the document or its generator names more than 5 units.
    if not isinstance(doc, dict):
        return False
    gen = doc.get("generator")
    counts = [doc.get("n"), gen.get("n") if isinstance(gen, dict) else None]
    return any(isinstance(c, (int, float)) and c > 5 for c in counts)


def _verify_exits_cleanly(path, flags, kernel_limit=analysis.KERNEL_ENTRY_LIMIT) -> None:
    # A few thousand states keep every kernel small; larger spaces are refused.
    err = io.StringIO()
    with mock.patch.object(analysis, "STATE_SPACE_LIMIT", 3000), \
            mock.patch.object(analysis, "KERNEL_ENTRY_LIMIT", kernel_limit), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["verify", str(path)] + flags)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1 and not err.getvalue().startswith("usage:"):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@settings(max_examples=200, deadline=None)
@given(doc=instance_docs(), flags=verify_flags())
def test_verify_exits_with_a_code_and_never_raises(tmp_path_factory, doc, flags):
    assume(not _more_than_five_units(doc))
    path = tmp_path_factory.getbasetemp() / "verify_never_raises.json"
    path.write_text(json.dumps(doc))
    _verify_exits_cleanly(path, flags)


@st.composite
def wide_docs(draw):
    """The wide shape: up to three units with up to three atoms each, each
    storing on its own subset of up to 40 resources of equal capacity."""
    units, resources = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    slots = st.sets(st.integers(units, units + resources - 1), max_size=resources)
    return {
        "n": units + resources,
        "edges": [[x, y] for x in range(units) for y in sorted(draw(slots))],
        "alpha": [draw(st.integers(0, 3)) for _ in range(units)] + [0] * resources,
        "beta": draw(st.integers(0, 4)),
        "lambda": 1.0,
    }


@settings(max_examples=100, deadline=None)
@given(doc=wide_docs(), flags=verify_flags())
def test_verify_on_wide_documents_exits_with_a_code_and_never_raises(
    tmp_path_factory, doc, flags
):
    # Few states but many moves each: the kernel guard, lowered to 20,000
    # entries here, refuses what the state guard lets through.
    path = tmp_path_factory.getbasetemp() / "verify_never_raises_wide.json"
    path.write_text(json.dumps(doc))
    _verify_exits_cleanly(path, flags, kernel_limit=20_000)
