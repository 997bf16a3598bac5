"""Property test: ``simulate`` answers every experiment spec with exit code
0 or 1 and never raises; exit 1 comes with one ``error:`` line."""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st
from test_check_never_raises import _junk, instance_docs

from p2pstorage.cli import main
from p2pstorage.dynamics import VARIANTS

# Horizon expressions that must be refused: syntax the evaluator does not
# take, division by zero, non-finite or fractional values, and integers
# too large for a float in float arithmetic.
_BAD_EXPRESSIONS = [
    "",
    "2*",
    "((n)",
    "x",
    "2**3",
    "__import__('os')",
    "sum_alpha/0",
    "n//0",
    "1e400",
    "1e400-1e400",
    "n/7",
    "-n",
    "sum_alpha*0.5",
    "9" * 400 + "/7",
    "1.5*" + "9" * 400,
]

# Horizons stay small, at most 3 * sum_alpha + 7 steps, so that a hundred
# specs run in about a second.
_horizons = st.one_of(
    st.integers(0, 200),
    st.builds("{}{}{}".format, st.sampled_from(["n", "sum_alpha", "7"]),
              st.sampled_from("+-*/"), st.integers(0, 3)),
)

# Each branch builds a new dict per draw: the corruptions below edit the
# drawn spec in place, and a shared dict (``st.just({...})``) would carry
# every edit into later examples and make replays draw differently.
_INFINITE = st.fixed_dictionaries({"kind": st.just("infinite")})
_schedules = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed"), "gamma0": st.floats(0.1, 5.0)}),
    st.fixed_dictionaries({"kind": st.just("annealed")}, optional={
        "gamma0": st.floats(0.1, 5.0), "increment": st.floats(0.0, 0.1)}),
    _INFINITE,
)


def _target(draw, doc):
    # The spec itself or one of its mappings.
    inner = [doc[k] for k in ("params", "schedule") if isinstance(doc.get(k), dict)]
    return draw(st.sampled_from([doc] + inner))


def _junk_value(draw, doc):
    target = _target(draw, doc)
    if target:
        target[draw(st.sampled_from(sorted(target)))] = draw(_junk)


def _missing_key(draw, doc):
    target = _target(draw, doc)
    if target:
        del target[draw(st.sampled_from(sorted(target)))]


def _unknown_key(draw, doc):
    _target(draw, doc)["mystery"] = 1


def _malformed_instance(draw, doc):
    doc["instance"] = draw(instance_docs())


def _instance_path(draw, doc):
    doc["instance"] = {"path": draw(st.one_of(_junk, st.just("missing.json")))}


def _bad_horizon(draw, doc):
    doc["horizon"] = draw(st.sampled_from(_BAD_EXPRESSIONS))


_CORRUPTIONS = [
    _junk_value,
    _missing_key,
    _unknown_key,
    _malformed_instance,
    _instance_path,
    _bad_horizon,
]


@st.composite
def spec_docs(draw):
    """A valid spec (an inline instance, params, a schedule of each kind, a
    variant, a small horizon, one or two replications and a seed), the same
    with up to two corruptions, or now and then junk in its place."""
    doc = {
        "instance": draw(instance_docs(valid=True)),
        "params": {"k_c": draw(st.floats(0.0, 2.0)), "k_a": draw(st.floats(0.0, 2.0))},
        "schedule": draw(_schedules),
        "variant": draw(st.sampled_from(VARIANTS)),
        "horizon": draw(_horizons),
        "replications": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 10**6)),
    }
    for corrupt in draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=2)):
        corrupt(draw, doc)
    return draw(_junk) if draw(st.integers(0, 29)) == 29 else doc


# The override flags, each drawn from values its argparse type accepts, so
# that every refusal comes from the program's own checks.
_GAMMAS = st.one_of(st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]), st.floats())
_FLAGS = {
    "--seed": st.integers(-10**6, 10**6),
    "--replications": st.integers(-1, 2),
    "--variant": st.sampled_from(VARIANTS),
    "--horizon": st.one_of(_horizons, st.sampled_from(_BAD_EXPRESSIONS)),
    "--gamma0": _GAMMAS,
    "--gamma-increment": _GAMMAS,
}


@st.composite
def override_flags(draw):
    """A subset of the override flags, as ``--flag=value`` arguments (the
    one form argparse takes for a value that starts with a minus sign)."""
    flags = draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True))
    return [f"{flag}={draw(_FLAGS[flag])}" for flag in flags]


@settings(max_examples=150, deadline=None)
@given(doc=spec_docs(), flags=override_flags())
def test_simulate_exits_with_a_code_and_never_raises(tmp_path_factory, doc, flags):
    base = tmp_path_factory.getbasetemp()
    path = base / "simulate_never_raises.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--out", str(base / "simulate_out"),
                     "--workers", "1"] + flags)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_corrupted_specs_leave_later_infinite_schedules_fresh(data):
    for _ in range(10):
        doc = data.draw(spec_docs())
        if isinstance(doc, dict) and isinstance(doc.get("schedule"), dict):
            doc["schedule"]["mystery"] = 1  # the edit a corruption may make
    assert data.draw(_INFINITE) == {"kind": "infinite"}
