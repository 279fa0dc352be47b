"""Fuzz the JSON front door: mutated datum JSON through decompose, verify
and invariants, run in process.

Every run must end in a documented exit code (0 ok, 1 verification
failure, 2 invalid input, 3 inconsistency) with no uncaught exception,
and a refusal is one line on stderr.
"""

import contextlib
import copy
import io
import json
import math
import signal

import pytest

from galmod.cli import main
from galmod.datum import datum_to_json
from galmod.decompose import decompose, decomposition_to_json
from galmod.synth import SynthParams, synthesize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = (
    SynthParams(p=3, n=1, m=0, e=(1, 1), shuffle_seed=5),
    SynthParams(p=2, n=2, m=None, e=(1, 1, 1), xi_in_F=False),
)
INTER_NORM_KEYS = ("0", "1", "2", "-1", "5", "x", "", "100000000000000000000")
TOP_FIELDS = ("p", "n", "xi_in_F", "minus_one_is_norm", "sigma", "levels")
LEVEL_FIELDS = ("dim", "sigma_i", "eps", "norm", "inter_norm", "a_class")
KINDS = ("type", "delete", "entry", "shape", "scalar", "levels", "inter_norm")

# values a hand-edited file might hold in place of the right one
json_values = st.one_of(
    st.sampled_from([
        None, True, -1, 0, 1, 2, 7, 2**63, -(2**63) - 1, 10**30, 1.5,
        math.inf, math.nan, "", "1", [], [1], [[1]], {}, {"0": [[1]]},
    ]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 7), st.floats(), st.text(max_size=2)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(INTER_NORM_KEYS), inner, max_size=2),
        ),
        max_leaves=6,
    ),
)
scalars = st.one_of(st.integers(-2, 8), st.sampled_from([2**31, 10**20, 2**63]))


def _levels(obj):
    levels = obj.get("levels")
    return [lv for lv in levels if isinstance(lv, dict)] if isinstance(levels, list) else []


def _fields(obj):
    """(container, key) of every schema field present in obj."""
    places = [(obj, k) for k in TOP_FIELDS if k in obj]
    return places + [(lv, k) for lv in _levels(obj) for k in LEVEL_FIELDS if k in lv]


def _arrays(obj):
    """(container, key) of every matrix and vector present in obj."""
    places = [(obj, "sigma")] if isinstance(obj.get("sigma"), list) else []
    for lv in _levels(obj):
        places += [
            (lv, k) for k in ("sigma_i", "eps", "norm", "a_class") if isinstance(lv.get(k), list)
        ]
        inter = lv.get("inter_norm")
        if isinstance(inter, dict):
            places += [(inter, k) for k in inter if isinstance(inter[k], list)]
    return places


def _pick(draw, places):
    return draw(st.sampled_from(places)) if places else (None, None)


def _reshape(draw, array):
    rows = [row for row in array if isinstance(row, list)] or [array]
    op = draw(st.sampled_from(["drop row", "copy row", "drop column", "add column"]))
    if op == "drop row" and array:
        array.pop(draw(st.integers(0, len(array) - 1)))
    elif op == "copy row" and array:
        array.append(copy.deepcopy(array[draw(st.integers(0, len(array) - 1))]))
    elif op == "drop column":
        for row in rows:
            if row:
                row.pop()
    elif op == "add column":
        for row in rows:
            row.append(0)


def _mutate(kind, draw, obj):
    """Apply one mutation of the given kind to obj in place."""
    if kind in ("type", "delete"):
        node, key = _pick(draw, _fields(obj))
        if node is not None and kind == "type":
            node[key] = draw(json_values)
        elif node is not None:
            del node[key]
    elif kind in ("entry", "shape"):
        node, key = _pick(draw, _arrays(obj))
        if node is None or not node[key]:
            return
        if kind == "shape":
            _reshape(draw, node[key])
            return
        array = node[key]
        i = draw(st.integers(0, len(array) - 1))
        if isinstance(array[i], list) and array[i]:
            array, i = array[i], draw(st.integers(0, len(array[i]) - 1))
        array[i] = draw(json_values)
    elif kind == "scalar":
        key = draw(st.sampled_from(["p", "n", "dim"]))
        node = obj if key != "dim" else draw(st.sampled_from(_levels(obj) or [{}]))
        node[key] = draw(scalars)
    elif kind == "levels":
        levels = obj["levels"]
        op = draw(st.sampled_from(["drop", "copy", "swap"]))
        i = draw(st.integers(0, len(levels) - 1))
        if op == "drop":
            levels.pop(i)
        elif op == "copy":
            levels.insert(i, copy.deepcopy(levels[i]))
        else:
            levels[i], levels[-1] = levels[-1], levels[i]
    elif kind == "inter_norm":
        level = draw(st.sampled_from(_levels(obj) or [{}]))
        inter = level.get("inter_norm")
        if not isinstance(inter, dict) or draw(st.booleans()):
            level["inter_norm"] = draw(json_values)
        else:
            value = draw(st.one_of(json_values, st.sampled_from(list(inter.values()) or [[[1]]])))
            inter[draw(st.sampled_from(INTER_NORM_KEYS))] = value
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")


def _commands(datum_path, dec_path):
    return (
        ["decompose", "--in", str(datum_path)],
        ["verify", "--in", str(datum_path), "--decomposition", str(dec_path)],
        ["invariants", "--in", str(datum_path)],
    )


class Hung(BaseException):
    """A command ran far longer than any command on these inputs should
    (a BaseException, so no handler in the CLI turns it into an exit code)."""


def _alarm(signum, frame):
    raise Hung("command still running after 60 s")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(datum JSON, decomposition path) for each base datum."""
    out = []
    for idx, params in enumerate(BASES):
        d = synthesize(params)
        dec_path = tmp_path_factory.mktemp("fuzz") / f"dec{idx}.json"
        dec_path.write_text(json.dumps(decomposition_to_json(decompose(d))))
        out.append((datum_to_json(d), dec_path))
    return out


@pytest.mark.parametrize("kind", KINDS)
@hypothesis.settings(
    max_examples=14,  # 98 examples over the seven kinds
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(data=st.data())
def test_mutated_datum_json_exits_cleanly(bases, tmp_path, kind, data):
    datum_json, dec_path = data.draw(st.sampled_from(bases))
    obj = copy.deepcopy(datum_json)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(kind, data.draw, obj)
    datum_path = tmp_path / "datum.json"
    datum_path.write_text(json.dumps(obj))
    for argv in _commands(datum_path, dec_path):
        rc, err = _run(argv)
        assert rc in (0, 1, 2, 3), (argv[0], rc)
        if rc in (2, 3):
            assert err.count("\n") == 1 and "Traceback" not in err, (argv[0], err)


def test_unmutated_bases_pass_every_command(bases, tmp_path):
    for datum_json, dec_path in bases:
        datum_path = tmp_path / "datum.json"
        datum_path.write_text(json.dumps(datum_json))
        for argv in _commands(datum_path, dec_path):
            assert _run(argv) == (0, ""), argv[0]
