"""Fuzz the JSON front door, run in process: mutated datum JSON through
decompose, verify and invariants, mutated decomposition JSON through
verify, and mutated module JSON through jordan.

Every run must end in a documented exit code (0 ok, 1 verification
failure, 2 invalid input, 3 inconsistency) with no uncaught exception,
and a refusal is one line on stderr.  An integer replaced by a float or
a bool must be refused (exit 2).
"""

import contextlib
import copy
import io
import json
import math
import signal
import warnings

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
KINDS = ("type", "delete", "entry", "shape", "nonint", "scalar", "levels", "inter_norm")
DEC_FIELDS = ("p", "n", "m", "x_generator", "y_generators")
DEC_KINDS = ("type", "delete", "entry", "shape", "nonint", "scalar", "generators")
MODULE_FIELDS = ("p", "n", "sigma")
MODULE_KINDS = ("type", "delete", "entry", "shape", "nonint", "scalar", "top")
FIELD_KINDS = ("type", "delete", "entry", "shape", "nonint")

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
levels_m = st.sampled_from(["-inf", "n/a", "0", "1", "2", "5", "-1", "x", "", None, 0, 1.5])


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


def _integers(fields, arrays):
    """(container, key) of every integer among the fields and the array entries."""
    places = [(node, key) for node, key in fields if type(node[key]) is int]
    stack = [node[key] for node, key in arrays]
    while stack:
        array = stack.pop()
        for i, v in enumerate(array):
            if isinstance(v, list):
                stack.append(v)
            elif type(v) is int:
                places.append((array, i))
    return places


def _mutate_field(kind, draw, fields, arrays):
    """A type, delete, entry, shape or nonint mutation, in place, of one
    of the (container, key) places listed: fields for the first two,
    arrays for the next two, and nonint replaces an integer in either by
    a float or a bool."""
    if kind == "nonint":
        node, key = _pick(draw, _integers(fields, arrays))
        if node is not None:
            v = node[key]
            node[key] = draw(st.sampled_from([float(v), v + 0.5, True, False]))
        return
    if kind in ("type", "delete"):
        node, key = _pick(draw, fields)
        if node is not None and kind == "type":
            node[key] = draw(json_values)
        elif node is not None:
            del node[key]
        return
    node, key = _pick(draw, arrays)
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


def _mutate(kind, draw, obj):
    """Apply one mutation of the given kind to a datum JSON obj in place."""
    if kind in FIELD_KINDS:
        _mutate_field(kind, draw, _fields(obj), _arrays(obj))
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


def _generators(obj):
    gens = obj.get("y_generators")
    return [g for g in gens if isinstance(g, dict)] if isinstance(gens, list) else []


def _mutate_decomposition(kind, draw, obj):
    """Apply one mutation of the given kind to a decomposition JSON obj in place."""
    if kind in FIELD_KINDS:
        fields = [(obj, k) for k in DEC_FIELDS if k in obj]
        fields += [(g, k) for g in _generators(obj) for k in ("level", "coords") if k in g]
        vectors = [(obj, "x_generator")] if isinstance(obj.get("x_generator"), list) else []
        vectors += [(g, "coords") for g in _generators(obj) if isinstance(g.get("coords"), list)]
        _mutate_field(kind, draw, fields, vectors)
    elif kind == "scalar":
        key = draw(st.sampled_from(["p", "n", "m", "level"]))
        if key == "m":
            obj["m"] = draw(levels_m)
        else:
            node = obj if key != "level" else draw(st.sampled_from(_generators(obj) or [{}]))
            node[key] = draw(scalars)
    elif kind == "generators":
        gens = obj["y_generators"]
        op = draw(st.sampled_from(["drop", "copy", "swap", "clear"]))
        if op == "clear" or not gens:
            gens.clear()
            return
        i = draw(st.integers(0, len(gens) - 1))
        if op == "drop":
            gens.pop(i)
        elif op == "copy":
            gens.insert(i, copy.deepcopy(gens[i]))
        else:
            gens[i], gens[-1] = gens[-1], gens[i]
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")


def _mutate_module(kind, draw, obj):
    """One mutation of the given kind to a module JSON obj; returns the result."""
    if kind == "top":
        return draw(json_values)
    if not isinstance(obj, dict):
        return obj
    if kind in FIELD_KINDS:
        fields = [(obj, k) for k in MODULE_FIELDS if k in obj]
        arrays = [(obj, "sigma")] if isinstance(obj.get("sigma"), list) else []
        _mutate_field(kind, draw, fields, arrays)
    elif kind == "scalar":
        obj[draw(st.sampled_from(["p", "n"]))] = draw(scalars)
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    return obj


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
    """(exit code, stderr) of one in-process CLI run.  A warning would be
    one more stderr line outside pytest, so it fails the run here."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not caught, (argv[0], [str(w.message) for w in caught])
    return rc, err.getvalue()


def _check_exit(argv, kind):
    rc, err = _run(argv)
    assert rc in ((2,) if kind == "nonint" else (0, 1, 2, 3)), (argv[0], rc)
    assert "Traceback" not in err, (argv[0], err)
    if rc in (2, 3):
        assert err.count("\n") == 1, (argv[0], err)


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
    max_examples=14,  # 112 examples over the eight kinds
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
        _check_exit(argv, kind)


def test_unmutated_bases_pass_every_command(bases, tmp_path):
    for datum_json, dec_path in bases:
        datum_path = tmp_path / "datum.json"
        datum_path.write_text(json.dumps(datum_json))
        for argv in _commands(datum_path, dec_path):
            assert _run(argv) == (0, ""), argv[0]


FUZZ_SETTINGS = hypothesis.settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("kind", DEC_KINDS)
@FUZZ_SETTINGS
@hypothesis.given(data=st.data())
def test_mutated_decomposition_json_exits_cleanly(bases, tmp_path, kind, data):
    datum_json, dec_path = data.draw(st.sampled_from(bases))
    obj = json.loads(dec_path.read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_decomposition(kind, data.draw, obj)
    datum_path, mutated_path = tmp_path / "datum.json", tmp_path / "dec.json"
    datum_path.write_text(json.dumps(datum_json))
    mutated_path.write_text(json.dumps(obj))
    _check_exit(["verify", "--in", str(datum_path), "--decomposition", str(mutated_path)], kind)


@pytest.mark.parametrize("kind", MODULE_KINDS)
@FUZZ_SETTINGS
@hypothesis.given(data=st.data())
def test_mutated_module_json_exits_cleanly(bases, tmp_path, kind, data):
    datum_json, _ = data.draw(st.sampled_from(bases))
    obj = {k: copy.deepcopy(datum_json[k]) for k in MODULE_FIELDS}
    for _ in range(data.draw(st.integers(1, 2))):
        obj = _mutate_module(kind, data.draw, obj)
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps(obj))
    _check_exit(["jordan", "--in", str(module_path)], kind)


def test_unmutated_module_bases_pass_jordan(bases, tmp_path):
    for datum_json, _ in bases:
        module_path = tmp_path / "module.json"
        module_path.write_text(json.dumps({k: datum_json[k] for k in MODULE_FIELDS}))
        assert _run(["jordan", "--in", str(module_path)])[0] == 0
