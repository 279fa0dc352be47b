"""End-to-end CLI flows: synth -> decompose -> verify, local, jordan."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galmod
from galmod.cli import main


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_synth_decompose_verify_roundtrip(tmp_path):
    datum = tmp_path / "datum.json"
    side = tmp_path / "side.json"
    dec = tmp_path / "dec.json"
    rc = main([
        "synth", "--p", "3", "--n", "2", "--m", "1", "--e", "1,1,1",
        "--xi", "--seed", "5", "--out", str(datum), "--sidecar", str(side),
    ])
    assert rc == 0
    rc = main(["decompose", "--in", str(datum), "--out", str(dec), "--format", "json"])
    assert rc == 0
    expected = json.loads(read(side))["expected"]
    got = json.loads(read(dec))
    assert got["m"] == expected["m"]
    ranks = [0] * 3
    for item in got["y_generators"]:
        ranks[item["level"]] += 1
    assert ranks == expected["y_ranks"]
    rc = main(["verify", "--in", str(datum), "--decomposition", str(dec)])
    assert rc == 0


def test_verify_fails_on_mutation(tmp_path, capsys):
    datum = tmp_path / "datum.json"
    dec = tmp_path / "dec.json"
    main(["synth", "--p", "2", "--n", "2", "--m", "n/a", "--e", "1,1,1",
          "--out", str(datum)])
    main(["decompose", "--in", str(datum), "--out", str(dec)])
    obj = json.loads(read(dec))
    obj["y_generators"] = obj["y_generators"][1:]
    (dec).write_text(json.dumps(obj))
    rc = main(["verify", "--in", str(datum), "--decomposition", str(dec)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "T.span" in out


def test_synth_rejects_bad_params(tmp_path, capsys):
    rc = main([
        "synth", "--p", "3", "--n", "2", "--m", "1", "--e", "1,0,1",
        "--xi", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_decompose_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 3}')
    rc = main(["decompose", "--in", str(bad)])
    assert rc == 2


def test_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["synth", "--p", "2", "--n", "3", "--m", "2", "--e", "1,1,1,1",
            "--xi", "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert read(a) == read(b)


def test_local_pipeline(tmp_path, capsys):
    datum = tmp_path / "local.json"
    rc = main(["local", "--p", "3", "--kind", "unramified", "--n", "1",
               "--precision", "40", "--out", str(datum)])
    assert rc == 0
    rc = main(["decompose", "--in", str(datum)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks" in out


def test_local_cyclotomic_pipeline(tmp_path, capsys):
    datum = tmp_path / "cyclo.json"
    rc = main(["local", "--p", "3", "--kind", "cyclotomic", "--n", "1",
               "--precision", "60", "--out", str(datum)])
    assert rc == 0
    rc = main(["decompose", "--in", str(datum), "--format", "table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m " in out or "m  " in out


def test_invariants_command(tmp_path, capsys):
    datum = tmp_path / "datum.json"
    main(["synth", "--p", "3", "--n", "1", "--m", "0", "--e", "1,1",
          "--xi", "--out", str(datum)])
    rc = main(["invariants", "--in", str(datum)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact-sequence.L0" in out
    assert "FAIL" not in out


def test_jordan_command(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({
        "p": 2, "n": 1,
        "sigma": [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
    }))
    rc = main(["jordan", "--in", str(mod)])
    assert rc == 0
    assert "[2, 1]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "module",
    [
        {"p": None, "n": 1, "sigma": [[1]]},
        {"p": 2, "n": 1, "sigma": [[1, 0], [2**64, 1]]},
        [2, 1, [[1]]],
        "module",
    ],
    ids=["p-null", "entry-beyond-int64", "top-level-list", "top-level-string"],
)
def test_jordan_refuses_malformed_module(tmp_path, capsys, module):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    assert main(["jordan", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("cannot read module: ")


def test_jordan_order_check_stays_small_for_a_large_height(tmp_path, capsys, monkeypatch):
    import galmod.gmod as gm

    exponents = []
    op_pow = gm.op_pow
    monkeypatch.setattr(gm, "op_pow", lambda m, k: exponents.append(k) or op_pow(m, k))
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"p": 2, "n": 40, "sigma": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]}))
    assert main(["jordan", "--in", str(path)]) == 0
    assert "[2, 1]" in capsys.readouterr().out
    # sigma - 1 is nilpotent on 3 dimensions, so (sigma - 1)^4 = 0 decides
    # the order; 2^40 is never used
    assert max(exponents) == 4


def test_selftest_quick(capsys):
    rc = main(["selftest", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def readme_example(tmp_path):
    """The README's synth example, decomposed: (datum path, decomposition path)."""
    datum, dec = tmp_path / "datum.json", tmp_path / "dec.json"
    main(["synth", "--p", "3", "--n", "2", "--m", "1", "--e", "1,1,1",
          "--xi", "--seed", "5", "--out", str(datum)])
    main(["decompose", "--in", str(datum), "--out", str(dec)])
    return datum, dec


def one_line(err):
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def _bump_norm_entry(obj):
    norm = obj["levels"][0]["norm"]
    norm[0][0] = (norm[0][0] + 1) % 3


@pytest.mark.parametrize(
    "mutate",
    [
        _bump_norm_entry,
        lambda obj: obj["levels"][0]["a_class"].append(0),
        lambda obj: obj["levels"][1]["inter_norm"].update({"0": [[1, 0], [0, 1]]}),
        lambda obj: obj["levels"][1]["inter_norm"].update({"5": [[1]]}),
        lambda obj: obj["levels"][1]["inter_norm"].update({"-1": [[1]]}),
    ],
    ids=["norm-entry", "a-class-length", "inter-norm-shape", "inter-norm-5", "inter-norm-minus-1"],
)
def test_invalid_datum_refused_by_decompose_and_verify(tmp_path, capsys, mutate):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    mutate(obj)
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["decompose", "--in", str(datum)]) == 2
    err = one_line(capsys.readouterr().err)
    assert err.startswith("invalid datum: ") and err.count("invalid datum: ") == 1
    assert main(["verify", "--in", str(datum), "--decomposition", str(dec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("invalid datum: ")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(p=5),
        lambda obj: obj.update(n=3),
        lambda obj: obj["y_generators"][0]["coords"].pop(),
        lambda obj: obj["y_generators"][0].update(level=3),
        lambda obj: obj["y_generators"][0].update(level=-1),
        lambda obj: obj.update(m="2"),
        lambda obj: obj.update(x_generator=None),
        lambda obj: obj.update(m="n/a"),
    ],
    ids=["p", "n", "short-coords", "level-3", "level-minus-1", "m-2", "m-without-x", "x-without-m"],
)
def test_verify_refuses_malformed_decomposition(tmp_path, capsys, mutate):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(dec))
    mutate(obj)
    dec.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--in", str(datum), "--decomposition", str(dec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("invalid decomposition: ")


def test_uncaught_inconsistency_exits_3(monkeypatch, capsys):
    import galmod.sweep

    def broken(**kwargs):
        raise AssertionError("operator is not nilpotent")

    monkeypatch.setattr(galmod.sweep, "run_sweep", broken)
    assert main(["selftest", "--quick"]) == 3
    assert one_line(capsys.readouterr().err) == "inconsistency: operator is not nilpotent\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--p", "3", "--n", "1", "--e", "1,1", "--out", "{bad}"],
        ["synth", "--p", "3", "--n", "1", "--e", "1,1", "--out", "{ok}", "--sidecar", "{bad}"],
        ["local", "--p", "3", "--kind", "unramified", "--n", "1", "--precision", "40",
         "--out", "{bad}"],
        ["decompose", "--in", "{datum}", "--out", "{bad}"],
    ],
    ids=["synth-out", "synth-sidecar", "local-out", "decompose-out"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    datum, _ = readme_example(tmp_path)
    paths = {"bad": tmp_path / "missing" / "x.json", "ok": tmp_path / "ok.json", "datum": datum}
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    assert one_line(capsys.readouterr().err).startswith("cannot write output: ")


def _unreachable(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
def test_local_refuses_output_path_before_building(tmp_path, capsys, monkeypatch, where):
    import galmod.cli

    monkeypatch.setattr(galmod.cli, "make_tower", _unreachable)
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    rc = main(["local", "--p", "5", "--kind", "cyclotomic", "--n", "2", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("cannot write output: ")


def test_decompose_refuses_output_path_before_decomposing(tmp_path, capsys, monkeypatch):
    import galmod.cli

    datum, _ = readme_example(tmp_path)
    monkeypatch.setattr(galmod.cli, "decompose", _unreachable)
    capsys.readouterr()
    rc = main(["decompose", "--in", str(datum), "--out", str(tmp_path / "missing" / "d.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("cannot write output: ")


def test_synth_with_unwritable_sidecar_writes_nothing(tmp_path, capsys):
    out = tmp_path / "datum.json"
    rc = main(["synth", "--p", "3", "--n", "1", "--e", "1,1", "--out", str(out),
               "--sidecar", str(tmp_path / "missing" / "side.json")])
    assert rc == 2
    assert one_line(capsys.readouterr().err).startswith("cannot write output: ")
    assert not out.exists()


@pytest.mark.parametrize("existed", [False, True], ids=["new-datum", "old-datum"])
def test_synth_removes_its_datum_when_the_sidecar_write_fails(tmp_path, capsys, monkeypatch,
                                                               existed):
    # a write that fails only at write time (a read-only directory, a
    # full disk): the datum this run created goes, one that was there stays
    import galmod.cli

    out, side = tmp_path / "datum.json", tmp_path / "side.json"
    if existed:
        out.write_text("old\n")
    write = galmod.cli._write

    def failing(path, doc):
        if path == str(side):
            raise PermissionError(13, "Permission denied", path)
        write(path, doc)

    monkeypatch.setattr(galmod.cli, "_write", failing)
    rc = main(["synth", "--p", "3", "--n", "1", "--e", "1,1", "--out", str(out),
               "--sidecar", str(side)])
    assert rc == 2
    assert one_line(capsys.readouterr().err).startswith("cannot write output: ")
    assert out.exists() == existed
    assert not side.exists()


# sha256 of the bytes each command writes: the README's synth example with
# its sidecar, that datum decomposed to a file and to stdout, and a local
# tower; JSON with indent 1 and one trailing newline throughout
OUTPUT_DIGESTS = {
    "datum": "40c8db2d1a97871294e77d350e94e45c53699259390a707d651c2be9ba09bc3f",
    "sidecar": "10c48f4c5daa1a604de8b5119ce623bd059fa55e96fed989b25c0c07988ba0cf",
    "decomposition": "98dc4a540ef88734c8e9ea00a18e0b6cf5e24a1328af15420346313c5a07cd34",
    "local": "66cf04bbc031ecf85269e331d9498f41c0d05bfb3853fbe0c20c11cff4af096d",
}


def test_output_bytes_are_pinned(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in OUTPUT_DIGESTS}
    assert main(["synth", "--p", "3", "--n", "2", "--m", "1", "--e", "1,1,1", "--xi",
                 "--seed", "5", "--out", str(paths["datum"]),
                 "--sidecar", str(paths["sidecar"])]) == 0
    assert main(["decompose", "--in", str(paths["datum"]),
                 "--out", str(paths["decomposition"])]) == 0
    assert main(["local", "--p", "3", "--kind", "unramified", "--n", "1",
                 "--precision", "40", "--out", str(paths["local"])]) == 0
    for name, path in paths.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == OUTPUT_DIGESTS[name], name
    capsys.readouterr()
    assert main(["decompose", "--in", str(paths["datum"]), "--format", "json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == OUTPUT_DIGESTS["decomposition"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_selftest_refuses_dim_cap_below_one(capsys, monkeypatch, cap):
    import galmod.sweep

    monkeypatch.setattr(galmod.sweep, "run_sweep", _unreachable)
    assert main(["selftest", "--quick", "--dim-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("invalid parameters: ")


HUGE_P = 1000000000000000003  # prime; trial division up to its root takes minutes


@pytest.fixture
def no_prime_work(monkeypatch):
    """Fail when a p above the bound reaches trial division or the inverse table."""
    import galmod.fp_linalg as fl

    def guard(fn):
        def guarded(p):
            assert p <= fl.P_MAX, f"p = {p} reached {fn.__name__}"
            return fn(p)
        return guarded

    monkeypatch.setattr(fl, "is_prime", guard(fl.is_prime))
    monkeypatch.setattr(fl, "_inverse_table", guard(fl._inverse_table))


def test_synth_and_local_refuse_p_above_bound(tmp_path, capsys, no_prime_work):
    rc = main(["synth", "--p", str(HUGE_P), "--n", "1", "--m", "0", "--e", "1,1",
               "--xi", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert one_line(capsys.readouterr().err).startswith("invalid parameters: p = ")
    for kind in ("cyclotomic", "unramified"):
        rc = main(["local", "--p", str(HUGE_P), "--kind", kind, "--n", "1",
                   "--out", str(tmp_path / "y.json")])
        assert rc == 2
        assert "exceeds the supported bound P_MAX" in one_line(capsys.readouterr().err)
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "y.json").exists()


@pytest.mark.parametrize("p, n", [(2, 40), (3, 9), (2, 11)])
def test_synth_refuses_dim_above_bound(tmp_path, capsys, p, n):
    # one free block of dimension p^n: 2^40, 3^9 = 19683 and 2^11 = 2048
    e = ",".join(["0"] * n + ["1"])
    rc = main(["synth", "--p", str(p), "--n", str(n), "--e", e, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = one_line(capsys.readouterr().err)
    assert err.startswith(f"invalid parameters: dim J = {p**n} exceeds")
    assert "DIM_MAX" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args, dim", [
    (["--p", "2", "--kind", "cyclotomic", "--n", "40"], "> 2^40"),
    (["--p", "3", "--kind", "cyclotomic", "--n", "7"], "= 4376"),
    (["--p", "3", "--kind", "unramified", "--n", "7"], "= 2188"),
    (["--p", "3", "--kind", "unramified", "--n", "1000000000"], "> 2^1000000000"),
    (["--p", "3", "--kind", "cyclotomic", "--n", "1000000000", "--precision", "60"],
     "> 2^1000000000"),
])
def test_local_refuses_dim_above_bound(tmp_path, capsys, args, dim):
    # refused before the tower, its defining polynomial or p^n is built
    rc = main(["local", *args, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = one_line(capsys.readouterr().err)
    assert err == f"cannot build tower: dim J {dim} exceeds the supported bound DIM_MAX = 1024\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("kind, n, bound", [("unramified", 1, 224), ("cyclotomic", 1, 384)])
def test_local_refuses_precision_above_bound(tmp_path, capsys, monkeypatch, kind, n, bound):
    # 8 x the default 4e + 24 is accepted; above it, the tower is refused
    # before a defining polynomial is sought
    import galmod.local_fields as lf

    rc = main(["local", "--p", "3", "--kind", kind, "--n", str(n),
               "--precision", str(bound), "--out", str(tmp_path / "ok.json")])
    assert rc == 0
    capsys.readouterr()

    def unreachable(*args):
        raise AssertionError("a defining polynomial was sought")

    monkeypatch.setattr(lf, "_find_unramified_poly", unreachable)
    monkeypatch.setattr(lf, "_cyclotomic_shifted", unreachable)
    for precision in (bound + 1, 1000000000):
        rc = main(["local", "--p", "3", "--kind", kind, "--n", str(n),
                   "--precision", str(precision), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = one_line(capsys.readouterr().err)
        assert err == (f"cannot build tower: precision {precision} pi-digits above "
                       f"the bound {bound}\n")
        assert not (tmp_path / "x.json").exists()


def test_local_kind_choices_are_the_kinds_table():
    import argparse

    import galmod.local_fields as lf
    from galmod.cli import _parser

    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in commands.choices["local"]._actions if a.dest == "kind")
    assert kind.choices == sorted(lf.KINDS)


def test_local_refuses_a_defining_polynomial_that_is_not_eisenstein(tmp_path, capsys,
                                                                    monkeypatch):
    # pi = x needs an Eisenstein polynomial: one whose constant term p^2
    # divides is refused as input, not reported as an inconsistency
    import galmod.local_fields as lf

    shifted = lf._cyclotomic_shifted
    monkeypatch.setattr(lf, "_cyclotomic_shifted", lambda p, k: [p * p] + shifted(p, k)[1:])
    rc = main(["local", "--p", "3", "--kind", "cyclotomic", "--n", "1",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert one_line(capsys.readouterr().err).startswith("cannot build tower: ")
    assert not (tmp_path / "x.json").exists()


def test_datum_json_with_p_above_bound_refused(tmp_path, capsys, no_prime_work):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    obj["p"] = HUGE_P
    datum.write_text(json.dumps(obj))
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"p": HUGE_P, "n": 1, "sigma": [[1]]}))
    capsys.readouterr()
    for argv in (
        ["decompose", "--in", str(datum)],
        ["verify", "--in", str(datum), "--decomposition", str(dec)],
        ["invariants", "--in", str(datum)],
        ["jordan", "--in", str(module)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the supported bound P_MAX" in one_line(captured.err)


def test_invariants_refuses_invalid_datum(tmp_path, capsys):
    datum, _ = readme_example(tmp_path)
    obj = json.loads(read(datum))
    obj["levels"][0]["a_class"] = [[1]]
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["invariants", "--in", str(datum)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_line(captured.err).startswith("invalid datum: level 0: a_class shape")


def test_inter_norm_that_is_not_an_object_is_refused(tmp_path, capsys):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    obj["levels"][1]["inter_norm"] = [1]
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (
        ["decompose", "--in", str(datum)],
        ["verify", "--in", str(datum), "--decomposition", str(dec)],
        ["invariants", "--in", str(datum)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = one_line(captured.err)
        assert err.startswith("cannot read") and "inter_norm is not an object" in err


@pytest.mark.parametrize("key", ["00", " 0", "+0", "0_0"])
def test_inter_norm_key_that_is_not_a_decimal_integer_is_refused(tmp_path, capsys, key):
    # read with int(), the key would silently replace the matrix under "0"
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    top = obj["levels"][2]["inter_norm"]
    obj["levels"][2]["inter_norm"] = {"0": [[5]], key: top["0"], "1": top["1"]}
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (
        ["decompose", "--in", str(datum)],
        ["verify", "--in", str(datum), "--decomposition", str(dec)],
        ["invariants", "--in", str(datum)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = one_line(captured.err)
        assert err.startswith("cannot read") and f"inter_norm key {key!r}" in err


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, buffered):
    datum, _ = readme_example(tmp_path)
    src = str(Path(galmod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "galmod.cli", "decompose", "--in", str(datum),
             "--format", "table"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def _float_entry(matrix):
    matrix[0][0] = float(matrix[0][0])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(n=2.0),
        lambda obj: obj.update(p=True),
        lambda obj: _float_entry(obj["sigma"]),
        lambda obj: obj["levels"][1].update(dim=float(obj["levels"][1]["dim"])),
        lambda obj: obj["levels"][0]["a_class"].__setitem__(0, bool(obj["levels"][0]["a_class"][0])),
        lambda obj: _float_entry(obj["levels"][1]["inter_norm"]["0"]),
    ],
    ids=["n-float", "p-bool", "sigma-entry-float", "dim-float", "a-class-bool",
         "inter-norm-float"],
)
def test_datum_json_refuses_non_integers(tmp_path, capsys, mutate):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    mutate(obj)
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (
        ["decompose", "--in", str(datum)],
        ["verify", "--in", str(datum), "--decomposition", str(dec)],
        ["invariants", "--in", str(datum)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = one_line(captured.err)
        assert err.startswith("cannot read") and "not an integer" in err


@pytest.mark.parametrize("value", ["false", 0, 1, "true", []], ids=repr)
@pytest.mark.parametrize("key", ["xi_in_F", "minus_one_is_norm"])
def test_datum_json_refuses_non_booleans(tmp_path, capsys, key, value):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(datum))
    obj[key] = value
    datum.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (
        ["decompose", "--in", str(datum)],
        ["verify", "--in", str(datum), "--decomposition", str(dec)],
        ["invariants", "--in", str(datum)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = one_line(captured.err)
        assert err.startswith("cannot read") and f"{key} is not true or false" in err


def test_minus_one_is_norm_false_is_read_as_false(tmp_path, capsys):
    datum = tmp_path / "datum.json"
    main(["synth", "--p", "2", "--n", "1", "--m", "n/a", "--e", "1,1",
          "--minus-one-norm", "false", "--seed", "1", "--out", str(datum)])
    obj = json.loads(read(datum))
    assert obj["minus_one_is_norm"] is False
    capsys.readouterr()
    assert main(["decompose", "--in", str(datum)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["m", ":", "n/a"]
    obj["minus_one_is_norm"] = "false"
    datum.write_text(json.dumps(obj))
    assert main(["decompose", "--in", str(datum)]) == 2
    assert one_line(capsys.readouterr().err).startswith("cannot read datum: ")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(p=3.0),
        lambda obj: obj.update(n=True),
        lambda obj: obj.update(m=1.0),
        lambda obj: obj["y_generators"][0].update(level=float(obj["y_generators"][0]["level"])),
        lambda obj: obj["y_generators"][0]["coords"].__setitem__(0, True),
        lambda obj: obj["x_generator"].__setitem__(0, 0.5),
    ],
    ids=["p-float", "n-bool", "m-float", "level-float", "coords-bool", "x-generator-float"],
)
def test_decomposition_json_refuses_non_integers(tmp_path, capsys, mutate):
    datum, dec = readme_example(tmp_path)
    obj = json.loads(read(dec))
    mutate(obj)
    dec.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--in", str(datum), "--decomposition", str(dec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = one_line(captured.err)
    assert err.startswith("cannot read input: ") and "not an integer" in err


@pytest.mark.parametrize(
    "module",
    [
        {"p": 3, "n": 1.5, "sigma": [[1]]},
        {"p": 3, "n": True, "sigma": [[1.0]]},
        {"p": 3.0, "n": 1, "sigma": [[1]]},
        {"p": 3, "n": 1, "sigma": [[1.0]]},
        {"p": 3, "n": 1, "sigma": [[True]]},
        {"p": 2, "n": 1, "sigma": [[1, 0], [1, True]]},
    ],
    ids=["n-fraction", "n-bool", "p-float", "entry-float", "entry-bool", "mixed-row-bool"],
)
def test_jordan_refuses_non_integers(tmp_path, capsys, module):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    assert main(["jordan", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = one_line(captured.err)
    assert err.startswith("cannot read module: ") and "not an integer" in err


def _repeat_top_p(text):
    return '{"p": 5, ' + text[1:]


def _repeat_inter_norm_zero(text):
    # the first "0" holds a wrong matrix that the second would replace
    obj = json.loads(text)
    top = obj["levels"][2]["inter_norm"]
    obj["levels"][2]["inter_norm"] = {"0": [[5]], "repeat": top["0"], "1": top["1"]}
    return json.dumps(obj).replace('"repeat"', '"0"')


DEEP = "[" * 3000 + "]" * 3000


def _deep_sigma(text):
    obj = json.loads(text)
    obj["sigma"] = "deep"
    return json.dumps(obj).replace('"deep"', DEEP)


@pytest.mark.parametrize(
    "rewrite, reason",
    [
        (_repeat_top_p, "duplicate key 'p'"),
        (_repeat_inter_norm_zero, "duplicate key '0'"),
        (_deep_sigma, "maximum recursion depth"),
    ],
    ids=["repeated-p", "repeated-inter-norm-0", "deep-sigma"],
)
def test_datum_json_with_repeated_key_or_deep_nesting_is_refused(tmp_path, capsys, rewrite,
                                                                 reason):
    datum, dec = readme_example(tmp_path)
    datum.write_text(rewrite(read(datum)))
    capsys.readouterr()
    for argv, what in (
        (["decompose", "--in", str(datum)], "datum"),
        (["verify", "--in", str(datum), "--decomposition", str(dec)], "input"),
        (["invariants", "--in", str(datum)], "datum"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = one_line(captured.err)
        assert err.startswith(f"cannot read {what}: ") and reason in err


@pytest.mark.parametrize(
    "rewrite, reason",
    [
        (lambda text: '{"m": "-inf", ' + text[1:], "duplicate key 'm'"),
        (lambda text: text.replace('"x_generator": [', '"x_generator": [' + DEEP + ", ", 1),
         "maximum recursion depth"),
    ],
    ids=["repeated-m", "deep-x-generator"],
)
def test_decomposition_json_with_repeated_key_or_deep_nesting_is_refused(tmp_path, capsys,
                                                                         rewrite, reason):
    datum, dec = readme_example(tmp_path)
    dec.write_text(rewrite(read(dec)))
    capsys.readouterr()
    assert main(["verify", "--in", str(datum), "--decomposition", str(dec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = one_line(captured.err)
    assert err.startswith("cannot read input: ") and reason in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"p": 3, "p": 3, "n": 1, "sigma": [[1]]}', "duplicate key 'p'"),
        ('{"p": 3, "n": 1, "sigma": ' + DEEP + "}", "maximum recursion depth"),
    ],
    ids=["repeated-p", "deep-sigma"],
)
def test_module_json_with_repeated_key_or_deep_nesting_is_refused(tmp_path, capsys, text,
                                                                  reason):
    path = tmp_path / "module.json"
    path.write_text(text)
    assert main(["jordan", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = one_line(captured.err)
    assert err.startswith("cannot read module: ") and reason in err


def test_json_input_refuses_dim_above_bound(tmp_path, capsys):
    big = [[int(r == c) for c in range(1025)] for r in range(1025)]
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"p": 3, "n": 1, "sigma": big}))
    # J is built before the levels are read, so two empty levels suffice
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"p": 3, "n": 1, "xi_in_F": False, "sigma": big,
                                 "levels": [{}, {}]}))
    for argv, what in (
        (["jordan", "--in", str(module)], "module"),
        (["decompose", "--in", str(datum)], "datum"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_line(captured.err) == (
            f"cannot read {what}: dim 1025 exceeds the supported bound DIM_MAX = 1024\n"
        )
