"""Command-line front door: build instances, decompose, verify, report.

JSON is the single interchange format; tables are derived views.  Exit
codes: 0 ok, 1 verification failure, 2 invalid input or an unwritable
output path, 3 internal inconsistency (a theorem-violation finding), 141
stdout closed by its reader (128 + SIGPIPE).  An output path in a
missing directory, or one naming a directory, is refused before any
work; any other write failure is refused after it.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager

from . import __version__
from .datum import (
    InconsistencyError,
    datum_from_json,
    datum_to_json,
    e_ranks,
    json_int,
    json_int_array,
    level_from_str,
    level_str,
    validate,
)
from .decompose import (
    all_clauses_pass,
    check_shape,
    decompose,
    decomposition_from_json,
    decomposition_to_json,
    verify,
)
from .gmod import jordan_type, make_module
from .local_fields import PrecisionError, build_datum, make_tower
from .synth import SynthParams, sidecar, synthesize

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


class Refusal(Exception):
    """Invalid input: the one stderr line that main prints before exit 2."""


@contextmanager
def _refusing(prefix: str, *errors: type[Exception]):
    """Refuse the block's errors as one `prefix: reason` line; a reason
    that already starts with the prefix keeps it once."""
    try:
        yield
    except errors as exc:
        raise Refusal(f"{prefix}: {str(exc).removeprefix(prefix + ': ')}") from None


def _read(path: str, what: str, from_json):
    """from_json of the JSON document at path, or `cannot read {what}`."""
    with _refusing(f"cannot read {what}", ValueError, KeyError, TypeError, OverflowError,
                   OSError):
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(json.load(fh))


def _text(doc) -> str:
    """A JSON document as galmod writes it, to a file or to stdout:
    indent 1, one trailing newline."""
    return json.dumps(doc, indent=1) + "\n"


def _write(path: str, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_text(doc))


def _check_output(path: str):
    """Raise what opening path for writing would, for a path naming a
    directory or lying in a missing one, before any work is done."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="galmod", description=__doc__)
    top.add_argument("--version", action="version", version=f"galmod {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic datum with a known answer")
    p_synth.add_argument("--p", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument(
        "--m", type=str, default="n/a",
        help="level, -inf, or n/a (write --m=-inf so the dash is not read as a flag)",
    )
    p_synth.add_argument("--e", type=str, required=True, help="comma list e_0,...,e_n")
    p_synth.add_argument("--xi", action="store_true", help="xi_p lies in the base")
    p_synth.add_argument(
        "--minus-one-norm", choices=["true", "false"], default=None,
        help="p=2, n=1 bookkeeping flag",
    )
    p_synth.add_argument("--seed", type=int, default=None, help="basis shuffle seed")
    p_synth.add_argument("--out", required=True, help="datum JSON path")
    p_synth.add_argument("--sidecar", default=None, help="expected-answer JSON path")

    p_dec = sub.add_parser("decompose", help="decompose a datum JSON")
    p_dec.add_argument("--in", dest="infile", required=True)
    p_dec.add_argument("--out", default=None, help="decomposition JSON path")
    p_dec.add_argument("--format", choices=["json", "table"], default="table")

    p_ver = sub.add_parser("verify", help="re-check a decomposition against a datum")
    p_ver.add_argument("--in", dest="infile", required=True, help="datum JSON")
    p_ver.add_argument("--decomposition", required=True, help="decomposition JSON")

    p_inv = sub.add_parser("invariants", help="run the lemma property suite on a datum")
    p_inv.add_argument("--in", dest="infile", required=True)

    p_loc = sub.add_parser("local", help="build a p-adic tower and emit its datum")
    p_loc.add_argument("--p", type=int, required=True)
    p_loc.add_argument("--kind", choices=["unramified", "cyclotomic"], required=True)
    p_loc.add_argument("--n", type=int, required=True)
    p_loc.add_argument("--precision", type=int, default=None, help="pi-adic digits")
    p_loc.add_argument("--out", required=True)

    p_jor = sub.add_parser("jordan", help="block multiset of a raw (sigma, p, n) JSON")
    p_jor.add_argument("--in", dest="infile", required=True)

    p_self = sub.add_parser("selftest", help="run the acceptance sweep")
    p_self.add_argument("--dim-cap", type=int, default=120)
    p_self.add_argument("--quick", action="store_true", help="smaller sweep")

    return top


def _cmd_synth(args) -> int:
    with _refusing("invalid parameters", ValueError):
        e = tuple(int(x) for x in args.e.split(","))
        m = level_from_str(args.m)
        m1 = None if args.minus_one_norm is None else args.minus_one_norm == "true"
        params = SynthParams(
            p=args.p, n=args.n, m=m, e=e, xi_in_F=args.xi,
            minus_one_is_norm=m1, shuffle_seed=args.seed,
        )
        params.check()
    d = synthesize(params)
    _write(args.out, datum_to_json(d))
    if args.sidecar:
        _write(args.sidecar, sidecar(params))
    print(f"wrote datum (dim J = {d.J.dim}) to {args.out}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    d = _read(args.infile, "datum", datum_from_json)
    with _refusing("invalid datum", ValueError):  # HypothesisError is a ValueError
        dec = decompose(d)
    if args.out:
        _write(args.out, decomposition_to_json(dec))
    if args.format == "table":
        e = e_ranks(d)
        print(f"m            : {level_str(dec.m)}")
        print(f"e-vector     : {e}")
        print(f"y-ranks      : {dec.y_ranks()}")
        print(f"blocks       : {dec.block_multiset()}")
        print(f"dim J        : {d.J.dim}")
    else:
        sys.stdout.write(_text(decomposition_to_json(dec)))
    return EXIT_OK


def _print_report(report: dict) -> int:
    """One pass/FAIL line per clause, then the notes; the exit code."""
    for k, v in report.items():
        if not k.startswith("_"):
            print(f"{'pass' if v else 'FAIL'}  {k}")
    for note in report.get("_notes", []):
        print(f"note  {note}")
    return EXIT_OK if all_clauses_pass(report) else EXIT_VERIFY_FAIL


def _check_valid(d):
    """Refuse a datum that fails the axioms, as decompose does."""
    violations = validate(d)
    if violations:
        raise Refusal("invalid datum: " + "; ".join(violations))


def _cmd_verify(args) -> int:
    d = _read(args.infile, "input", datum_from_json)
    dec = _read(args.decomposition, "input", decomposition_from_json)
    _check_valid(d)
    with _refusing("invalid decomposition", ValueError):
        check_shape(dec, d)
    return _print_report(verify(dec, d))


def _cmd_invariants(args) -> int:
    d = _read(args.infile, "datum", datum_from_json)
    _check_valid(d)
    from .invariants import lemma_property_suite

    return _print_report(lemma_property_suite(d))


def _cmd_local(args) -> int:
    with _refusing("cannot build tower", ValueError, PrecisionError):
        tower = make_tower(args.p, args.kind, args.n, args.precision)
        d = build_datum(tower)
    _write(args.out, datum_to_json(d))
    print(
        f"wrote datum for {args.kind} tower (p={args.p}, n={args.n}, "
        f"dim J = {d.J.dim}) to {args.out}"
    )
    return EXIT_OK


def _module_from_json(obj):
    return make_module(
        json_int(obj["p"], "p"), json_int(obj["n"], "n"), json_int_array(obj["sigma"], "sigma")
    )


def _cmd_jordan(args) -> int:
    print(jordan_type(_read(args.infile, "module", _module_from_json)))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.dim_cap < 1:
        raise Refusal(f"invalid parameters: --dim-cap {args.dim_cap} is below 1")
    from .sweep import run_sweep

    result = run_sweep(dim_cap=args.dim_cap, quick=args.quick)
    for line in result.lines:
        print(line)
    print(
        f"{result.instances} instances, {result.failures} failures, "
        f"{result.seconds:.1f} s"
    )
    return EXIT_OK if result.failures == 0 else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "invariants": _cmd_invariants,
        "local": _cmd_local,
        "jordan": _cmd_jordan,
        "selftest": _cmd_selftest,
    }
    try:
        for path in filter(None, (vars(args).get("out"), vars(args).get("sidecar"))):
            _check_output(path)
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except (AssertionError, InconsistencyError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except BrokenPipeError:
        # the reader went away: stdout now leads to devnull, so the
        # interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (Refusal, OSError) as exc:
        # every input is read under its own refusal, so an OSError left
        # here is an output that cannot be written
        print(exc if isinstance(exc, Refusal) else f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
