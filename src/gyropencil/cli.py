"""Command line front end.

Subcommands: spectrum (pencil JSON -> spectrum JSON), track (pencil JSON
-> branch CSV + events CSV), verify (pencil or problem JSON -> report
JSON), sturm (problem flags -> pencil or spectrum JSON), roots (builtin
characteristic function -> zeros JSON, or the full resonant count bundle
when no window is given).  Machine-readable payloads go to standard
output, diagnostics to standard error.  Exit codes: 0 success / all
checks pass, 1 check failure or numerical non-convergence, 2 invalid
input.
"""

import argparse
import sys

import numpy as np

from . import checks, homotopy, rootfind, serialize, sturm
from .errors import (
    ConditionViolation,
    GyropencilError,
    InvalidInput,
    PreconditionInteger,
)
from .pencil import spectrum
from .rootfind import RootWindow

_INVALID = (InvalidInput, ConditionViolation, PreconditionInteger)


def _length(text):
    if text == "pi":
        return float(np.pi)
    try:
        return float(text)
    except ValueError:
        raise InvalidInput("expected a number or the literal pi, got %r" % text)


def _window(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidInput("window must be re_min,re_max,im_min,im_max")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise InvalidInput("window entries must be numbers")
    return RootWindow(*vals)


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gyropencil",
        description="spectra of selfadjoint quadratic pencils with a "
                    "rank-one gyroscopic coupling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of a pencil at one eta")
    p.add_argument("--input", required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--output")

    p = sub.add_parser("track", help="follow eigenvalue branches over eta")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="eta_from", type=float, default=0.0)
    p.add_argument("--to", dest="eta_to", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--output")
    p.add_argument("--events")

    p = sub.add_parser("verify", help="run every applicable statement check")
    p.add_argument("--input")
    p.add_argument("--sturm", dest="sturm_input")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--output")

    p = sub.add_parser("sturm", help="discretize a string problem")
    p.add_argument("--variant", choices=["single", "double"], required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--a", type=_length, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--paper-sign-convention", action="store_true")
    p.add_argument("--solve", action="store_true")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--output")

    p = sub.add_parser("roots", help="zeros of a characteristic function")
    p.add_argument("--fn", choices=["omega", "shoot"], required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--a", type=_length, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--paper-sign-convention", action="store_true")
    p.add_argument("--window", type=_window)
    p.add_argument("--output")
    return parser


def _cmd_spectrum(args):
    spec = serialize.load_pencil(args.input)
    result = spectrum(spec, args.eta)
    _emit(serialize.dumps(serialize.spectrum_to_dict(result)), args.output)
    return 0


def _cmd_track(args):
    spec = serialize.load_pencil(args.input)
    tset = homotopy.track(spec, eta_from=args.eta_from, eta_to=args.eta_to,
                          steps=args.steps)
    track_csv = serialize.tracks_to_csv(tset)
    events_csv = serialize.events_to_csv(tset.events)
    if args.events:
        _emit(track_csv, args.output)
        with open(args.events, "w") as fh:
            fh.write(events_csv)
    elif args.output:
        _emit(track_csv + "\n" + events_csv, args.output)
    else:
        sys.stdout.write(track_csv + "\n" + events_csv)
    return 0


def _cmd_verify(args):
    if bool(args.input) == bool(args.sturm_input):
        raise InvalidInput("verify needs exactly one of --input, --sturm")
    if args.input:
        spec = serialize.load_pencil(args.input)
        report = checks.run_all(spec, eta=args.eta)
    else:
        problem = serialize.load_sl(args.sturm_input)
        report = checks.run_sl(problem, eta=args.eta)
    _emit(serialize.dumps(serialize.report_to_dict(report)), args.output)
    return 0 if report.all_pass else 1


def _problem_from_args(args):
    return sturm.SLProblem(
        variant=args.variant, q_kind="const", q_value=args.q,
        a=args.a, alpha=args.alpha, n=args.n,
        paper_sign_convention=args.paper_sign_convention,
    )


def _cmd_sturm(args):
    problem = _problem_from_args(args)
    spec = sturm.discretize(problem)
    if args.solve:
        result = spectrum(spec, args.eta)
        _emit(serialize.dumps(serialize.spectrum_to_dict(result)), args.output)
    else:
        _emit(serialize.dumps(serialize.pencil_to_dict(spec)), args.output)
    return 0


def _cmd_roots(args):
    if args.fn == "omega":
        if args.window is None:
            report = rootfind.verify_resonant_counts(args.q, args.a, args.alpha)
            _emit(serialize.dumps(serialize.resonant_to_dict(report)),
                  args.output)
            return 0 if report.all_pass else 1
        def f(lam):
            return sturm.omega(lam, args.q, args.a, args.alpha)
    else:
        if args.window is None:
            raise InvalidInput("roots --fn shoot requires --window")
        problem = sturm.SLProblem(
            variant="single", q_kind="const", q_value=args.q,
            a=args.a, alpha=args.alpha, n=args.n,
            paper_sign_convention=args.paper_sign_convention,
        )
        def f(lam):
            return sturm.shoot_charfn(lam, problem)
    zeros = rootfind.find_zeros(f, args.window)
    _emit(serialize.dumps(serialize.zeros_to_list(zeros)), args.output)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "track": _cmd_track,
    "verify": _cmd_verify,
    "sturm": _cmd_sturm,
    "roots": _cmd_roots,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _INVALID as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GyropencilError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
