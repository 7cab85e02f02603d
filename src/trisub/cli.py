"""Command-line front end.

Subcommands: shape, orbit, limit, address, equiv, verify, sweep, render.
Each command returns its JSON or CSV text, in fixed 17-significant-digit
formatting, and main writes it to stdout once, so identical invocations
produce byte-identical output.  Exit codes: 0 on success, 1 on a domain
error or a failed read or write, 2 when an asserting verify suite fails,
64 for usage errors.
"""

import argparse
import functools
import math
import os
import re
import sys

from . import SUITE_NAMES
from ._fmt import csv_line, dumps
from .render import RenderSpec, svg_lines
from .shape import EdgeLengths, shape_from_angles, shape_from_edges
from .subdivision import limit_shape_info, orbit
from .symbolic import SymbolSequence, address_approx, address_exact, \
    equivalent, match_prop31

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only "-1" and "-1.5" for values, so "--tol -1e-13"
        # and "--edges -1,2,2" lost their value; no option here starts with
        # "-" and a digit or ".digit", so every such argument is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: {message}\n")


def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number in {text!r}")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built on the first call of a process.

    Parsing leaves the parser unchanged, so each main call shares it.
    """
    p = _Parser(prog="trisub", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("shape", help="shape record from edges or angles")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--edges", type=_triple, metavar="a,b,c")
    g.add_argument("--angles", type=_triple, metavar="A,B,C")

    sp = sub.add_parser("orbit", help="orbit trace CSV under a finite word")
    sp.add_argument("--edges", type=_triple, required=True, metavar="a,b,c")
    sp.add_argument("--word", required=True, metavar="LETTERS")

    sp = sub.add_parser("limit", help="Euclidean limit along a sequence")
    sp.add_argument("--edges", type=_triple, required=True, metavar="a,b,c")
    sp.add_argument("--seq", required=True, metavar="PREFIX|CYCLE")
    sp.add_argument("--tol", type=float, default=1e-13)

    sp = sub.add_parser("address", help="barycentric address of a sequence")
    sp.add_argument("--seq", required=True, metavar="PREFIX|CYCLE")
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--depth", type=int, default=40)

    sp = sub.add_parser("equiv", help="do two sequences address the same point")
    sp.add_argument("--s", required=True, metavar="SEQ")
    sp.add_argument("--t", required=True, metavar="SEQ")
    sp.add_argument("--horizon", type=int, default=64,
                    help="cap on the shared block tau and on m (default 64)")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True,
                    choices=(*SUITE_NAMES, "all"))
    fixed = " (noncontraction and surjectivity run fixed plans and ignore it)"
    sp.add_argument("--seed", type=int, help="reseed the other seven suites" + fixed)
    sp.add_argument("--samples", type=int, help="sample count of the other seven suites" + fixed)

    sp = sub.add_parser("sweep", help="limit shapes over a grid of start shapes")
    sp.add_argument("--seq", required=True, metavar="PREFIX|CYCLE")
    sp.add_argument("--grid", type=int, required=True)

    sp = sub.add_parser("render", help="SVG of nested subdivision cells")
    sp.add_argument("--edges", type=_triple, required=True, metavar="a,b,c")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--depth", type=int)
    g.add_argument("--word")
    sp.add_argument("--model", choices=["klein", "poincare"], default="klein")
    sp.add_argument("-o", "--out", required=True, metavar="FILE.svg")
    sp.add_argument("--size", type=int, default=800)
    sp.add_argument("--arc-samples", type=int, default=32)

    return p


def _cmd_shape(args) -> tuple[str, int]:
    if args.edges is not None:
        rec = shape_from_edges(*args.edges)
    else:
        rec = shape_from_angles(*args.angles)
    return dumps(rec.to_json_dict()) + "\n", 0


def _cmd_orbit(args) -> tuple[str, int]:
    return orbit(args.word, shape_from_edges(*args.edges)).to_csv(), 0


def _cmd_limit(args) -> tuple[str, int]:
    rec = shape_from_edges(*args.edges)
    seq = SymbolSequence.parse(args.seq)
    res = limit_shape_info(seq, rec, tol=args.tol)
    out = {"angles": list(res.angles),
           "iterations": res.iterations,
           "residual": res.residual}
    return dumps(out) + "\n", 0


def _cmd_address(args) -> tuple[str, int]:
    seq = SymbolSequence.parse(args.seq)
    if args.exact:
        bary = address_exact(seq)
        out = {"exact": True, "bary": list(bary.fraction_strings())}
    else:
        point, bound = address_approx(seq, args.depth)
        out = {"exact": False, "depth": args.depth, "bary": list(point),
               "error_bound": bound}
    return dumps(out) + "\n", 0


def _cmd_equiv(args) -> tuple[str, int]:
    s = SymbolSequence.parse(args.s)
    t = SymbolSequence.parse(args.t)
    witness = match_prop31(s, t, horizon=args.horizon)
    out = {"equivalent": equivalent(s, t),
           "prop31_form": witness.to_json_dict() if witness else None}
    return dumps(out) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    from . import verify  # the suites load only for the command that runs them
    run = functools.partial(verify.run_suite, seed=args.seed, samples=args.samples)
    if args.suite == "all":
        reports = [run(name) for name in SUITE_NAMES]
        out = {"pass": all(r.passed for r in reports),
               "suites": [r.to_json_dict() for r in reports]}
    else:
        out = run(args.suite).to_json_dict()
    return dumps(out) + "\n", 0 if out["pass"] else 2


def _cmd_sweep(args) -> tuple[str, int]:
    seq = SymbolSequence.parse(args.seq)
    n = args.grid
    if n < 1:
        raise ValueError("grid must be at least 1")
    lines = [csv_line(("A0", "B0", "C0", "Alim", "Blim", "Clim"))]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                defect = math.pi * k / (n + 1)
                total = math.pi - defect
                A = total * i / (n + 1)
                B = (total - A) * j / (n + 1)
                C = total - A - B
                rec = shape_from_angles(A, B, C)
                lim = limit_shape_info(seq, rec).angles
                lines.append(csv_line((A, B, C, lim.A, lim.B, lim.C)))
    return "\n".join(lines) + "\n", 0


def _cmd_render(args) -> tuple[str, int]:
    spec = RenderSpec(model=args.model, depth=args.depth, word=args.word,
                      size=args.size, samples_per_edge=args.arc_samples)
    # the spec, the edges and their placement are checked before the file
    # is opened, so that bad input leaves no empty file behind
    lines = svg_lines(spec, EdgeLengths(*args.edges))
    # a Klein depth-8 render is 10.9 MB: 256 KiB buffers write it in ~40
    # calls, where the default 8 KiB took ~1,300.  An existing file is
    # written over in place and then trimmed to the length written, not
    # truncated when opened: on ext4 a truncating rewrite of that file took
    # 8.5 ms against 3.5 ms in place.  Symlinks, hard links and the mode
    # are kept as "w" keeps them, but a reader that opens the file during a
    # render may see old bytes past the new ones, not a short file.  New
    # files, /dev/null and pipes have size 0 and are not trimmed
    fh = open(args.out, "w", encoding="utf-8", buffering=256 * 1024,
              opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666))
    try:
        with fh:
            old_size = os.fstat(fh.fileno()).st_size
            fh.writelines(lines)
            if old_size:
                fh.truncate()
    except BaseException:
        # no partial SVG, nor new bytes over old ones, either; but never
        # remove what is not a plain file, such as /dev/stdout
        if os.path.isfile(args.out) and not os.path.islink(args.out):
            os.remove(args.out)
        raise
    return "", 0


_HANDLERS = {
    "shape": _cmd_shape,
    "orbit": _cmd_orbit,
    "limit": _cmd_limit,
    "address": _cmd_address,
    "equiv": _cmd_equiv,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help
        return int(exc.code or 0)
    # the one write of stdout: print does nothing where sys.stdout is None,
    # and a buffered write fails at its flush here, not at exit
    try:
        text, code = _HANDLERS[args.command](args)
        print(text, end="", flush=True)
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        try:
            print(end="", flush=True)
        except OSError:  # Python flushes stdout again at exit: let that succeed
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
