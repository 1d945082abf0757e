"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 I/O or parse error.  All numeric
arguments and outputs are exact rational text; floats are rejected.

Argument parsing needs only `scalar`.  Each command imports the layers it
runs in its own branch of `run`, and the one reader, `_read`, imports
`serialization` when it is called, so one `cpv` process compiles no module
that its command does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import DomainError, ParseError
from .scalar import Scalar, ZERO


def _scalar_arg(text: str) -> Scalar:
    try:
        return Scalar.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpv",
        description="Exact barcodes, bottleneck/interleaving distances, and "
                    "contact invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ellipsoid", help="generate an ellipsoid barcode")
    p.add_argument("-a", "--axis", action="append", required=True,
                   type=_scalar_arg, metavar="P/Q", help="axis (repeatable)")
    p.add_argument("-T", "--horizon", required=True, type=_scalar_arg)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None, help="also write an SVG diagram")

    p = sub.add_parser("reduce", help="decompose a module into its barcode")
    p.add_argument("module")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("distance", help="bottleneck distance of two barcodes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--graded", action="store_true",
                   help="match bars only within their parity")

    p = sub.add_parser("interleave", help="brute-force interleaving distance")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("spectral", help="spectral invariant of a class")
    p.add_argument("barcode")
    p.add_argument("--class", dest="class_index", type=int, required=True,
                   metavar="K")

    p = sub.add_parser("depth", help="boundary depth of a barcode")
    p.add_argument("barcode")

    p = sub.add_parser("cover", help="cover the finite endpoints by delta/2 balls")
    p.add_argument("barcode")
    p.add_argument("--delta", required=True, type=_scalar_arg)

    p = sub.add_parser("bound", help="translated-point lower bound")
    p.add_argument("barcode")
    p.add_argument("--delta", required=True, type=_scalar_arg)

    p = sub.add_parser("verify", help="validate a module")
    p.add_argument("module")

    p = sub.add_parser("diagram", help="render a barcode as SVG")
    p.add_argument("barcode")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to the CPV_SEED environment variable, then 0")
    p.add_argument("--quick", action="store_true",
                   help="smoke mode with reduced trial counts")
    return parser


def _read(path: str, kind: str):
    """The document at path, refused unless it holds a `kind`: "barcode" or
    "module" (`loads` returns a Barcode or a SampledModule)."""
    from .barcode import Barcode
    from .serialization import loads

    with open(path, "r", encoding="utf-8") as fh:
        obj = loads(fh.read())
    if isinstance(obj, Barcode) != (kind == "barcode"):
        raise ParseError(f"{path} does not hold a {kind}")
    return obj


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _matching_json(matching) -> list:
    if matching is None:
        return []
    return [[left, right] for left, right in matching.pairs]


def run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "ellipsoid":
        from .ellipsoid import EllipsoidParams, ellipsoid_barcode
        from .serialization import dumps

        params = EllipsoidParams.of(args.axis, args.horizon)
        code = ellipsoid_barcode(params)
        _emit(dumps(code), args.output)
        if args.svg:
            from .svg import barcode_svg

            _emit(barcode_svg(code), args.svg)
        return 0

    if args.command == "reduce":
        from .persistence import decompose
        from .serialization import dumps

        code = decompose(_read(args.module, "module"))
        _emit(dumps(code), args.output)
        return 0

    if args.command == "distance":
        from .distances import bottleneck_distance

        delta, matching = bottleneck_distance(
            _read(args.left, "barcode"), _read(args.right, "barcode"),
            graded=args.graded)
        out = {"delta": str(delta), "matching": _matching_json(matching)}
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
        return 0

    if args.command == "interleave":
        from .interleaving import interleaving_distance_bruteforce

        delta = interleaving_distance_bruteforce(
            _read(args.left, "module"), _read(args.right, "module"))
        sys.stdout.write(json.dumps({"delta": str(delta)}, indent=2) + "\n")
        return 0

    if args.command == "spectral":
        from .invariants import spectral_invariant

        value = spectral_invariant(_read(args.barcode, "barcode"), args.class_index)
        sys.stdout.write(f"{value}\n")
        return 0

    if args.command == "depth":
        from .invariants import boundary_depth

        depth = boundary_depth(_read(args.barcode, "barcode"))
        sys.stdout.write(f"{depth}\n")
        return 0

    if args.command == "cover":
        from .invariants import bar_endpoint_set, covering_number

        code = _read(args.barcode, "barcode")
        points = bar_endpoint_set(code, ZERO)
        k, centers = covering_number(points, args.delta)
        out = {"k": k, "centers": [str(c) for c in centers]}
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
        return 0

    if args.command == "bound":
        from .invariants import translated_point_lower_bound

        k = translated_point_lower_bound(_read(args.barcode, "barcode"), args.delta)
        sys.stdout.write(f"{k}\n")
        return 0

    if args.command == "verify":
        from .persistence import validate_module

        issues = validate_module(_read(args.module, "module"))
        if issues:
            for issue in issues:
                sys.stdout.write(issue + "\n")
            return 1
        sys.stdout.write("valid\n")
        return 0

    if args.command == "diagram":
        from .svg import barcode_svg

        _emit(barcode_svg(_read(args.barcode, "barcode")), args.output)
        return 0

    if args.command == "suite":
        from .suite import run_suite

        seed = args.seed
        if seed is None:
            text = os.environ.get("CPV_SEED", "0")
            try:
                seed = int(text)
            except ValueError:
                raise ValueError(f"CPV_SEED must be an integer, got {text!r}") from None
        results = run_suite(seed=seed, quick=args.quick)
        failures = 0
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            # timing goes to stderr so stdout stays byte-identical per seed
            sys.stdout.write(
                f"{status} criterion {res.number:2d} {res.name}: {res.detail}\n")
            sys.stderr.write(f"criterion {res.number:2d}: {res.seconds:.2f}s\n")
            failures += 0 if res.passed else 1
        sys.stdout.write(
            f"{len(results) - failures}/{len(results)} criteria passed "
            f"(seed {seed}{', quick' if args.quick else ''})\n")
        return 0 if failures == 0 else 1

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(argv)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
