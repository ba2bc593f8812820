"""Command-line front end.

Exit codes: 0 success, 2 a verification or validation check failed, or an
exact certificate of a computed result failed, 3 singular character pairing,
4 a computation left the algebra's degree window, 5 the request or algebra
spec could not be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .errors import SpecError, StarprodError
from .lie import GradedLieAlgebra, builtin
from .scalars import frac_from_str, frac_to_str
from .shapovalov import pairing_determinant
from .star import star_series
from .uea import word_name
from .verify import run_all


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecError(message)


def _degree(text):
    """argparse type for degrees: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _parse_params(pairs):
    params = {}
    for kv in pairs or []:
        if "=" not in kv:
            raise SpecError(f"bad --param {kv!r}, expected name=value")
        key, value = kv.split("=", 1)
        try:
            params[key] = frac_from_str(value)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    return params


class _NumberText(str):
    __repr__ = str.__str__  # a spec number's own text, read exactly and shown as written


def _load_algebra(args, needed_window=None):
    """Build the requested algebra.  A window requirement widens a builtin's
    default cutoff, but never overrides an explicit --cutoff."""
    if args.builtin and args.spec:
        raise SpecError("--builtin and --spec are mutually exclusive")
    if args.builtin:
        cutoff = args.cutoff
        if cutoff is None and needed_window is not None:
            cutoff = max(needed_window, 2 if args.builtin == "virasoro" else 1)
        return builtin(args.builtin, _parse_params(args.param), cutoff=cutoff)
    if args.spec:
        if args.param:
            raise SpecError("--param only applies to --builtin")
        try:
            with open(args.spec, encoding="utf-8") as fh:
                data = json.load(fh, parse_float=_NumberText)
        except OSError as exc:
            raise SpecError(f"cannot read {args.spec}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, a too long int, deep nesting
            raise SpecError(f"{args.spec} is not valid JSON: {exc}") from exc
        if args.cutoff is not None:
            if not isinstance(data, dict):
                raise SpecError("algebra spec must be a JSON object")
            data = dict(data, cutoff=args.cutoff)
        return GradedLieAlgebra.from_json(data)
    raise SpecError("one of --builtin or --spec is required")


def _dumps(value, indent="\n"):
    """json.dumps(value, indent=2, sort_keys=True), written without the
    pure-Python encoder that `indent` selects: strings go through the C
    `encode_basestring_ascii`, ints, bools and None through json.dumps."""
    inner = indent + "  "
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        try:  # a list of strings, such as a word's letters, in one C pass
            items = list(map(encode_basestring_ascii, value))
        except TypeError:
            items = [_dumps(v, inner) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


def _emit(args, payload, text):
    """Print payload as JSON (`_dumps`), or text() as text: the text is
    rendered only when it is printed."""
    print(_dumps(payload) if args.format == "json" else text())


def cmd_validate(args):
    algebra = _load_algebra(args)
    report = algebra.validate()
    nonsingular = algebra.check_nonsingular(algebra.cutoff)
    payload = report.to_json()
    payload["nonsingular"] = {str(d): ok for d, ok in nonsingular.items()}

    def text():
        lines = [report.to_text()]
        for d in sorted(nonsingular):
            state = "nonsingular" if nonsingular[d] else "SINGULAR"
            lines.append(f"  character pairing at degree {d}: {state}")
        return "\n".join(lines)

    _emit(args, payload, text)
    if not report.passed:
        return 2
    if not all(nonsingular.values()):
        return 3
    return 0


def cmd_pairing(args):
    algebra = _load_algebra(args, needed_window=args.degree)
    basis, matrix, det = pairing_determinant(algebra, args.degree, args.order)
    payload = {
        "algebra": algebra.name,
        "degree": args.degree,
        "basis": {
            "minus": [word_name(algebra, w) for w in basis.minus],
            "plus": [word_name(algebra, w) for w in basis.plus],
        },
        "matrix": [[entry.render() for entry in row] for row in matrix],
        "det": det.render(),
    }

    def text():
        lines = [f"{algebra.name}, degree {args.degree}"]
        lines.append("basis: " + ", ".join(payload["basis"]["minus"]))
        lines += ["  [" + ", ".join(row) + "]" for row in payload["matrix"]]
        lines.append(f"det = {payload['det']}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0


def cmd_star(args):
    algebra = _load_algebra(args, needed_window=args.max_degree)
    limit = min(args.max_degree, algebra.cutoff) if algebra.truncated else args.max_degree
    product = star_series(algebra, args.max_degree, slot_degree_limit=limit)

    def text():
        lines = [
            f"{algebra.name}: product series through ħ^{args.max_degree} (slots within ±{limit})"
        ]
        for m in range(args.max_degree + 1):
            terms = product.orders.get(m, {})
            if not terms:
                lines.append(f"  ħ^{m}: 0")
                continue
            rendered = [
                f"{frac_to_str(c)} · {word_name(algebra, x)} ⊗ {word_name(algebra, y)}"
                for (x, y), c in sorted(terms.items())
            ]
            lines.append(f"  ħ^{m}: " + "  +  ".join(rendered))
        return "\n".join(lines)

    _emit(args, product.to_json(), text)
    return 0


def cmd_verify(args):
    algebra = _load_algebra(args, needed_window=args.max_degree)
    report = run_all(algebra, window=args.max_degree, seed=args.seed)
    _emit(args, report.to_json(), report.to_text)
    return 0 if report.passed else 2


def build_parser():
    parser = _Parser(prog="starprod", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--builtin", choices=["heisenberg", "sl2", "virasoro"])
        p.add_argument("--spec", help="path to a JSON algebra spec")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="builtin parameter, e.g. z=1 or delta=2")
        p.add_argument("--cutoff", type=int, help="degree window for the algebra")
        p.add_argument("--order", choices=["desc", "asc"], default="desc",
                       help="tie-break of equal-length monomials in the basis that "
                            "pairing prints; star and verify print the same either way")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("validate", help="check the structure and character of an algebra")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pairing", help="print one degree of the pairing matrix and its determinant")
    common(p)
    p.add_argument("--degree", type=_degree, required=True)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("star", help="print the product series")
    common(p)
    p.add_argument("--max-degree", type=_degree, default=3, help="highest ħ order")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("verify", help="run the verification battery")
    common(p)
    p.add_argument("--max-degree", type=_degree, default=3, help="window for the global identities")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized property suites")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise SpecError("a subcommand is required (validate, pairing, star, verify)")
        return args.func(args)
    except StarprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
