"""Command-line front end emitting stable JSON (and SVG/ASCII renderings).

Subcommands:

    basis       dual canonical basis of one weight slice
    canonical2  canonical basis of a two-factor product
    diagrams    arc-diagram listing, optionally filtered or rendered
    rmatrix     braiding operator matrices
    cable       the unit-weight collapse report
    verify      run the property suites

Exit codes: 0 success, 1 a property check failed (a machine-readable JSON
record is printed), 2 bad flags, a request outside the configured bounds,
one that runs out of memory or recursion depth, or a closed stdout (a reader
that left early: one stderr line, no traceback).
The process entry run() flushes stdout and stderr after main() and ends with
os._exit.  What that skips is interpreter teardown, which frees every module
and operator cache one object at a time: 12-14 ms after a six-factor `basis`
request, a tenth of a large one, and 50-100 ms after `verify --suite all`,
against 1-5 ms without it.
All JSON is emitted with sorted keys and canonical scalar serialization, so
identical requests produce byte-identical output, byte for byte equal to
json.dumps(sort_keys=True, indent=2).  The basis, canonical2, diagrams,
rmatrix and cable documents have one renderer each, which writes the
document one element at a time, to stdout or -o, as soon as that element is
rendered.  The whole answer is computed and certified before the first byte
goes out, so a failed check still prints only its failure record.  `json` is
imported only for failure records, whose messages are arbitrary text and
need its string escaping: the renderers write only ints, booleans and the
CLI's own strings, which need none.
QCANON_MAX_DIM, when set, is a nonnegative integer that caps the dimension of
any weight slice a command touches; the guard computes that dimension without
listing the slice.  verify does not read it and is bounded by
--max-weight-sum instead.

Each command imports the modules it runs inside its own function, so a
request compiles and loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .common import (MAX_WEIGHT_SUM, SUITE_ALIASES, InexactDivisionError,
                     InvalidDiagramError, OddExponentError, slice_dim)

SCHEMA = "qcanon/1"

_BAD_REQUEST = (ValueError, KeyError)
_PROPERTY_FAILURE = (InvalidDiagramError, OddExponentError,
                     InexactDivisionError, AssertionError)


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        lams = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a weight list: {text!r}")
    if not lams or any(x < 0 for x in lams):
        raise argparse.ArgumentTypeError(
            f"weights must be nonnegative integers: {text!r}")
    return lams


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a nonnegative integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _dump(chunks, output: str | None) -> None:
    """Write a document to -o or stdout one chunk at a time, each as soon as
    it is rendered."""
    if not output:
        for chunk in chunks:
            _stdout(chunk)
        return
    try:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:  # exit 2: a bad request, not a failed check
        raise ValueError(f"cannot write {output}: {exc.strerror}") from exc


def _stdout(text: str) -> None:
    out = sys.stdout
    if out is None:  # fd 1 was closed when the process started
        raise ValueError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        out.write(text)
    except OSError as exc:  # a closed pipe: exit 2, as for an unwritable -o
        raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


# The renderers below write each JSON document one element at a time, in
# the bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n".  A `pad` is
# the newline and indent of the line that holds a list's closer; the items
# sit two spaces deeper.  They write ints, str(int), true, false and the
# CLI's own constant strings, none of which JSON escapes.

class _Memo(dict):
    """A dict that fills a missing key with render(key)."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _list(texts: list[str], pad: str) -> str:
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _ints(xs, pad: str) -> str:
    return _list([str(x) for x in xs], pad)


def _values(pad: str):
    """QScalar -> the text of its ascending [v-exponent, "coefficient"]
    pairs, closed at pad; rendered once for each distinct scalar."""
    inner, deep = pad + "  ", pad + "    "
    memo = _Memo(lambda terms: _list(
        [f'[{deep}{e},{deep}"{c}"{inner}]' for e, c in sorted(terms)], pad))
    return lambda x: memo[tuple(x._terms.items())]


def _document(lams, level, fields: dict, key: str, items):
    """The chunks of a top-level object: the request's `lambda` and `level`
    and the `schema`, `fields` mapping further keys to rendered values, and
    `key` to the list of the rendered `items` (each closed at the four-space
    indent), one chunk per item.  Keys are in sorted order."""
    fields = {**fields, "lambda": _ints(lams, "\n  "), "level": str(level),
              "schema": f'"{SCHEMA}"'}
    keys = sorted(fields)
    head = "{" + "".join(f'\n  "{k}": {fields[k]},' for k in keys if k < key)
    head += f'\n  "{key}": '
    tail = "".join(f',\n  "{k}": {fields[k]}' for k in keys if k > key)
    sep = head + "[\n    "
    for text in items:
        yield sep + text
        sep = ",\n    "
    yield ("\n  ]" if sep == ",\n    " else head + "[]") + tail + "\n}\n"


def _basis_doc(lams, level, basis, kind):
    indices = basis[0].space.indices if basis else ()  # one slice for all
    value = _values("\n          ")
    heads = _Memo(lambda i: '{\n          "index": ' + _ints(
        indices[i], "\n          ") + ',\n          "value": ')

    def element(b) -> str:
        coeffs = [heads[i] + value(x) + "\n        }"
                  for i, x in sorted(b.coords.items())]
        return ('{\n      "coeffs": ' + _list(coeffs, "\n      ")
                + ',\n      "index": ' + _ints(b.index, "\n      ")
                + "\n    }")

    return _document(lams, level,
                     {"kind": f'"{kind}"', "order": '"lex"',
                      "weight": str(sum(lams) - 2 * level)},
                     "basis", map(element, basis))


def _diagrams_doc(lams, level, filter_name, diagrams):
    chords = _Memo(lambda c: _ints(c, "\n        "))
    around = _Memo(lambda caps: (  # a diagram's text before and after chords
        '{\n      "capacities": ' + _ints(caps, "\n      ")
        + ',\n      "chords": ', f',\n      "points": {len(caps)}\n    }}'))

    def element(d) -> str:
        head, tail = around[d.capacities]
        return head + _list([chords[c] for c in d.chords], "\n      ") + tail

    return _document(lams, level,
                     {"count": str(len(diagrams)),
                      "filter": "null" if filter_name is None
                      else f'"{filter_name}"'},
                     "diagrams", map(element, diagrams))


def _operator_doc(op, lams, level, name, position):
    value = _values("\n      ")
    rows = _Memo(lambda i: _ints(op.target.indices[i], "\n      ")
                 + ',\n      "value": ')

    def column(j, col) -> str:  # the column's entries, rows ascending
        head = '{\n      "col": ' + _ints(col, "\n      ") + ',\n      "row": '
        return ",\n    ".join([head + rows[i] + value(x) + "\n    }"
                                for i, x in sorted(op.matrix.col(j).items())])

    fields = {"op": f'"{name}"'}
    for key, space in (("source_index", op.source),
                       ("target_index", op.target)):
        fields[key] = _list([_ints(m, "\n    ") for m in space.indices],
                            "\n  ")
    if position is not None:
        fields["position"] = str(position)
    columns = map(column, range(len(op.source.indices)), op.source.indices)
    return _document(lams, level, fields, "entries", filter(None, columns))


def _cable_doc(report):
    value = _values("\n      ")

    def outcome(o) -> str:
        source = ',\n      "source": ' + _ints(o.source, "\n      ")
        if o.killed:
            return '{\n      "killed": true' + source + "\n    }"
        return ('{\n      "killed": false,\n      "scalar": ' + value(o.scalar)
                + source + ',\n      "target": '
                + _ints(o.target, "\n      ") + "\n    }")

    fields = {k: "true" if getattr(report, k) else "false"
              for k in ("all_scalars_one", "all_unit_scalars")}
    return _document(report.lam, report.level, fields, "outcomes",
                     map(outcome, report.outcomes))


def _guard(args, parser, *more_lams) -> None:
    """Bound the request; the dimension cap also covers the slices of
    more_lams at the same level."""
    if sum(args.lam) > args.max_sum:
        parser.error(f"sum(lambda) = {sum(args.lam)} exceeds the limit "
                     f"{args.max_sum} (raise with --max-sum)")
    cap = os.environ.get("QCANON_MAX_DIM")
    if not cap:
        return
    if not cap.strip().isdecimal():
        parser.error(f"QCANON_MAX_DIM must be a nonnegative integer, "
                     f"got {cap!r}")
    limit = int(cap)
    for lams in (args.lam, *more_lams):
        dim = slice_dim(lams, args.level)
        if dim > limit:
            parser.error(f"weight slice dimension {dim} exceeds "
                         f"QCANON_MAX_DIM={cap}")


def cmd_basis(args, parser) -> int:
    from .canonical import dual_canonical_basis
    _guard(args, parser)
    basis = dual_canonical_basis(args.lam, args.level)
    _dump(_basis_doc(args.lam, args.level, basis, "dual_canonical"),
          args.output)
    return 0


def cmd_canonical2(args, parser) -> int:
    from .canonical import canonical_basis_pair
    _guard(args, parser)
    if len(args.lam) != 2:
        parser.error("canonical2 needs exactly two weights")
    basis = canonical_basis_pair(args.lam, args.level)
    _dump(_basis_doc(args.lam, args.level, basis, "canonical"), args.output)
    return 0


def cmd_diagrams(args, parser) -> int:
    from .diagrams import (WeightMismatchError, enumerate_B, filter_invariant,
                           filter_singular, render_ascii, render_svg_many)
    _guard(args, parser)
    if args.filter == "invariant" and sum(args.lam) != 2 * args.level:
        raise WeightMismatchError(f"need sum(capacities) = 2*arcs, got "
                                  f"{sum(args.lam)} vs {2 * args.level}")
    diagrams = enumerate_B(args.lam, args.level)
    if args.filter == "singular":
        diagrams = filter_singular(diagrams)
    elif args.filter == "invariant":
        diagrams = filter_invariant(diagrams)
    if args.render == "ascii":
        _dump(["\n".join(render_ascii(d) for d in diagrams)
               or "no diagrams\n"], args.output)
        return 0
    if args.render == "svg":
        _dump([render_svg_many(diagrams)], args.output)
        return 0
    _dump(_diagrams_doc(args.lam, args.level, args.filter, diagrams),
          args.output)
    return 0


def cmd_rmatrix(args, parser) -> int:
    from .rmatrix import (rcheck_longest, rcheck_matrix, tau_theta_n,
                          theta_matrix, theta_n_matrix)
    from .weightmod import dual_factors, simple_factors
    _guard(args, parser)
    lams, level, n = args.lam, args.level, len(args.lam)
    need = (f"0 <= pos < {n - 1} for {n} factors" if n > 1
            else "at least two factors")
    if args.pos is not None and args.op != "rcheck":
        parser.error(f"--pos is only for --op rcheck, where it needs {need}")
    if args.op == "theta":
        if len(lams) != 2:
            parser.error("--op theta needs exactly two weights")
        op = theta_matrix(simple_factors(lams), level)
    elif args.op == "theta_n":
        op = theta_n_matrix(simple_factors(lams), level)
    elif args.op == "tau_theta_n":
        op = tau_theta_n(dual_factors(lams), level)
    elif args.pos is None:  # rcheck, the only other choice
        op = rcheck_longest(simple_factors(lams), level)
    elif not 0 <= args.pos < n - 1:
        parser.error(f"--pos {args.pos} is out of range: need {need}")
    else:
        op = rcheck_matrix(simple_factors(lams), level, args.pos)
    _dump(_operator_doc(op, lams, level, args.op, args.pos), args.output)
    return 0


def cmd_cable(args, parser) -> int:
    from .cabling import cabling_report
    _guard(args, parser, (1,) * sum(args.lam))  # and the unit slice it cables
    report = cabling_report(args.lam, args.level)
    _dump(_cable_doc(report), args.output)
    return 0


def cmd_verify(args, parser) -> int:
    from .verify import run_suite
    results = run_suite(args.suite, args.max_weight_sum)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        _stdout(f"{status} {r.name} ({r.elapsed:.2f}s): {r.detail}\n")
        if r.max_sum < args.max_weight_sum:
            sys.stderr.write(f"qcanon: {r.name} ran at --max-weight-sum "
                             f"{r.max_sum}, not {args.max_weight_sum}\n")
    total = sum(r.elapsed for r in results)
    _stdout(f"{len(results) - len(failed)}/{len(results)} checks "
            f"passed in {total:.2f}s\n")
    if failed:
        import json
        for r in failed:
            _stdout(json.dumps(r.failure, sort_keys=True) + "\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcanon",
        description="exact canonical-basis computations for quantum sl2 "
                    "tensor products")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lambda", dest="lam", type=_parse_lambda,
                       required=True, metavar="L1,L2,...",
                       help="highest weights of the factors")
        p.add_argument("--level", type=_nonneg, required=True,
                       help="number of lowering steps below the top weight")
        p.add_argument("--max-sum", type=_nonneg, default=12,
                       help="guard rail on sum(lambda) (default 12)")
        p.add_argument("-o", "--output", default=None,
                       help="write to a file instead of stdout")

    p = sub.add_parser("basis", help="dual canonical basis of a weight slice")
    common(p)
    p.set_defaults(func=cmd_basis, parser=p)

    p = sub.add_parser("canonical2",
                       help="canonical basis of a two-factor product")
    common(p)
    p.set_defaults(func=cmd_canonical2, parser=p)

    p = sub.add_parser("diagrams", help="list or render arc diagrams")
    common(p)
    p.add_argument("--filter", choices=("singular", "invariant"), default=None)
    p.add_argument("--render", choices=("ascii", "svg"), default=None)
    p.set_defaults(func=cmd_diagrams, parser=p)

    p = sub.add_parser("rmatrix", help="braiding operator matrices")
    common(p)
    p.add_argument("--op", choices=("theta", "theta_n", "tau_theta_n",
                                    "rcheck"), required=True)
    p.add_argument("--pos", type=int, default=None,
                   help="adjacent position for --op rcheck (default: "
                        "the longest braiding)")
    p.set_defaults(func=cmd_rmatrix, parser=p)

    p = sub.add_parser("cable", help="unit-weight collapse report")
    common(p)
    p.set_defaults(func=cmd_cable, parser=p)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all",
                   help="one of %s or a check name" %
                        ", ".join(sorted(SUITE_ALIASES)))
    p.add_argument("--max-weight-sum", type=_nonneg, default=6,
                   help=f"bound on sum(lambda) of the sweeps (default 6, "
                        f"at most {MAX_WEIGHT_SUM})")
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:  # nested, so that a record stdout refuses is an exit 2
            # the subcommand's parser: its errors print that usage line
            return args.func(args, args.parser)
        except _PROPERTY_FAILURE as exc:
            import json
            _stdout(json.dumps(
                {"schema": SCHEMA, "failure": True,
                 "error_type": type(exc).__name__, "error": str(exc)},
                sort_keys=True) + "\n")
            return 1
    except _BAD_REQUEST as exc:
        sys.stderr.write(f"qcanon: {exc}\n")
        return 2
    except (MemoryError, RecursionError) as exc:
        sys.stderr.write(f"qcanon: {type(exc).__name__}: the request is too "
                         f"large; lower --max-sum or set QCANON_MAX_DIM\n")
        return 2


def run() -> None:
    """The `qcanon` process: main() on the command line, then a flushed
    os._exit in place of interpreter teardown (see the module docstring).
    argparse's SystemExit (help, or bad flags) takes the same path.  A final
    flush that fails is exit 2 with one stderr line.  Unexpected exceptions
    leave by the usual path."""
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:  # None: fd 1 was closed at start
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # an exit 2 has already written its stderr line
            sys.stderr.write(f"qcanon: cannot write stdout: {exc.strerror}\n")
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
