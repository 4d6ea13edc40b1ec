"""Command line interface.

Weights are written in fundamental-weight coordinates, one bracket group
per current degree: --lambda "[3,1/2],[0,0]" is (lambda_0, lambda_1) for a
rank-2 type.  Weyl group words use 1-based simple reflection labels.

Exit status: 0 success, 2 argument/parse error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import engine, kl, oracle
from .characters import cone, height, kostant_partition, verma_character
from .root_datum import Weight, build_root_datum
from .trunc_weights import TruncatedWeight


class CliError(ValueError):
    pass


def parse_weight(datum, text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise CliError("weight must look like [a,b],[c,d]: got %r" % text)
    groups = text[1:-1].split("],[")
    comps = []
    for g in groups:
        entries = [e for e in g.split(",") if e.strip() != ""]
        if len(entries) != datum.rank:
            raise CliError("expected %d coordinates per component, got %r"
                           % (datum.rank, g))
        try:
            comps.append(Weight(tuple(Fraction(e.strip()) for e in entries)))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError("bad rational in %r: %s" % (g, exc))
    return TruncatedWeight(comps)


def parse_word(text, num_gens):
    text = text.strip()
    if not text:
        return ()
    try:
        labels = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError("word must be comma-separated integers: %r" % text)
    if any(l < 1 or l > num_gens for l in labels):
        raise CliError("simple reflection labels run from 1 to %d: %r"
                       % (num_gens, text))
    return tuple(l - 1 for l in labels)


def parse_vector(datum, text):
    try:
        entries = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError("vector must be comma-separated integers: %r" % text)
    if len(entries) != datum.rank or any(e < 0 for e in entries):
        raise CliError("expected %d nonnegative entries" % datum.rank)
    return tuple(entries)


def _query(args, need_nu=True):
    """(datum, lambda, nu) from the common arguments; nu is None unless
    need_nu."""
    datum = build_root_datum(args.type)
    lam = parse_weight(datum, getattr(args, "lam"))
    if args.n is not None and lam.level != args.n:
        raise CliError("--n %d disagrees with %d weight components"
                       % (args.n, lam.level + 1))
    nu = None
    if need_nu:
        nu = parse_weight(datum, args.nu)
        if nu.level != lam.level:
            raise CliError("--lambda and --nu have different levels")
    return datum, lam, nu


# -- subcommands -------------------------------------------------------

def cmd_mult(args):
    datum, lam, nu = _query(args)
    query = engine.MultiplicityQuery(datum, lam, nu)
    value, trace = engine.multiplicity(query, trace=args.trace)
    out = {"value": value}
    if args.trace:
        out["trace"] = trace.to_dict()
    status = 0
    if args.verify:
        check = oracle.oracle_multiplicity(datum, lam, nu, args.depth)
        out["oracle"] = check
        if check != value:
            status = 3
    _emit(args, out, lambda o: "%d" % o["value"] +
          ("" if "oracle" not in o else "  (oracle: %d)" % o["oracle"]))
    if args.trace and not args.json:
        json.dump(out["trace"], sys.stdout, indent=2)
        print()
    return status


def cmd_table(args):
    datum, lam, _ = _query(args, need_nu=False)
    table = engine.multiplicity_table(datum, lam, args.depth)
    items = sorted(table.items(), key=lambda kv: kv[0].coords, reverse=True)
    out = {"entries": [{"nu_0": str(w), "value": v} for w, v in items]}
    _emit(args, out, lambda o: "\n".join(
        "%s  %d" % (e["nu_0"], e["value"]) for e in o["entries"]) or "(empty)")
    return 0


def cmd_kl(args):
    datum = build_root_datum(args.type)
    group = datum.weyl_group()
    x = group.from_word(parse_word(args.x, group.num_gens))
    y = group.from_word(parse_word(args.y, group.num_gens))
    poly = kl.kl_polynomial(group, x, y)
    out = {"polynomial": str(poly), "coefficients": list(poly.coeffs),
           "at_one": int(poly(1))}
    _emit(args, out, lambda o: o["polynomial"])
    return 0


def cmd_partition(args):
    datum = build_root_datum(args.type)
    beta = parse_vector(datum, args.beta)
    out = {"value": kostant_partition(datum, beta)}
    _emit(args, out, lambda o: "%d" % o["value"])
    return 0


def cmd_character(args):
    datum = build_root_datum(args.type)
    if args.lam is not None:
        lam = parse_weight(datum, args.lam)
    elif args.n is not None:
        lam = TruncatedWeight([Weight((0,) * datum.rank)] * (args.n + 1))
    else:
        raise CliError("need --lambda or --n")
    if args.n is not None and lam.level != args.n:
        raise CliError("--n disagrees with --lambda")
    ch = verma_character(datum, lam, args.depth, method=args.method)
    entries = [{"beta": list(b), "dim": ch.table[b]}
               for b in sorted(ch.table, key=lambda b: (height(b), b))]
    out = {"base": str(ch.base), "entries": entries}
    _emit(args, out, lambda o: "\n".join(
        "beta=%s  dim=%d" % (",".join(map(str, e["beta"])), e["dim"])
        for e in o["entries"]))
    return 0


def cmd_oracle(args):
    datum, lam, nu = _query(args)
    if args.invariants is not None:
        levi = parse_word(args.invariants, datum.rank)
    value = oracle.oracle_multiplicity(datum, lam, nu, args.depth)
    out = {"value": value}
    if args.invariants is not None:
        module = oracle.build_verma(datum, lam,
                                    args.depth if args.depth is not None else 3)
        ch = oracle.invariants_character(module, levi)
        out["invariants"] = [{"beta": list(b), "dim": d}
                             for b, d in sorted(ch.table.items())]
    _emit(args, out, lambda o: "%d" % o["value"])
    return 0


def cmd_verify_suite(args):
    """Engine against oracle on a fixed small sweep."""
    cases = []
    for tail in ((0,), (1,)):
        for lam0 in range(3):
            cases.append(("A1", 1, (lam0,), (tail,), 3))
    a2_tails = (((0, 0),), ((1, 1),), ((1, -1),))
    for tail in a2_tails:
        cases.append(("A2", 1, (1, 1), tail, 2))
    mismatches = 0
    checked = 0
    for type_str, n, lam0, tail, depth in cases:
        datum = build_root_datum(type_str)
        lam = TruncatedWeight([Weight(lam0)] + [Weight(t) for t in tail])
        dec = oracle.verma_decomposition(datum, lam, depth)
        for beta in cone(datum.rank, depth):
            nu0 = lam[0] - datum.root_weight(beta)
            nu = TruncatedWeight((nu0,) + lam.tail())
            value, _ = engine.multiplicity(
                engine.MultiplicityQuery(datum, lam, nu))
            expected = dec.get(tuple(beta), 0)
            checked += 1
            if value != expected:
                mismatches += 1
                # stdout carries only the JSON object under --json
                print("MISMATCH %s n=%d lambda=%s nu=%s engine=%d oracle=%d"
                      % (type_str, n, lam, nu, value, expected),
                      file=sys.stderr if args.json else sys.stdout)
    out = {"checked": checked, "mismatches": mismatches}
    _emit(args, out, lambda o: "checked %d queries, %d mismatches"
          % (o["checked"], o["mismatches"]))
    return 3 if mismatches else 0


def _emit(args, payload, render):
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout)
        print()
    else:
        print(render(payload))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trunco",
        description="Composition multiplicities of Vermas over truncated "
                    "current Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nu=True, depth=False):
        p.add_argument("--type", required=True, help="Cartan type, e.g. A2 or A1xA1")
        p.add_argument("--n", type=int, default=None, help="truncation level")
        p.add_argument("--lambda", dest="lam", required=True)
        if nu:
            p.add_argument("--nu", required=True)
        if depth:
            p.add_argument("--depth", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("mult", help="engine multiplicity [M_lambda : L_nu]")
    common(p)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the module oracle")
    p.add_argument("--depth", type=int, default=None,
                   help="oracle depth for --verify")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("table", help="all nonzero multiplicities below lambda")
    common(p, nu=False, depth=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial P_{x,y}")
    p.add_argument("--type", required=True)
    p.add_argument("--x", required=True, help="word, e.g. \"2\" (empty = identity)")
    p.add_argument("--y", required=True, help="word, e.g. \"2,1,3,2\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("partition", help="Kostant partition count")
    p.add_argument("--type", required=True)
    p.add_argument("--beta", required=True, help="root coordinates, e.g. \"1,1\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("character", help="truncated Verma character")
    p.add_argument("--type", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--method", choices=["convolution", "pbw"],
                   default="convolution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("oracle", help="multiplicity from explicit modules")
    common(p)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--invariants", default=None,
                   help="1-based Levi indices: also print the invariants character")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-suite", help="engine vs oracle sweep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
