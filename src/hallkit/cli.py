"""Command-line surface.

Deterministic text or JSON output for every subcommand; exit code 0 on
success, 1 on a domain error (with a machine-readable diagnostic on
stderr), 2 on usage errors.  A reader that closes stdout early ends the
command with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import embeddings as emb
from . import oracle, verify
from .caps import limits
from .errors import HallkitError
from .hall import hall_polynomial
from .partitions import fmt, parse, read_int
from .s2cat import object_of_tableau, parse_object, tableau_of_object
from .tableaux import KleinTableau, ascii_diagram, enumerate_klein, enumerate_lr


def _parse_tableau(text: str) -> KleinTableau:
    if text.lstrip(" ").startswith("{"):
        return KleinTableau.from_json(json.loads(text))
    return KleinTableau.from_text(text)


def _integer(text: str) -> int:
    try:
        return read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative(text: str) -> int:
    if (value := _integer(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_gens(text: str) -> list[list[int]]:
    if not text.strip(" "):
        return []
    return [list(map(read_int, chunk.split(","))) for chunk in text.split(";")]


def _emit(payload: dict, text: str, fmt_kind: str):
    if fmt_kind == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _diagram(tab) -> str:
    """A tableau's compact text above its ASCII diagram."""
    return f"{tab.to_text()}\n{ascii_diagram(tab)}"


def _add_rows(payload: dict, lines: list[str], key: str, field: str, rows) -> None:
    """Per (tableau, value) row, a JSON record in payload[key] and a text line."""
    payload[key] = [{"tableau": t.to_json(), "tableau_text": t.to_text(), field: v}
                    for t, v in rows]
    lines += [f"  {t.to_text()}  ->  {v}" for t, v in rows]


def _add_type_flags(sub):
    sub.add_argument("--alpha", default="", help="subgroup type, e.g. 3,2,1")
    sub.add_argument("--beta", required=True, help="ambient type, e.g. 4,3,2")
    sub.add_argument("--gamma", default="", help="quotient type, e.g. 2,1")


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def cmd_hall(args) -> int:
    alpha, beta, gamma = parse(args.alpha), parse(args.beta), parse(args.gamma)
    bd = hall_polynomial(alpha, beta, gamma)
    payload = {
        "alpha": list(alpha),
        "beta": list(beta),
        "gamma": list(gamma),
        "polynomial": bd.total.to_json(),
        "text": bd.total.to_text(),
    }
    lines = [bd.total.to_text()]
    if args.per_tableau:
        rows = [(tab, poly.to_text()) for tab, poly in bd.per_tableau]
        _add_rows(payload, lines, "per_tableau", "multiplicity", rows)
    _emit(payload, "\n".join(lines), args.format)
    return 0


def cmd_tableaux(args) -> int:
    alpha, beta, gamma = parse(args.alpha), parse(args.beta), parse(args.gamma)
    if args.kind == "lr":
        tabs = list(enumerate_lr(alpha, beta, gamma))
    else:
        tabs = list(enumerate_klein(alpha, beta, gamma))
    if args.count:
        _emit({"count": len(tabs)}, str(len(tabs)), args.format)
        return 0
    payload = {"tableaux": [t.to_json() for t in tabs]}
    _emit(payload, "\n".join(map(_diagram, tabs)) if tabs else "(none)", args.format)
    return 0


def cmd_decompose(args) -> int:
    if args.tableau is not None:
        obj = object_of_tableau(_parse_tableau(args.tableau))
        payload = {"object": obj.to_json(), "text": obj.to_text()}
        _emit(payload, obj.to_text(), args.format)
    else:
        obj = parse_object(args.object)
        tab = tableau_of_object(obj)
        payload = {"tableau": tab.to_json(), "text": tab.to_text()}
        _emit(payload, _diagram(tab), args.format)
    return 0


def cmd_embed(args) -> int:
    E = emb.Embedding.from_coords(args.prime, parse(args.beta), _parse_gens(args.gens))
    if args.what == "tableau":
        tab = emb.klein_tableau(E)
        payload = {"tableau": tab.to_json(), "text": tab.to_text()}
        _emit(payload, _diagram(tab), args.format)
    elif args.what == "lr":
        tab = emb.lr_tableau(E)
        _emit(tab.to_json(), tab.to_text(), args.format)
    else:  # type
        alpha = E.subgroup_type()
        gamma = emb.quotient_type(E.ambient, E.subgroup)
        payload = {"alpha": list(alpha), "beta": list(E.beta), "gamma": list(gamma)}
        _emit(payload, f"({fmt(alpha)}) <= ({fmt(E.beta)}) quotient ({fmt(gamma)})", args.format)
    return 0


def cmd_oracle(args) -> int:
    alpha, beta, gamma = parse(args.alpha), parse(args.beta), parse(args.gamma)
    census = oracle.census(args.prime, beta)
    count = census.types.get((alpha, gamma), 0)
    payload = {
        "count": count,
        "description": f"subgroups of M({beta}) at p={args.prime}",
        "elapsed": round(census.elapsed, 3),
    }
    lines = [str(count)]
    if args.by_tableau:
        rows = [(tab, census.tableaux.get(tab, 0)) for tab in enumerate_klein(alpha, beta, gamma)]
        _add_rows(payload, lines, "by_tableau", "count", rows)
    _emit(payload, "\n".join(lines), args.format)
    return 0


def cmd_verify(args) -> int:
    suites = args.suite or ["all"]  # no --suite runs them all
    names = verify.SUITES if "all" in suites else tuple(dict.fromkeys(suites))
    reports = verify.run_suites(
        names,
        prime=args.prime,
        max_beta=args.max_beta,
        seed=args.seed,
        count=args.count,
    )
    payload = {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json() for r in reports],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["passed"] else 1


@cache  # built once per process: main may run many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallkit",
        description="Hall polynomials of finite abelian p-groups via Klein tableaux.",
    )
    # main puts both caps in force; a subcommand without a cap flag leaves it None
    parser.set_defaults(cap=None, subgroup_cap=None)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("hall", help="compute a Hall polynomial")
    _add_type_flags(sp)
    sp.add_argument("--per-tableau", action="store_true", help="include the per-tableau breakdown")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_hall)

    sp = subs.add_parser("tableaux", help="enumerate LR or Klein tableaux of a type")
    sp.add_argument("kind", choices=("lr", "klein"))
    _add_type_flags(sp)
    sp.add_argument("--count", action="store_true", help="print only the number of tableaux")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_tableaux)

    sp = subs.add_parser("decompose", help="convert between tableaux and picket/bipicket sums")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tableau", help="tableau as JSON or compact text")
    group.add_argument("--object", help="object text, e.g. 'T(4,2) + P(1,3)'")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = subs.add_parser("embed", help="analyze a concrete embedding")
    sp.add_argument("what", choices=("tableau", "lr", "type"))
    sp.add_argument("--prime", type=_integer, required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gens", default="", help="semicolon-separated coordinate vectors, e.g. '4,2;1,0'")
    sp.add_argument("--cap", type=_non_negative, default=None, help="general cap")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_embed)

    sp = subs.add_parser("oracle", help="brute-force subgroup counts")
    sp.add_argument("what", choices=("hall",))
    sp.add_argument("--prime", type=_integer, default=2)
    _add_type_flags(sp)
    sp.add_argument("--by-tableau", action="store_true")
    sp.add_argument("--subgroup-cap", type=_non_negative, default=None)
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = subs.add_parser("verify", help="run the verification suites")
    sp.add_argument(
        "--suite",
        action="append",
        choices=verify.SUITES + ("all",),
        default=None,
        help="suite to run (repeatable); default all",
    )
    sp.add_argument(
        "--prime", type=_integer, default=2,
        help="prime of formulas and hall; roundtrip and theorem2 run p = 2 and 3",
    )
    sp.add_argument(
        "--max-beta", type=_non_negative, default=7, help="largest |beta| that hall checks"
    )
    sp.add_argument("--seed", type=_integer, default=20260808, help="random seed of theorem2")
    sp.add_argument(
        "--count", type=_non_negative, default=500, help="random embeddings for theorem2"
    )
    sp.add_argument("--cap", type=_non_negative, default=None, help="general cap of "
                    "every suite, diagrams included; it can lower, never raise, hall's "
                    "census bound and the Aut/End sweep's 2^14 bound")
    sp.add_argument("--subgroup-cap", type=_non_negative, default=None,
                    help="subgroup-lattice cap; it raises (or lowers) the census bound of "
                    "hall's census checks, up to the general cap")
    sp.set_defaults(func=cmd_verify)

    return parser


# the flags whose value may start with '-'
_DASH_VALUE_FLAGS = ("--tableau", "--gens")


def _join_dash_values(argv: list[str]) -> list[str]:
    """argparse reads a value starting with '-' as a flag, yet a text
    tableau whose first partition is empty starts with '-', and so may a
    generator's first coordinate; so ``--tableau -/1/2`` is rewritten to
    ``--tableau=-/1/2`` and ``--gens -1,-1`` to ``--gens=-1,-1``, and so
    is any abbreviation argparse accepts for either flag (``--tab
    -/1/2``).  A value starting with '--' is left alone: it is another
    flag."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        takes_dash = len(flag) > 2 and any(name.startswith(flag) for name in _DASH_VALUE_FLAGS)
        if takes_dash and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        with limits(args.cap, args.subgroup_cap):
            code = args.func(args)
            # flush here, so that a closed stdout raises inside this block
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HallkitError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
