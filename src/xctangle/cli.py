"""Command-line front end.

Subcommands cover validation, canonical forms, composition/tensor,
tangle/diagram/code conversions, exact evaluation, axiom checking, the
finite-type pairing and framing formula, the move engine, the bracket
oracle, and the acceptance self-test.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.
Randomized commands take an explicit ``--seed`` with a fixed default, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import moves as M
from .acceptance import CRITERIA, DEFAULT_SEED, run_all, run_criterion
from .algebra import builtin_uqsl2, parse_algebra
from .errors import DomainError, ParseError
from .gauss import (
    compose,
    parse_diagram,
    print_diagram,
    renumber_canonically,
    tensor,
)
from .invariant import check_axioms, iota_realize, zeval
from .polyak import framing_formula, pairing, parse_formula
from .tangle import (
    from_gauss,
    parse_tangle,
    print_tangle,
    to_gauss,
)
from .virtualt import (
    bracket_oracle,
    forget,
    lift,
    parse_code,
    print_code,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(args):
    if getattr(args, "algebra", None):
        return parse_algebra(_read(args.algebra))
    return builtin_uqsl2()


def _emit(args, obj: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json-lines":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _matrix_lines(m) -> list[str]:
    return [", ".join(str(e) for e in row) for row in m.entries]


#: The reader of each ``validate --type``; each reader validates what it
#: reads.
_READERS = {"diagram": parse_diagram, "code": parse_code,
            "tangle": parse_tangle, "algebra": parse_algebra,
            "formula": parse_formula}


#: The commands that read one file and print one value: name -> (help,
#: reader, the value printed for what it reads, its json-lines key).
_ONE_FILE = {
    "canon": ("canonical form of a diagram", parse_diagram,
              lambda d: print_diagram(renumber_canonically(d)), "canonical"),
    "to-tangle": ("diagram -> tangle graph", parse_diagram,
                  lambda d: print_tangle(from_gauss(d)), "tangle"),
    "to-gauss": ("tangle graph -> diagram", parse_tangle,
                 lambda t: print_diagram(to_gauss(t)), "diagram"),
    "lift": ("planar lift of a signed code", parse_code,
             lambda g: print_diagram(lift(g)), "diagram"),
    "forget": ("drop diamonds from a diagram", parse_diagram,
               lambda d: print_code(forget(d)), "code"),
    "framing": ("degree-one framing formula", parse_diagram, framing_formula,
                "framing"),
    "bracket": ("bracket state sum of a code", parse_code,
                lambda g: str(bracket_oracle(g)), "bracket"),
}


def cmd_one_file(args) -> int:
    _, reader, value, key = _ONE_FILE[args.command]
    val = value(reader(_read(args.file)))
    _emit(args, {key: val}, str(val))
    return 0


def cmd_validate(args) -> int:
    _READERS[args.type](_read(args.file))
    _emit(args, {"valid": True, "type": args.type}, "valid\n")
    return 0


def cmd_compose(args) -> int:
    lower = parse_diagram(_read(args.lower))
    upper = parse_diagram(_read(args.upper))
    out = print_diagram(compose(upper, lower))
    _emit(args, {"diagram": out}, out)
    return 0


def cmd_tensor(args) -> int:
    left = parse_diagram(_read(args.left))
    right = parse_diagram(_read(args.right))
    out = print_diagram(tensor(left, right))
    _emit(args, {"diagram": out}, out)
    return 0


def cmd_zeval(args) -> int:
    d = parse_diagram(_read(args.file))
    alg = _load_algebra(args)
    v = (zeval(d, alg) if args.guardrail is None
         else zeval(d, alg, guardrail=args.guardrail))
    record = {"sigma": list(v.sigma), "matrix": _matrix_lines(v.value)}
    lines = ["sigma: " + " ".join(str(s) for s in v.sigma), *record["matrix"]]
    if args.realize:
        record["realized"] = _matrix_lines(iota_realize(v))
        lines += ["realized:", *record["realized"]]
    _emit(args, record, "\n".join(lines) + "\n")
    return 0


def cmd_axioms(args) -> int:
    alg = _load_algebra(args)
    report = check_axioms(alg)
    lines = []
    for name, res in report.items():
        if name == "ok":
            continue
        lines.append(f"{name}: {'ok' if res['ok'] else 'FAIL at ' + str(res['entry'])}")
    lines.append("all: " + ("ok" if report["ok"] else "FAIL"))
    _emit(args, report, "\n".join(lines) + "\n")
    return 0 if report["ok"] else 1


def cmd_pair(args) -> int:
    formula = parse_formula(_read(args.formula))
    d = parse_diagram(_read(args.diagram))
    val = pairing(formula, d)
    _emit(args, {"pairing": val}, f"{val}\n")
    return 0


def _site_text(i: int, site: M.MoveSite) -> str:
    p = site.pattern
    locs = " ".join(f"{s + 1}:{pos}" for s, pos in site.locs)
    assign = " ".join(f"{k}={v}" for k, v in site.assign)
    eps = f" eps={site.eps:+d}" if p.uses_eps() else ""
    return (f"{i}: {p.kind} v{p.variant} side {site.side} at {locs}"
            + (f" [{assign}]" if assign else "") + eps)


def cmd_moves_list(args) -> int:
    d = parse_diagram(_read(args.file))
    sites = M.find_sites(d, args.kind)
    if args.format == "json-lines":
        for i, s in enumerate(sites):
            print(json.dumps({
                "index": i, "kind": s.pattern.kind,
                "variant": s.pattern.variant, "side": s.side,
                "locs": [list(l) for l in s.locs],
                "assign": [list(a) for a in s.assign], "eps": s.eps,
            }, sort_keys=True))
    else:
        for i, s in enumerate(sites):
            print(_site_text(i, s))
        print(f"total: {len(sites)}")
    return 0


def cmd_moves_apply(args) -> int:
    d = parse_diagram(_read(args.file))
    sites = M.find_sites(d, args.kind)
    if not 0 <= args.index < len(sites):
        raise DomainError(
            f"site index {args.index} out of range (found {len(sites)})")
    out = print_diagram(M.apply(d, sites[args.index]))
    _emit(args, {"diagram": out}, out)
    return 0


def cmd_moves_orbit(args) -> int:
    d = parse_diagram(_read(args.file))
    res = M.orbit(d, max_depth=args.max_depth, max_size=args.max_size)
    keys = sorted(print_diagram(k) for k in res.keys)
    if args.format == "json-lines":
        for k in keys:
            print(json.dumps({"diagram": k}, sort_keys=True))
        print(json.dumps({"size": len(keys), "truncated": res.truncated},
                         sort_keys=True))
    else:
        for k in keys:
            print(k.replace("\n", "; "))
        print(f"size: {len(keys)} truncated: {res.truncated}")
    return 0


def cmd_selftest(args) -> int:
    results = (run_all(args.seed) if args.only is None
               else [run_criterion(args.only, args.seed)])
    ok = True
    for r in results:
        ok &= r.passed
        if args.format == "json-lines":
            headroom = r.headroom_s
            print(json.dumps({
                "criterion": r.number, "name": r.name,
                "passed": r.passed, "detail": r.detail,
                "seconds": round(r.seconds, 1), "budget_s": r.budget_s,
                "headroom_s": None if headroom is None else round(headroom, 1),
            }, sort_keys=True))
        else:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{r.number:>2} {mark} {r.seconds:6.1f}s  "
                  f"{r.name}: {r.detail}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xct",
        description="Exact toolkit for decorated Gauss diagrams, their "
                    "move calculus, universal evaluation, and finite-type "
                    "formulas.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, parent=sub, **kw):
        p = parent.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text")
        return p

    p = add("validate", cmd_validate, help="validate an input file")
    p.add_argument("file")
    p.add_argument("--type", default="diagram", choices=tuple(_READERS))

    def one_file(name):
        add(name, cmd_one_file, help=_ONE_FILE[name][0]).add_argument("file")

    one_file("canon")

    p = add("compose", cmd_compose, help="stack two diagrams")
    p.add_argument("lower")
    p.add_argument("upper")

    p = add("tensor", cmd_tensor, help="place two diagrams side by side")
    p.add_argument("left")
    p.add_argument("right")

    for name in ("to-tangle", "to-gauss", "lift", "forget"):
        one_file(name)

    p = add("zeval", cmd_zeval, help="evaluate the universal invariant")
    p.add_argument("file")
    p.add_argument("--algebra", help="algebra file (default: built-in)")
    p.add_argument("--guardrail", type=int, default=None,
                   help="maximum tensor size d**n")
    p.add_argument("--realize", action="store_true",
                   help="also print the permutation-realized matrix")

    p = add("axioms", cmd_axioms, help="check the algebra axioms")
    p.add_argument("--algebra", help="algebra file (default: built-in)")

    p = add("pair", cmd_pair, help="evaluate a diagram formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--diagram", required=True)

    one_file("framing")
    one_file("bracket")

    pm = sub.add_parser("moves", help="local rewrite moves")
    msub = pm.add_subparsers(dest="subcommand", required=True)

    p = add("list", cmd_moves_list, parent=msub, help="list applicable sites")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=M.KINDS)

    p = add("apply", cmd_moves_apply, parent=msub, help="apply a site by index")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=M.KINDS)
    p.add_argument("--index", type=int, required=True)

    p = add("orbit", cmd_moves_orbit, parent=msub, help="bounded move closure")
    p.add_argument("file")
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--max-size", type=int, default=6)

    p = add("selftest", cmd_selftest, help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--only", type=int, default=None,
                   choices=range(1, len(CRITERIA) + 1), metavar="N",
                   help="run a single criterion")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
