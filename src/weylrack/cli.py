"""Command-line interface.

Subcommands: classes, typed, sq, nichols, fk, verify.  Elements use the
"BITS:CYCLES" format everywhere, e.g. "101:(1 2 3)"; the identity is "0:()".
Output is deterministic: JSON is emitted with sorted keys and no timestamps.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import sys
import time
from typing import NamedTuple, Optional

from . import __version__, fk, nichols, yd
from .cache import ResultCache
from .classes import ConjugacyClass, centralizer, class_reps, enumerate_class
from .classify import classify
from .cyclotomic import CyclotomicField
from .errors import BudgetExceeded
from .rack import sq, sq_formula_commuting, sq_formula_general
from .signed import MAX_RANK, GroupKind, contains, format_element, group_order, multiply, parse_element
from .suites import SUITES, SuiteParamError, run_suite


def _group(value: str) -> GroupKind:
    try:
        return GroupKind(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown group {value!r}; use B, D, or S")


def _bounded_int(low: int, high: Optional[int] = None):
    """An argparse type for integers in low..high (unbounded above if high is None)."""

    def parse(value: str) -> int:
        try:
            k = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
        if k < low or (high is not None and k > high):
            span = f"in {low}..{high}" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"{k} is not {span}")
        return k

    return parse


_rank = _bounded_int(1, MAX_RANK)
_positive = _bounded_int(1)


def _element(value: str):
    """An argparse type for an element in BITS:CYCLES format."""
    try:
        return parse_element(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _json_object(value: str) -> dict:
    """An argparse type for a JSON object."""
    try:
        obj = json.loads(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError("not a JSON object")
    return obj


class _Character(NamedTuple):
    spec: str  # the --char text as given
    modulus: int
    roots: tuple  # (M, K) for each zetaM^K; empty for 'trivial' and 'sign'


_ZETA = re.compile(r"zeta(\d+)(?:\^(-?\d+))?")


def _character(spec: str) -> _Character:
    """An argparse type for ``--char``: 'trivial', 'sign', or a list of roots
    of unity, each 1, -1 or zetaM^K."""
    if spec in ("trivial", "sign"):
        return _Character(spec, 2, ())
    modulus, roots = 2, []
    for tok in (t.strip() for t in spec.split(",")):
        if tok in ("1", "-1"):
            roots.append((2, 0 if tok == "1" else 1))
            continue
        match = _ZETA.fullmatch(tok)
        if match is None:
            raise argparse.ArgumentTypeError(f"{tok!r} is not 1, -1 or zetaM^K")
        m = int(match.group(1))
        if m < 1:
            raise argparse.ArgumentTypeError(f"{tok!r} needs an order M >= 1")
        roots.append((m, int(match.group(2) or 1)))
        modulus = math.lcm(modulus, m)
    return _Character(spec, modulus, tuple(roots))


class _UsageError(ValueError):
    """A bad argument value found when a command reads it, before computing."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylrack",
        description="Exact computations with conjugation racks of signed permutations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--budget",
        type=_positive,
        default=None,
        help="budget override for nichols and fk (linear engine): entries per degree",
    )
    parser.add_argument("--cache-dir", default=None, help="directory for the JSONL result cache")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=_positive, default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", parents=[common], help="conjugacy classes of a group")
    p.add_argument("--group", type=_group, default=GroupKind.B)
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument(
        "--rep", type=_element, default=None, help="element BITS:CYCLES; restrict to its class"
    )

    p = sub.add_parser("typed", parents=[common], help="decide a type-D decomposition for a class")
    p.add_argument("--group", type=_group, default=GroupKind.B)
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument(
        "--rep", type=_element, required=True, help="class representative, BITS:CYCLES"
    )

    p = sub.add_parser("sq", parents=[common], help="the squaring operation x |> (y |> (x |> y))")
    p.add_argument("--x", type=_element, required=True)
    p.add_argument("--y", type=_element, required=True)

    p = sub.add_parser("nichols", parents=[common], help="graded dimensions from a class and character")
    p.add_argument("--group", type=_group, default=GroupKind.B)
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument(
        "--rep", type=_element, required=True, help="class representative, BITS:CYCLES"
    )
    p.add_argument(
        "--char",
        type=_character,
        required=True,
        help="'trivial', 'sign', or comma-separated scalar values "
        "(1, -1, or zetaM^K) for the centralizer generators",
    )
    p.add_argument("--max-degree", type=_positive, default=6)

    p = sub.add_parser("fk", parents=[common], help="graded dimensions of a quadratic algebra")
    p.add_argument("--n", type=_bounded_int(2, MAX_RANK), required=True)
    p.add_argument("--max-degree", type=_positive, default=12)
    p.add_argument("--signs", default=None, help="JSON file with alpha/beta/gamma/lambda maps")
    p.add_argument("--engine", choices=("linear", "rewrite", "both"), default="both")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument(
        "--params", type=_json_object, default=None, help="JSON dict of suite parameters"
    )
    return parser


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cached(args, command: str, inputs: dict, compute, show) -> int:
    """Print the payload of ``command`` with ``show(payload) -> (text lines,
    exit code)`` and return that code; the payload comes from the cache when
    it has one that ``show`` can read, else from ``compute`` and then into
    the cache.  A hit with a key missing or of the wrong type is a miss."""
    cache = None
    if args.cache_dir:
        try:
            cache = ResultCache(args.cache_dir, __version__)
        except OSError as exc:
            raise _UsageError(f"--cache-dir {args.cache_dir}: {exc.strerror}") from None
        hit = cache.get(command, inputs)
        if hit is not None:
            try:
                return _show(args, {**hit.payload, "cached": True}, show)
            except (KeyError, TypeError):
                pass
    t0 = time.monotonic()
    payload = compute()
    if cache is not None:
        cache.put(command, inputs, payload, int((time.monotonic() - t0) * 1000))
    return _show(args, {**payload, "cached": False}, show)


def _show(args, payload: dict, show) -> int:
    lines, code = show(payload)  # read in full before anything is printed
    _emit(args, payload, lines)
    return code


def _cmd_classes(args) -> int:
    kind, n = args.group, args.n
    reps = class_reps(kind, n) if args.rep is None else [args.rep]
    # one class at a time, so its row reads the rep's memoised cycles
    rows = [
        {
            "rep": format_element(cls.rep),
            "size": cls.size,
            "signed_type": str(cls.rep.signed_cycle_type()),
            "centralizer_order": group_order(kind, n) // cls.size,
        }
        for cls in (ConjugacyClass(kind, rep) for rep in reps)
    ]
    payload = {"group": kind.value, "n": n, "classes": rows, "count": len(rows)}
    _emit(
        args,
        payload,
        [f"{kind.value}_{n}: {len(rows)} classes"]
        + [
            f"  {r['rep']:<24} size {r['size']:<6} "
            f"centralizer {r['centralizer_order']:<6} {r['signed_type']}"
            for r in rows
        ],
    )
    return 0


def _cmd_typed(args) -> int:
    x = args.rep
    inputs = {"group": args.group.value, "n": args.n, "rep": format_element(x)}
    return _cached(args, "typed", inputs, lambda: classify(args.group, x).to_json(), lambda p: (
        [
            f"{format_element(x)} in {args.group.value}_{args.n}: {p['status']}"
            + (f" [{p['exception_case']}]" if p["exception_case"] else "")
            + (" (cached)" if p["cached"] else "")
        ],
        0,
    ))


def _cmd_sq(args) -> int:
    x, y = args.x, args.y
    value = sq(x, y)
    general = sq_formula_general(x, y)
    commuting = None
    if multiply(x, y) == multiply(y, x):
        commuting = sq_formula_commuting(x, y)
    payload = {
        "x": format_element(x),
        "y": format_element(y),
        "sq": format_element(value),
        "general_formula": format_element(general),
        "formulas_agree": general == value and (commuting in (None, value)),
    }
    if commuting is not None:
        payload["commuting_formula"] = format_element(commuting)
    _emit(args, payload, [f"sq = {payload['sq']} (formulas agree: {payload['formulas_agree']})"])
    return 0


def _character_rep(character, cen):
    """The centralizer representation a parsed ``--char`` names; values that
    are not a character of the centralizer raise _UsageError."""
    F = CyclotomicField(character.modulus)
    if character.spec == "trivial":
        return yd.trivial_rep(cen, F)
    if character.spec == "sign":
        return yd.perm_sign_rep(cen, F)
    if len(character.roots) != len(cen.generators):
        raise _UsageError(f"--char {character.spec}: {len(character.roots)} values given, "
                          f"but the centralizer has {len(cen.generators)} generators")
    rep = yd.scalar_rep(cen, F, [F.zeta(k * (F.m // m)) for m, k in character.roots])
    try:
        rep.closure()
    except yd.RepInconsistency as exc:
        raise _UsageError(f"--char {character.spec}: not a character of the centralizer "
                          f"({exc})") from None
    return rep


def _cmd_nichols(args) -> int:
    x = args.rep
    inputs = {
        "group": args.group.value,
        "n": args.n,
        "rep": format_element(x),
        "char": args.char.spec,
        "max_degree": args.max_degree,
    }

    def compute():
        cls = enumerate_class(args.group, x)
        cen = centralizer(args.group, x, cls)
        module = yd.build_yd_module(cls, _character_rep(args.char, cen))
        space = module.braided_space()
        budget = nichols.NICHOLS_ENTRY_BUDGET if args.budget is None else args.budget
        dims = nichols.nichols_graded_dims(space, args.max_degree, budget)
        return {
            "class_size": cls.size,
            "braided_dim": module.D,
            "graded_dims": dims,
            "total": sum(dims),
            "terminated": len(dims) <= args.max_degree,
        }

    return _cached(args, "nichols", inputs, compute, lambda p: (
        [
            f"graded dims: {p['graded_dims']} (total {p['total']}, "
            f"{'terminated' if p['terminated'] else 'truncated'})"
        ],
        0,
    ))


def _fk_presentation(n: int, signs: Optional[str]):
    """E_n, or the sign-twisted presentation the ``--signs`` JSON file gives;
    a file that cannot be read or does not fit E_n raises _UsageError."""
    if not signs:
        return fk.fk_presentation(n)
    try:
        with open(signs, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"--signs {signs}: {exc}") from None
    if not isinstance(raw, dict):
        raise _UsageError(f"--signs {signs}: not a JSON object")

    def sign_map(key):
        v = raw.get(key, 1 if key != "gamma" else -1)
        if isinstance(v, dict):
            return {tuple(map(int, k.split(","))): s for k, s in v.items()}
        return v

    try:
        return fk.presentation(
            n, sign_map("alpha"), sign_map("beta"), sign_map("gamma"), sign_map("lambda")
        )
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"--signs {signs}: {exc.args[0]}") from None


def _cmd_fk(args) -> int:
    pres = _fk_presentation(args.n, args.signs)
    inputs = {"n": args.n, "max_degree": args.max_degree, "engine": args.engine,
              "signs": args.signs or ""}

    def compute():
        engines = ("linear", "rewrite") if args.engine == "both" else (args.engine,)
        budget = fk.FK_ENTRY_BUDGET if args.budget is None else args.budget
        dims_by = {e: fk.graded_dims(pres, args.max_degree, e, budget) for e in engines}
        dims = dims_by[engines[0]]
        return {
            "label": pres.label,
            "graded_dims": dims,
            "total": sum(dims),
            "engines_agree": len(set(map(tuple, dims_by.values()))) == 1,
            "probe": fk.probe(dims, args.max_degree),
        }

    return _cached(args, "fk", inputs, compute, lambda p: (
        [
            f"{p['label']}: dims {p['graded_dims']} total {p['total']} "
            f"probe {p['probe']['status']}"
        ],
        0 if p["engines_agree"] else 1,
    ))


def _cmd_verify(args) -> int:
    try:
        report = run_suite(args.suite, args.params, seed=args.seed)
    except SuiteParamError as exc:
        raise _UsageError(f"--params: {exc}") from None
    _emit(
        args,
        report,
        [f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}"]
        + [
            f"  [{'ok' if c['passed'] else 'FAIL'}] {c['name']} ({c['tag']})"
            for c in report["checks"]
        ],
    )
    return 0 if report["passed"] else 1


_COMMANDS = {
    "classes": _cmd_classes,
    "typed": _cmd_typed,
    "sq": _cmd_sq,
    "nichols": _cmd_nichols,
    "fk": _cmd_fk,
    "verify": _cmd_verify,
}


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand; exit code 2 is a usage error, 3 an exhausted
    budget (with a JSON error object on stdout under ``--json``), 141 a
    reader that closed the output pipe early."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "group", None) is GroupKind.D and args.n < 2:
        parser.error("--group D needs --n >= 2")
    rep = getattr(args, "rep", None)
    if rep is not None:
        if rep.n != args.n:
            parser.error("--n disagrees with the rank of --rep")
        if not contains(args.group, rep):
            parser.error(f"--rep {format_element(rep)} is not in {args.group.value}_{args.n}")
    if args.command == "sq" and args.x.n != args.y.n:
        parser.error("--x and --y must share a rank")
    if args.budget is not None and args.command not in ("nichols", "fk"):
        parser.error(f"--budget applies only to nichols and fk, not {args.command}")
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        parser.error(str(exc))
    except BudgetExceeded as exc:
        print(f"weylrack: {exc}", file=sys.stderr)
        payload = {"error": "budget", "budget": exc.budget, "limit": exc.limit, "dims": exc.dims}
        _emit(args, payload, [])
        return 3
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): send what is still
        # buffered to devnull and exit as a process ended by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
