"""Command-line surface: evaluate terms, rewrite derivatives, run law suites.

Subcommands: eval, derive, check, monad-laws, kleisli-check,
algebra-check, lambda-check, flatness. Reports serialize to a stable
JSON schema (REPORT_SCHEMA below); identical argv and seed reproduce
byte-identical output except for the wall-time field. Exit codes:
0 clean, 1 law violations, 2 usage errors, 3 an internal error (two
evaluation paths of diffkit disagree).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .changeaction import cad_sides, check_cad_derivative, check_change_action, induced_action
from .errors import DiffkitError, InternalError, InvalidArgument
from .kernel import (AXIOM_IDS, COHERENCE, FLATNESS_IDS, DifferenceModel, SubjectPool,
                     axiom_pool_report, check_flatness, pool_report, stacked_report)
from .lambda_closed import run_lambda_suite
from .models import get_model, load_table_primitive, read_table_json
from .monad import (
    AlgebraCandidate,
    check_kleisli_cdc,
    check_linear_algebra,
    check_monad_laws,
    check_tangent_identities,
    free_algebra,
)
from .morphisms import Auto, EqualityStrategy, LawReport
from .spaces import (
    BoundedInt,
    CyclicGroup,
    Product,
    Real,
    Space,
    StreamPrefix,
    Terminal,
    codec_size,
    format_space,
    parse_space,
)

# the coherence laws and four identities of eps and d; the separating
# CDC2-additivity check and the linearity/flatness predicates are
# requested explicitly (CDC2-additivity must fail in findiff).
SUITE_AXIOMS = [*COHERENCE, "DEps-i", "DEps-ii", "DEps-iii", "Eq1-strong"]

_LAW_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "axiom": {"type": "string"},
        "model": {"type": "string"},
        "subject": {"type": "string"},
        "strategy": {"type": "string"},
        "checked": {"type": "integer", "minimum": 0},
        "violations": {"type": "integer", "minimum": 0},
        "counterexample": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "verdict": {"type": "string", "enum": ["unknown"]},
    },
    "required": ["axiom", "model", "subject", "strategy", "checked",
                 "violations", "seed"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "command": {"type": "string"},
        "model": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "results": {"type": "array", "items": _LAW_REPORT_SCHEMA},
        "violations_total": {"type": "integer", "minimum": 0},
        "elapsed_ms": {"type": "integer", "minimum": 0},
    },
    "required": ["version", "command", "model", "seed", "results",
                 "violations_total", "elapsed_ms"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# point syntax: integers, decimals, (v, v) tuples, [v, ...] prefixes


class _PointParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t,":
            self.pos += 1

    def fail(self, msg):
        raise DiffkitError(f"bad point syntax: {msg} at {self.pos} in {self.text!r}")

    def value(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("unexpected end")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            items = self.values_until(")")
            if len(items) == 0:
                return ()
            out = items[-1]
            for v in reversed(items[:-1]):
                out = (v, out)
            return out
        if c == "[":
            self.pos += 1
            return tuple(self.values_until("]"))
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in "+-.eE"):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        tok = self.text[start : self.pos]
        try:
            v = float(tok) if any(ch in tok for ch in ".eE") else int(tok)
        except ValueError:
            self.fail(f"bad number {tok!r}")
        if not math.isfinite(v):
            self.fail(f"number {tok!r} is out of range")
        return v

    def values_until(self, closer):
        items = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                self.fail(f"expected {closer!r}")
            if self.text[self.pos] == closer:
                self.pos += 1
                return items
            items.append(self.value())


def parse_point(text: str):
    p = _PointParser(text)
    try:
        v = p.value()
    except RecursionError:
        p.fail("nested too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return v


def _number(space: Space, raw):
    if isinstance(raw, tuple):
        raise DiffkitError(f"expected a number for {format_space(space)}, got {raw}")
    return raw


def coerce_point(space: Space, raw):
    """Fit a parsed point onto the element shape of a space."""
    if isinstance(space, (CyclicGroup, BoundedInt)):
        v = _number(space, raw)
        if v != int(v):
            raise DiffkitError(f"expected an integer for {format_space(space)}, got {v}")
        return int(v) % space.n if isinstance(space, CyclicGroup) else int(v)
    if isinstance(space, Real):
        if isinstance(raw, (int, float)):
            raw = (raw,)
        if len(raw) != space.dim:
            raise DiffkitError(f"expected {space.dim} coordinates")
        return tuple(float(_number(space, v)) for v in raw)
    if isinstance(space, Product):
        if not isinstance(raw, tuple) or len(raw) != 2:
            raise DiffkitError(f"expected a pair for {format_space(space)}")
        return (coerce_point(space.left, raw[0]), coerce_point(space.right, raw[1]))
    if isinstance(space, StreamPrefix):
        if not isinstance(raw, tuple) or len(raw) != space.length:
            raise DiffkitError(
                f"expected a length-{space.length} prefix for {format_space(space)}"
            )
        return tuple(coerce_point(space.base, v) for v in raw)
    if isinstance(space, Terminal):
        return ()
    raise DiffkitError(f"cannot build points in {format_space(space)}")


def render_element(space: Space, v) -> str:
    if isinstance(space, (CyclicGroup, BoundedInt)):
        return str(v)
    if isinstance(space, Real):
        if space.dim == 1:
            return _fmt_num(v[0])
        return "(" + ", ".join(_fmt_num(c) for c in v) + ")"
    if isinstance(space, Product):
        return f"({render_element(space.left, v[0])}, {render_element(space.right, v[1])})"
    if isinstance(space, StreamPrefix):
        return "[" + ", ".join(render_element(space.base, c) for c in v) + "]"
    if isinstance(space, Terminal):
        return "()"
    return repr(v)


def _fmt_num(x) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


# ---------------------------------------------------------------------------
# report plumbing


def _strategy(args, seed: int) -> EqualityStrategy:
    return EqualityStrategy(Auto(args.samples, seed), bound=args.bound)


def _emit(args, command: str, model_tag: str, seed: int,
          results: list[LawReport], started: float) -> int:
    violations = sum(r.violations for r in results)
    if args.format == "json":
        doc = {
            "version": 1,
            "command": getattr(args, "echo", command),
            "model": model_tag,
            "seed": seed,
            "results": [r.to_dict() for r in results],
            "violations_total": violations,
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(doc, indent=2))
    else:
        width = max((len(r.axiom) for r in results), default=10)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            if r.verdict is not None:
                status = r.verdict
            line = (f"{r.axiom:<{width}}  {status:<7} checked={r.checked:<8} "
                    f"violations={r.violations}  [{r.subject}]")
            print(line)
            if r.counterexample is not None:
                print(f"{'':<{width}}  counterexample: "
                      f"{json.dumps(r.counterexample)}")
        print(f"total violations: {violations}")
    return 0 if violations == 0 else 1


def _resolve_seed(args) -> int:
    """`DIFFKIT_SEED` when it is set, else `--seed`: an integer of at least 0."""
    env = os.environ.get("DIFFKIT_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError:
        raise InvalidArgument(f"DIFFKIT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidArgument(f"the seed must be at least 0, got {seed}")
    return seed


def _setup(args):
    """Model (with any --prim loaded), space, seed and strategy of a suite."""
    model = get_model(args.model)
    _load_prims(model, args)
    space = parse_space(args.space) if args.space else model.default_space
    seed = _resolve_seed(args)
    return model, space, seed, _strategy(args, seed)


def _load_prims(model: DifferenceModel, args):
    for spec in getattr(args, "prim", None) or []:
        name, _, path = spec.partition("=")
        if not path:
            raise DiffkitError("--prim expects NAME=FILE")
        with open(path, "rb") as fh:
            load_table_primitive(model, name, fh.read())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    from .terms import interpret, parse_term

    model = get_model(args.model)
    _load_prims(model, args)
    space = parse_space(args.space) if args.space else model.default_space
    term = parse_term(args.term)
    m = interpret(term, model, space)
    point = coerce_point(m.dom, parse_point(args.at))
    print(render_element(m.cod, m(point)))
    return 0


def _cmd_derive(args) -> int:
    from .terms import parse_term, print_term, symbolic_derive

    term = parse_term(args.term)
    print(print_term(symbolic_derive(term, order=args.order)))
    return 0


def run_check(
    model: DifferenceModel,
    space: Space,
    axioms: list[str],
    subjects: int,
    seed: int,
    strat: EqualityStrategy,
) -> list[LawReport]:
    """One aggregated LawReport per axiom over `subjects` random subjects.

    `CA` and `CAD` run the change-action laws of the induced action and
    the derivative laws of every subject respectively. The subjects are one
    `SubjectPool`, which keeps their derivatives for the whole run.
    """
    if subjects < 1:
        raise InvalidArgument("check needs at least one subject")
    pool = SubjectPool(model, model.random_subjects(space, subjects, seed))
    noun = "random subjects"
    results = []
    for ax in axioms:
        if ax == "CA":
            ca = induced_action(model, space)
            pair_subjects = tuple(pool.subjects[:2]) if subjects >= 2 else None
            results.append(check_change_action(ca, strat, model.tag, pair_subjects))
            continue
        if ax == "CAD":
            ca, cat = induced_action(model, space), pool.cat()
            results.append(stacked_report(
                pool, "CAD1+CAD2", lambda c, f, _: cad_sides(f, c.derivative(f), ca, ca, c),
                strat, model.tag, noun, cat) or pool_report(
                pool.subjects, lambda f, _: check_cad_derivative(f, cat.derivative(f), ca, ca,
                                                                 strat, model.tag, cat),
                noun))
            continue
        if ax in FLATNESS_IDS:
            results.append(check_flatness(model, space, strat, parts=(ax,)))
            continue
        results.append(axiom_pool_report(model, ax, pool, strat, noun))
    return results


def _cmd_check(args) -> int:
    started = time.perf_counter()
    model, space, seed, strat = _setup(args)
    if args.axioms == "all":
        axioms = list(SUITE_AXIOMS) + ["CA", "CAD"]
    else:
        axioms = [a.strip() for a in args.axioms.split(",") if a.strip()]
        unknown = [a for a in axioms
                   if a not in AXIOM_IDS and a not in ("CA", "CAD")]
        if unknown:
            raise DiffkitError(f"unknown axiom ids: {unknown}")
        if not axioms:
            raise InvalidArgument("--axioms names no axiom")
    results = run_check(model, space, axioms, args.subjects, seed, strat)
    return _emit(args, "check", model.tag, seed, results, started)


def _cmd_monad_laws(args) -> int:
    started = time.perf_counter()
    model, space, seed, strat = _setup(args)
    subjects = model.random_subjects(space, max(2, min(args.subjects, 8)), seed)
    results = [
        check_monad_laws(model, space, strat),
        check_tangent_identities(model, space, subjects, strat),
    ]
    return _emit(args, "monad-laws", model.tag, seed, results, started)


def _cmd_kleisli_check(args) -> int:
    started = time.perf_counter()
    model, space, seed, strat = _setup(args)
    results = check_kleisli_cdc(model, space, strat,
                                subjects=max(2, args.subjects), seed=seed)
    return _emit(args, "kleisli-check", model.tag, seed, results, started)


def _cmd_algebra_check(args) -> int:
    started = time.perf_counter()
    model, space, seed, strat = _setup(args)
    results = [check_linear_algebra(model, free_algebra(model, space), strat)]
    results[-1].subject = f"free algebra over {format_space(space)}"
    if args.nu_file:
        with open(args.nu_file, "rb") as fh:
            a, table = read_table_json(fh.read(), "nu", "nu table")
        n = codec_size(Product(a, a))
        if n is None or len(table) != n:
            raise DiffkitError("nu table must cover T(space) exactly once")
        from .morphisms import from_table

        nu = from_table(Product(a, a), a, table, model=model.tag, name="nu")
        results.append(check_linear_algebra(model, AlgebraCandidate(a, nu), strat))
    return _emit(args, "algebra-check", model.tag, seed, results, started)


def _cmd_lambda_check(args) -> int:
    started = time.perf_counter()
    model = get_model("findiff")
    seed = _resolve_seed(args)
    strat = _strategy(args, seed)
    results = run_lambda_suite(model, max_size=args.max_size,
                               subjects=args.subjects, seed=seed, strat=strat)
    return _emit(args, "lambda-check", model.tag, seed, results, started)


def _cmd_flatness(args) -> int:
    started = time.perf_counter()
    model, space, seed, strat = _setup(args)
    results = [check_flatness(model, space, strat)]
    return _emit(args, "flatness", model.tag, seed, results, started)


# ---------------------------------------------------------------------------


def _add_common(p, model=True, space=True):
    if model:
        p.add_argument("--model", default="findiff",
                       help="findiff | smooth | module:r=<int> | streams:k=<int>")
    if space:
        p.add_argument("--space", default=None,
                       help="Z<n> | Int[lo,hi] | R^d | Stream(s,K) | (s x s) | 1")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed (env DIFFKIT_SEED overrides)")
    p.add_argument("--samples", type=int, default=256,
                   help="sample count when a domain is too large to enumerate")
    p.add_argument("--bound", type=int, default=100_000,
                   help="exhaustive enumeration bound")
    p.add_argument("--format", choices=["json", "table"], default="json")


def _eval_args(p):
    p.add_argument("--model", default="findiff")
    p.add_argument("--space", default=None)
    p.add_argument("--term", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--prim", action="append", help="NAME=FILE table primitive")


def _derive_args(p):
    p.add_argument("--term", required=True)
    p.add_argument("--order", type=int, default=1)


def _check_args(p):
    _add_common(p)
    p.add_argument("--axioms", default="all",
                   help="'all' (coherence suite + CA + CAD) or a comma list; "
                        "CDC2-additivity and the predicates are opt-in")
    p.add_argument("--subjects", type=int, default=50)
    p.add_argument("--prim", action="append", help="NAME=FILE table primitive")


def _subjects_args(default: int):
    def add(p):
        _add_common(p)
        p.add_argument("--subjects", type=int, default=default)

    return add


def _algebra_args(p):
    _add_common(p)
    p.add_argument("--nu-file", default=None,
                   help='JSON {"space": "Z5", "nu": [flat table over T(space)]}')


def _lambda_args(p):
    _add_common(p, model=False, space=False)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--subjects", type=int, default=20)


# every subcommand: (help, a function that adds its arguments, its handler)
COMMANDS = {
    "eval": ("interpret a combinator term at a point", _eval_args, _cmd_eval),
    "derive": ("symbolically differentiate a term", _derive_args, _cmd_derive),
    "check": ("run axiom suites over random subjects", _check_args, _cmd_check),
    "monad-laws": ("tangent monad unit/associativity", _subjects_args(4), _cmd_monad_laws),
    "kleisli-check": ("coherence suite in the Kleisli category", _subjects_args(6),
                      _cmd_kleisli_check),
    "algebra-check": ("linear algebra laws for T", _algebra_args, _cmd_algebra_check),
    "lambda-check": ("closed-structure laws (findiff)", _lambda_args, _cmd_lambda_check),
    "flatness": ("flat-object conditions for one space", _add_common, _cmd_flatness),
}


def _command(p: argparse.ArgumentParser, cmd: str) -> argparse.ArgumentParser:
    _, add_args, fn = COMMANDS[cmd]
    add_args(p)
    p.set_defaults(fn=fn)
    return p


def build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand `cmd` alone, for the arguments after its
    name, with the help the whole tree gives it; for None or an unknown
    name, the whole tree. `main` builds only the named command's parser:
    building the other seven would cost about as much each."""
    if cmd in COMMANDS:
        return _command(argparse.ArgumentParser(prog=f"diffkit {cmd}"), cmd)
    ap = argparse.ArgumentParser(
        prog="diffkit",
        description="Discrete and smooth derivative operators with an "
                    "executable law-checking harness.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _command(sub.add_parser(name, help=help_), name)
    return ap


def main(argv=None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    cmd = raw[0] if raw and raw[0] in COMMANDS else None
    try:
        args = build_parser(cmd).parse_args(raw if cmd is None else raw[1:])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.echo = "diffkit " + " ".join(raw)
    try:
        return args.fn(args)
    except DiffkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:  # a bug in diffkit, neither a verdict nor bad input
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
