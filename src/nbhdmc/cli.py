"""Batch command-line front-end.

Every operation is a subcommand reading models from JSON files and
formulas from command-line strings; outputs are canonical and stable,
so they can serve as golden files.  Exit status: 0 on success, 1 on a
negative verdict (false, countermodel found, no distinguisher, failing
morphism check, failing suite row), 2 on usage or format errors, which
go to stderr as "error: <code>: <message>".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .announce import ReductionInputError, format_trace
from .announce import reduce as reduce_announcements
from .fixtures import ROWS, run_suite
from .formula import (CORE, FULL, ParseError, desugar, has_announcement,
                      parse, pretty)
from .model import (ModelFormatError, NeighborhoodModel, NonMonotoneError,
                    PerturbationError, PointedModel, check_property,
                    intersection_submodel, model_from_text, model_to_text,
                    perturb, pmap_from_json, supplementation,
                    transitive_closure)
from .morphism import StateMap, check_bullet_morphism, check_w_morphism
from .search import (ClassSpec, Countermodel, count_frames, distinguish,
                     find_countermodel, verdict_to_text, worker_count)
from .semantics import evaluate, extension, frame_valid

PROPERTY_ORDER = ("m", "c", "n", "r", "filter", "neg-suppl")

_JSON_SEPARATORS = (", ", ": ")


class _CliError(Exception):
    """Carries a machine-readable code plus a human message."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError("io", f"{path}: {exc.strerror or exc}") from exc


def _load_model(path: str) -> NeighborhoodModel:
    text = _read_file(path)
    try:
        return model_from_text(text)
    except ModelFormatError as exc:
        raise _CliError("model-format", f"{path}: {exc}") from exc


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliError("parse", str(exc)) from exc


def _parse_class(text: str) -> frozenset:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    props: set[str] = set()
    for token in tokens:
        if token == "all":
            continue
        if token == "filter":
            props.update(("m", "c", "n"))
        elif token in ("m", "c", "n", "r", "neg-suppl"):
            props.add(token)
        else:
            msg = (f"unknown class token {token!r}; expected all, filter, "
                   f"m, c, n, r, or neg-suppl")
            raise _CliError("invalid-argument", msg)
    return frozenset(props)


def _note_forced(args, model: NeighborhoodModel, f) -> None:
    if getattr(args, "force", False) and has_announcement(f) \
            and not check_property(model.frame, "m"):
        print("note: forced announcement evaluation on a non-monotone model",
              file=sys.stderr)


def _point(model: NeighborhoodModel, name: str) -> PointedModel:
    try:
        return PointedModel(model, model.frame.index(name))
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc


def _class_spec(args, atoms: tuple[str, ...] = ()) -> ClassSpec:
    try:
        return ClassSpec(_parse_class(args.cls), args.max_states, atoms)
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc


def _search(args, f):
    cls = _class_spec(args)
    mode = "sampled" if args.samples else "exhaustive"
    try:
        return find_countermodel(f, cls, mode=mode, seed=args.seed,
                                 samples=args.samples, jobs=args.jobs)
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    f = _parse_formula(args.formula)
    pm = _point(model, args.state)
    _note_forced(args, model, f)
    value = evaluate(pm, f, force=args.force)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_extension(args) -> int:
    model = _load_model(args.model)
    f = _parse_formula(args.formula)
    _note_forced(args, model, f)
    ss = extension(model, f, force=args.force)
    names = [model.states[i] for i in ss.indices()]
    print(json.dumps(names, separators=_JSON_SEPARATORS))
    return 0


def _cmd_valid(args) -> int:
    f = _parse_formula(args.formula)
    verdict = _search(args, f)
    if isinstance(verdict, Countermodel):
        print("countermodel")
        print(verdict_to_text(verdict))
        return 1
    detail = f"valuations: {verdict.valuations}"
    if verdict.valuations == "sampled":
        detail += f", samples={verdict.samples}, seed={verdict.seed}"
    print("no-counterexample")
    print(f"no countermodel up to {verdict.max_states} states ({detail})")
    return 0


def _cmd_countermodel(args) -> int:
    f = _parse_formula(args.formula)
    verdict = _search(args, f)
    print(verdict_to_text(verdict))
    return 1 if isinstance(verdict, Countermodel) else 0


def _cmd_reduce(args) -> int:
    f = _parse_formula(args.formula)
    try:
        reduced, steps = reduce_announcements(f)
    except ReductionInputError as exc:
        raise _CliError("reduction-input", str(exc)) from exc
    print(pretty(reduced))
    if steps:
        print(format_trace(steps))
    return 0


def _cmd_desugar(args) -> int:
    f = _parse_formula(args.formula)
    print(pretty(desugar(f, target=args.target)))
    return 0


def _cmd_morphism(args) -> int:
    source = _load_model(args.source)
    target = _load_model(args.target)
    mapping = {}
    for piece in args.map.split(","):
        piece = piece.strip()
        if not piece:
            continue
        left, sep, right = piece.partition(":")
        if not sep or not left or not right:
            msg = f"map entries look like source:target, got {piece!r}"
            raise _CliError("invalid-argument", msg)
        mapping[left.strip()] = right.strip()
    try:
        sm = StateMap.from_names(source, target, mapping)
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc
    check = check_bullet_morphism if args.kind == "bullet" else check_w_morphism
    ok, witness = check(sm)
    print("true" if ok else "false")
    if witness is not None:
        state, item = witness
        name = source.states[state]
        if isinstance(item, str):
            print(f"witness: {name} {item}")
        else:
            inner = ",".join(source.states[i] for i in item.indices())
            print(f"witness: {name} {{{inner}}}")
    return 0 if ok else 1


def _cmd_transform(args) -> int:
    model = _load_model(args.model)
    op = args.op
    try:
        if op == "supplementation":
            out = supplementation(model)
        elif op == "tc":
            out = NeighborhoodModel(transitive_closure(model.frame),
                                    model.valuation)
        elif op.startswith("intersect:"):
            f = _parse_formula(op[len("intersect:"):])
            _note_forced(args, model, f)
            x = extension(model, f, force=args.force)
            out = intersection_submodel(model, x, force=args.force)
        elif op.startswith("perturb:"):
            path = op[len("perturb:"):]
            raw = _read_file(path)
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                msg = f"{path}: not valid JSON: {exc}"
                raise _CliError("model-format", msg) from exc
            pmap = pmap_from_json(data, model.states)
            out = perturb(model, pmap)
        else:
            msg = (f"unknown op {op!r}; expected supplementation, tc, "
                   f"intersect:<formula>, or perturb:<file>")
            raise _CliError("invalid-argument", msg)
    except NonMonotoneError as exc:
        raise _CliError("non-monotone", f"{exc} (pass --force to override)") \
            from exc
    except (PerturbationError, ModelFormatError) as exc:
        raise _CliError("model-format", str(exc)) from exc
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc
    sys.stdout.write(model_to_text(out))
    return 0


def _cmd_props(args) -> int:
    model = _load_model(args.model)
    report = {p: check_property(model.frame, p) for p in PROPERTY_ORDER}
    print(json.dumps(report, separators=_JSON_SEPARATORS))
    return 0


def _cmd_enumerate(args) -> int:
    props = _parse_class(args.cls)
    try:
        counts = {str(n): count_frames(n, ClassSpec(props, max(n, 1)))
                  for n in range(1, args.max_states + 1)}
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc
    print(json.dumps(counts, separators=_JSON_SEPARATORS))
    return 0


def _cmd_distinguish(args) -> int:
    pm1 = _point(_load_model(args.m1), args.s1)
    pm2 = _point(_load_model(args.m2), args.s2)
    fragment = "wrong" if args.fragment == "w" else args.fragment
    try:
        found = distinguish(pm1, pm2, fragment, args.depth)
    except ValueError as exc:
        raise _CliError("invalid-argument", str(exc)) from exc
    if found is None:
        print(f"none up to depth {args.depth}")
        return 1
    print(pretty(found))
    return 0


def _cmd_paper_suite(args) -> int:
    jobs = worker_count(args.jobs, os.cpu_count())
    width = max(len(r) for r in ROWS)
    failures = 0
    for row_id, _description, ok, detail in run_suite(jobs=jobs):
        mark = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{row_id:<{width}}  {mark}  {detail}")
    total = len(ROWS)
    print(f"{total - failures}/{total} rows pass")
    return 0 if failures == 0 else 1


def _cmd_frame_valid(args) -> int:
    model = _load_model(args.model)
    f = _parse_formula(args.formula)
    try:
        ok = frame_valid(model.frame, f, force=args.force)
    except (NonMonotoneError, ValueError) as exc:
        code = "non-monotone" if isinstance(exc, NonMonotoneError) \
            else "invalid-argument"
        raise _CliError(code, str(exc)) from exc
    print("true" if ok else "false")
    return 0 if ok else 1


def _add_search_flags(sub) -> None:
    sub.add_argument("--class", dest="cls", default="all",
                     help="comma list of m,c,n,r,neg-suppl, or all/filter")
    sub.add_argument("--max-states", type=int, default=3)
    sub.add_argument("--samples", type=int, default=0,
                     help="positive count switches to sampled mode")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--jobs", type=int, default=1)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nbhdmc",
        description="workbench for neighborhood models of unknown truths "
                    "and false beliefs")
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="truth of a formula at a state")
    sub.add_argument("-m", "--model", required=True)
    sub.add_argument("-s", "--state", required=True)
    sub.add_argument("-f", "--formula", required=True)
    sub.add_argument("--force", action="store_true")
    sub.set_defaults(fn=_cmd_check)

    sub = subs.add_parser("extension", help="states where a formula holds")
    sub.add_argument("-m", "--model", required=True)
    sub.add_argument("-f", "--formula", required=True)
    sub.add_argument("--force", action="store_true")
    sub.set_defaults(fn=_cmd_extension)

    sub = subs.add_parser("valid",
                          help="bounded validity over a frame class")
    sub.add_argument("-f", "--formula", required=True)
    _add_search_flags(sub)
    sub.set_defaults(fn=_cmd_valid)

    sub = subs.add_parser("countermodel",
                          help="canonical countermodel search, JSON verdict")
    sub.add_argument("-f", "--formula", required=True)
    _add_search_flags(sub)
    sub.set_defaults(fn=_cmd_countermodel)

    sub = subs.add_parser("reduce",
                          help="rewrite announcements away, with a trace")
    sub.add_argument("-f", "--formula", required=True)
    sub.set_defaults(fn=_cmd_reduce)

    sub = subs.add_parser("desugar", help="expand derived connectives")
    sub.add_argument("-f", "--formula", required=True)
    sub.add_argument("--target", choices=(CORE, FULL), default=CORE)
    sub.set_defaults(fn=_cmd_desugar)

    sub = subs.add_parser("morphism", help="decide a morphism condition")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--kind", choices=("bullet", "w"), required=True)
    sub.add_argument("--map", required=True,
                     help="comma list of sourceState:targetState")
    sub.set_defaults(fn=_cmd_morphism)

    sub = subs.add_parser("transform", help="apply a model transformer")
    sub.add_argument("-m", "--model", required=True)
    sub.add_argument("--op", required=True,
                     help="supplementation | tc | intersect:<formula> | "
                          "perturb:<file>")
    sub.add_argument("--force", action="store_true")
    sub.set_defaults(fn=_cmd_transform)

    sub = subs.add_parser("props", help="frame property report")
    sub.add_argument("-m", "--model", required=True)
    sub.set_defaults(fn=_cmd_props)

    sub = subs.add_parser("enumerate", help="frame counts per size")
    sub.add_argument("--max-states", type=int, default=3)
    sub.add_argument("--class", dest="cls", default="all")
    sub.set_defaults(fn=_cmd_enumerate)

    sub = subs.add_parser("distinguish",
                          help="search a fragment for a separating formula")
    sub.add_argument("--m1", required=True)
    sub.add_argument("--s1", required=True)
    sub.add_argument("--m2", required=True)
    sub.add_argument("--s2", required=True)
    sub.add_argument("--fragment", choices=("bullet", "w", "full"),
                     required=True)
    sub.add_argument("--depth", type=int, default=2)
    sub.set_defaults(fn=_cmd_distinguish)

    sub = subs.add_parser("frame-valid",
                          help="validity on one frame over all valuations")
    sub.add_argument("-m", "--model", required=True)
    sub.add_argument("-f", "--formula", required=True)
    sub.add_argument("--force", action="store_true")
    sub.set_defaults(fn=_cmd_frame_valid)

    sub = subs.add_parser("paper-suite",
                          help="replay every shipped fixture row")
    sub.add_argument("--jobs", type=int, default=1)
    sub.set_defaults(fn=_cmd_paper_suite)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except NonMonotoneError as exc:
        print(f"error: non-monotone: {exc} (pass --force to override)",
              file=sys.stderr)
        return 2
    except (ModelFormatError, PerturbationError) as exc:
        print(f"error: model-format: {exc}", file=sys.stderr)
        return 2
    except ReductionInputError as exc:
        print(f"error: reduction-input: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid-argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
