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
import sys

from .announce import ReductionInputError, _steps, format_trace
from .fixtures import ROWS, run_suite
from .formula import (CORE, FULL, Formula, ParseError, children, desugar,
                      has_announcement, parse, pretty)
from .model import (FILTER, PROPERTY_IDS, ModelFormatError,
                    NeighborhoodModel, NonMonotoneError, PerturbationError,
                    PointedModel, check_property, intersection_submodel,
                    model_from_text, model_to_text, perturb, pmap_from_json,
                    supplementation, transitive_closure)
from .morphism import FRAGMENTS, StateMap
from .search import (ClassSpec, Countermodel, count_frames, distinguish,
                     find_countermodel, verdict_to_text, worker_count)
from .semantics import evaluate, extension, frame_valid

_JSON_SEPARATORS = (", ", ": ")

# short name -> kind of each fragment, as --kind and --fragment take it
_KINDS = {short: kind for kind, (short, _, _) in FRAGMENTS.items()}

# The most `desugar` and `reduce` print, in formula nodes counted as
# printed.  Desugaring `K c` names c three times, so nested K's grow the
# printed text threefold each, and each nested announcement grows the
# reduction trace about eightfold; at this cap either stays a few
# hundred KB.
MAX_DESUGARED_NODES = 100_000


class _ReadError(Exception):
    """A file could not be read; the message names the path."""


# The one map from exception type to error channel; the first match wins.
_CHANNELS = (
    (_ReadError, "io"),
    (NonMonotoneError, "non-monotone"),
    ((ModelFormatError, PerturbationError), "model-format"),
    (ReductionInputError, "reduction-input"),
    (ParseError, "parse"),
    (ValueError, "invalid-argument"),
)
# What main catches: every type _CHANNELS lists, its tuples flattened.
_CAUGHT = tuple(t for kind, _ in _CHANNELS
                for t in (kind if isinstance(kind, tuple) else (kind,)))


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _ReadError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _ReadError(f"{path}: {exc}") from exc


def _load_model(path: str) -> NeighborhoodModel:
    text = _read_file(path)
    try:
        return model_from_text(text)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _parse_class(text: str) -> frozenset:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    props: set[str] = set()
    for token in tokens:
        if token == "all":
            continue
        if token == "filter":
            props.update(FILTER)
        elif token in PROPERTY_IDS:
            props.add(token)
        else:
            msg = (f"unknown class token {token!r}; expected all, filter, "
                   f"m, c, n, r, or neg-suppl")
            raise ValueError(msg)
    return frozenset(props)


def _note_forced(args, model: NeighborhoodModel, f) -> None:
    if getattr(args, "force", False) and has_announcement(f) \
            and not check_property(model.frame, "m"):
        print("note: forced announcement evaluation on a non-monotone model",
              file=sys.stderr)


def _point(model: NeighborhoodModel, name: str) -> PointedModel:
    return PointedModel(model, model.frame.index(name))


def _search(args, f):
    cls = ClassSpec(_parse_class(args.cls), args.max_states)
    mode = "sampled" if args.samples else "exhaustive"
    return find_countermodel(f, cls, mode=mode, seed=args.seed,
                             samples=args.samples, jobs=args.jobs)


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    f = parse(args.formula)
    pm = _point(model, args.state)
    _note_forced(args, model, f)
    value = evaluate(pm, f, force=args.force)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_extension(args) -> int:
    model = _load_model(args.model)
    f = parse(args.formula)
    _note_forced(args, model, f)
    ss = extension(model, f, force=args.force)
    names = [model.states[i] for i in ss.indices()]
    print(json.dumps(names, separators=_JSON_SEPARATORS))
    return 0


def _cmd_valid(args) -> int:
    f = parse(args.formula)
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
    f = parse(args.formula)
    verdict = _search(args, f)
    print(verdict_to_text(verdict))
    return 1 if isinstance(verdict, Countermodel) else 0


def _cmd_reduce(args) -> int:
    f = parse(args.formula)
    steps = []
    size: dict[int, int] = {}  # one memo: the steps keep every node alive
    nodes = 0
    for step in _steps(f):  # counted as made, so a refusal costs little
        steps.append(step)
        nodes += _tree_size(step.before, size) + _tree_size(step.after, size)
        if nodes > MAX_DESUGARED_NODES:
            break
    reduced = steps[-1].after if steps else f
    nodes += _tree_size(reduced, size)
    if nodes > MAX_DESUGARED_NODES:
        msg = (f"reduction output passes the cap of {MAX_DESUGARED_NODES} "
               f"nodes by step {len(steps)}")
        raise ValueError(msg)
    print(pretty(reduced))
    if steps:
        print(format_trace(steps))
    return 0


def _tree_size(f: Formula, size: dict[int, int] | None = None) -> int:
    """Nodes of f counted as printed: a shared subformula once per
    occurrence.  Each distinct node is summed once (memo by id, kept in
    size across calls while the nodes it names are alive), so this takes
    time linear in the nodes built, not in the printed size."""
    if size is None:
        size = {}
    stack = [f]
    while stack:
        g = stack[-1]
        kids = children(g)
        todo = [k for k in kids if id(k) not in size]
        if todo:
            stack.extend(todo)
            continue
        size[id(g)] = 1 + sum(size[id(k)] for k in kids)
        stack.pop()
    return size[id(f)]


def _cmd_desugar(args) -> int:
    f = desugar(parse(args.formula), target=args.target)
    nodes = _tree_size(f)
    if nodes > MAX_DESUGARED_NODES:
        msg = (f"desugared formula has {nodes} nodes, over the cap of "
               f"{MAX_DESUGARED_NODES}")
        raise ValueError(msg)
    print(pretty(f))
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
            raise ValueError(msg)
        mapping[left.strip()] = right.strip()
    sm = StateMap.from_names(source, target, mapping)
    ok, witness = FRAGMENTS[_KINDS[args.kind]][2](sm)
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
    if op == "supplementation":
        out = supplementation(model)
    elif op == "tc":
        out = NeighborhoodModel(transitive_closure(model.frame),
                                model.valuation)
    elif op.startswith("intersect:"):
        f = parse(op[len("intersect:"):])
        _note_forced(args, model, f)
        x = extension(model, f, force=args.force)
        out = intersection_submodel(model, x, force=args.force)
    elif op.startswith("perturb:"):
        path = op[len("perturb:"):]
        raw = _read_file(path)
        try:
            pmap = pmap_from_json(json.loads(raw), model.states)
        except (json.JSONDecodeError, RecursionError) as exc:
            msg = f"{path}: not valid JSON: {exc}"
            raise ModelFormatError(msg) from exc
        except (ModelFormatError, PerturbationError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        out = perturb(model, pmap)
    else:
        msg = (f"unknown op {op!r}; expected supplementation, tc, "
               f"intersect:<formula>, or perturb:<file>")
        raise ValueError(msg)
    sys.stdout.write(model_to_text(out))
    return 0


def _cmd_props(args) -> int:
    model = _load_model(args.model)
    report = {}
    for p in PROPERTY_IDS:  # filter is m, c and n, which come before it
        report[p] = (all(report[q] for q in FILTER) if p == "filter"
                     else check_property(model.frame, p))
    print(json.dumps(report, separators=_JSON_SEPARATORS))
    return 0


def _cmd_enumerate(args) -> int:
    props = _parse_class(args.cls)
    # a bound below 1 is passed on as the first n, which count_frames refuses
    counts = {str(n): count_frames(n, ClassSpec(props, max(n, 1)))
              for n in range(min(args.max_states, 1), args.max_states + 1)}
    print(json.dumps(counts, separators=_JSON_SEPARATORS))
    return 0


def _cmd_distinguish(args) -> int:
    pm1 = _point(_load_model(args.m1), args.s1)
    pm2 = _point(_load_model(args.m2), args.s2)
    found = distinguish(pm1, pm2, _KINDS.get(args.fragment, args.fragment),
                        args.depth)
    if found is None:
        print(f"none up to depth {args.depth}")
        return 1
    print(pretty(found))
    return 0


def _cmd_paper_suite(args) -> int:
    worker_count(args.jobs)
    width = max(len(r) for r in ROWS)
    failures = 0
    for row_id, _description, ok, detail in run_suite():
        failures += not ok
        print(f"{row_id:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    total = len(ROWS)
    print(f"{total - failures}/{total} rows pass")
    return 0 if failures == 0 else 1


def _cmd_frame_valid(args) -> int:
    model = _load_model(args.model)
    ok = frame_valid(model.frame, parse(args.formula), force=args.force)
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
    sub.add_argument("--kind", choices=tuple(_KINDS), required=True)
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
    sub.add_argument("--fragment", choices=(*_KINDS, "full"), required=True)
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
    except _CAUGHT as exc:
        channel = next(c for kind, c in _CHANNELS if isinstance(exc, kind))
        hint = " (pass --force to override)" if channel == "non-monotone" \
            else ""
        print(f"error: {channel}: {exc}{hint}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
