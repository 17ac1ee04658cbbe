"""Command-line front end.

Subcommands: solve, map, rmap, width, build-objective-model, compile-cnf,
gen, bench. Results go to stdout, diagnostics to stderr. A command prints
its result and raises on a refused outcome; only ``main`` maps an outcome to
an exit code: 0 success (and ``--help``), 1 usage or input/validation error,
2 inconsistent evidence (including a solve, MAP or Reverse-MAP optimum of
exactly zero, raised after the result is printed), 3 internal invariant
breach (a violated proven width bound).

An order file (``--order``) is read only by ``_load_order``. Its optional
``#constrained:`` header must name exactly the targets (map, rmap, as
``inference._query_order`` checks for every caller), the objective's units
(solve, ``--method ve`` only) or ``--units`` (width).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Mapping, Sequence

from .factor import Instantiation
from .model import ModelError, Scm, json_number, load_json, load_model, save_model
from .objective import build_objective_model, lifted_width_bound, load_objective, save_objective
from .elimination import (
    EliminationOrder,
    lift_order,
    minfill_order,
    moral_graph,
    order_width,
    simulate_elimination,
    treewidth_exact,
)
from .inference import (
    InconsistentEvidenceError,
    QueryResult,
    _scope_names,
    format_trace,
    map_ve,
    rmap_ve,
    unit_select,
)
from .reductions import compile_formula, parse_dimacs
from .bench import (
    GenConfig,
    default_bench_configs,
    gen_random_scm,
    gen_tight_family,
    run_width_table,
    width_table_csv,
)
from .worlds import n_world_model

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_INTERNAL = 3


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str | None, data: bytes) -> None:
    if path is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def parse_assignments(scm: Scm, text: str | None) -> Instantiation:
    """Parse comma-separated name=state pairs against the model."""
    out: Instantiation = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ModelError(f"bad assignment {chunk!r}, expected name=state")
        name, state = chunk.split("=", 1)
        inst = scm.instantiation({name.strip(): state.strip()})
        if inst.keys() & out.keys():
            raise ModelError(f"evidence variable {name.strip()!r} is repeated")
        out.update(inst)
    return out


def _names(scm: Scm, text: str, role: str) -> list[int]:
    """The ids of comma-separated variable names; a repeated one is refused."""
    ids = [scm.by_name(n.strip()).id for n in text.split(",") if n.strip()]
    for i, vid in enumerate(ids):
        if vid in ids[:i]:
            raise ModelError(f"{role} variable {scm.var(vid).name!r} is repeated")
    return ids


def _format_inst(scm: Scm, inst: Mapping[int, int]) -> str:
    return ",".join(f"{n}={s}" for n, s in scm.names_of(inst).items()) or "(empty)"


def _load_order(path: str, scm: Scm) -> EliminationOrder:
    """An order file: one variable name per line, blank and other ``#`` lines
    skipped, and at most one ``#constrained:`` header, read by ``_names``,
    which becomes the order's constrained suffix."""
    suffix: frozenset[int] | None = None
    seq: list[int] = []
    for raw in _read(path).decode("utf-8").splitlines():
        line = raw.strip()
        if line.startswith("#constrained:"):
            if suffix is not None:
                raise ModelError("order file has more than one #constrained: header")
            suffix = frozenset(_names(scm, line.split(":", 1)[1], "constrained"))
        elif line and not line.startswith("#"):
            seq.append(scm.by_name(line).id)
    return EliminationOrder(tuple(seq), suffix)


def _refuse_zero(value: float, what: str) -> None:
    """An optimum of exactly zero means the evidence is inconsistent."""
    if value == 0.0:
        raise InconsistentEvidenceError(f"{what} is zero: evidence inconsistent")


def cmd_solve(args: argparse.Namespace) -> None:
    scm = load_model(_read(args.model), allow_nonfunctional=True)
    objective = load_objective(scm, _read(args.objective))
    order = None
    if args.order:
        # Only ve orders anything. The order names objective-model variables
        # (the model being solved); unit_select builds the same model again.
        if args.method != "ve":
            raise ModelError("an elimination order applies to method 've' only")
        order = _load_order(args.order, build_objective_model(scm, objective).model)
    result = unit_select(scm, objective, method=args.method, order=order)
    if args.json:
        doc = {
            "unit": scm.names_of(result.instantiation),
            "value": result.value,
            "excluded": result.excluded,
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(f"unit: {_format_inst(scm, result.instantiation)}")
        print(f"value: {result.value!r}")
        print(f"excluded: {result.excluded}")
    _refuse_zero(result.value, "objective value")


def _report(scm: Scm, result: QueryResult, what: str) -> None:
    """Print a map or rmap result: its trace if any, the value, the
    instantiation and the excluded count if any; then refuse a zero optimum."""
    if result.trace is not None:
        print(format_trace(result.trace, scm))
    print(f"value: {result.value!r}")
    print(f"instantiation: {_format_inst(scm, result.instantiation)}")
    if result.excluded is not None:
        print(f"excluded: {result.excluded}")
    _refuse_zero(result.value, what)


def cmd_map(args: argparse.Namespace) -> None:
    scm = load_model(_read(args.model), allow_nonfunctional=True)
    targets = _names(scm, args.targets, "target")
    evidence = parse_assignments(scm, args.e)
    order = _load_order(args.order, scm) if args.order else None
    result = map_ve(scm, targets, evidence, order=order, want_trace=args.trace)
    _report(scm, result, "MAP optimum")


def cmd_rmap(args: argparse.Namespace) -> None:
    scm = load_model(_read(args.model), allow_nonfunctional=True)
    targets = _names(scm, args.targets, "target")
    e1 = parse_assignments(scm, args.e1)
    e2 = parse_assignments(scm, args.e2)
    order = _load_order(args.order, scm) if args.order else None
    result = rmap_ve(scm, targets, e1, e2, order=order, want_trace=args.trace)
    _report(scm, result, "Reverse-MAP optimum")


def cmd_width(args: argparse.Namespace) -> None:
    # Everything is computed before the first line is printed, so a refused
    # input leaves stdout empty.
    scm = load_model(_read(args.model), allow_nonfunctional=True)
    unit_ids = _names(scm, args.units or "", "unit")
    g = moral_graph(scm)
    suffix = frozenset(unit_ids) if unit_ids else None
    if args.order == "minfill":
        order = minfill_order(g, constrained_suffix=suffix)
    elif args.order == "exhaustive":
        _, order = treewidth_exact(g, constrained_suffix=suffix)
    else:
        order = _load_order(args.order, scm)
        if suffix is not None:
            if order.constrained_suffix not in (None, suffix):
                raise ModelError("the order file's #constrained: header must name exactly the --units")
            order = EliminationOrder(order.sequence, suffix)
    report = simulate_elimination(g, order)
    w = report.width
    checks = []  # (heading, lifted width, proven bound, bound label)
    if args.objective:
        objective = load_objective(scm, _read(args.objective))
        if unit_ids and set(unit_ids) != set(objective.unit_ids):
            # The constrained bound is proven for an order constrained on the
            # objective's own units only.
            names = ",".join(scm.var(v).name for v in objective.unit_ids)
            raise ModelError(f"--units must name exactly the objective's units ({names})")
        om = build_objective_model(scm, objective)
        dup = om.duplicates()
        go = moral_graph(om.model)
        lifted = lift_order(order.sequence, dup, om.h_id)
        bound = 3 * om.n_components * (w + 1)
        checks.append(("lifted unconstrained width", order_width(go, lifted), bound, "3n(w+1)"))
        if unit_ids:
            lifted = lift_order(order, dup, om.h_id)
            bound, label = lifted_width_bound(objective, w, len(unit_ids))
            checks.append(("lifted constrained width", order_width(go, lifted), bound, label))
    elif args.lifted is not None:
        k = args.lifted
        shared = unit_ids if unit_ids else list(scm.roots)
        nw, wm = n_world_model(scm, shared, k)
        lifted = lift_order(order if unit_ids else order.sequence, wm.copies)
        if unit_ids:
            kind, bound, label = "constrained", w, "w"
        else:
            kind, bound, label = "unconstrained", k * (w + 1) - 1, "n(w+1)-1"
        checks.append((f"lifted {kind} width ({k}-world)", order_width(moral_graph(nw), lifted),
                       bound, label))
    print(f"width: {w}")
    names = [_scope_names(sorted(c, key=lambda v: scm.var(v).name), scm) for c in report.clusters]
    print("clusters: " + " ".join(names))
    for heading, width, bound, label in checks:
        print(f"{heading}: {width}")
        print(f"bound={label} observed<=bound {'PASS' if width <= bound else 'FAIL'}")
    if any(width > bound for _, width, bound, _ in checks):
        raise AssertionError("a proven width bound was violated")


def cmd_build_objective_model(args: argparse.Namespace) -> None:
    scm = load_model(_read(args.model), allow_nonfunctional=True)
    objective = load_objective(scm, _read(args.objective))
    om = build_objective_model(scm, objective)
    _write(args.out, save_model(om.model))
    print(
        f"components: {om.n_components} nodes: {om.model.n} "
        f"e1: {_format_inst(om.model, om.e1)} e2: {_format_inst(om.model, om.e2)}",
        file=sys.stderr,
    )


def cmd_compile_cnf(args: argparse.Namespace) -> None:
    formula = parse_dimacs(_read(args.dimacs).decode("utf-8"))
    scm, sentinel = compile_formula(formula)
    _write(args.out, save_model(scm))
    print(f"sentinel: {scm.var(sentinel).name}", file=sys.stderr)


def cmd_gen(args: argparse.Namespace) -> None:
    if args.kind == "random":
        if args.objective_out:
            raise ModelError("--objective-out applies to --kind tight only")
        cfg = GenConfig(node_count=args.n, seed=args.seed, max_parents=args.max_parents)
        _write(args.out, save_model(gen_random_scm(cfg)))
    else:
        scm, units, objective = gen_tight_family(args.n)
        _write(args.out, save_model(scm))
        if args.objective_out:
            _write(args.objective_out, save_objective(scm, objective))


def _bench_configs(doc, seed: int, trials: int) -> list[GenConfig]:
    """One GenConfig per entry of a bench config document: a non-empty list
    of objects with an integer "n" and optional integer "max_parents" and
    "trials" and number "ur"."""
    if not isinstance(doc, list) or not doc:
        raise ModelError("bench config must be a non-empty list of objects")
    cfgs = []
    for i, entry in enumerate(doc, start=1):
        if not isinstance(entry, dict) or not set(entry) <= {"n", "max_parents", "trials", "ur"}:
            raise ModelError(f"bench config entry {i} must be an object with keys among "
                             "n, max_parents, trials and ur")
        entry = {"n": None, "max_parents": GenConfig.max_parents, "trials": trials,
                 "ur": GenConfig.unit_ratio, **entry}
        for key in ("n", "max_parents", "trials"):
            if isinstance(entry[key], bool) or not isinstance(entry[key], int):
                raise ModelError(f"bench config entry {i}: {key!r} must be an integer")
        cfgs.append(GenConfig(
            node_count=entry["n"],
            seed=seed,
            max_parents=entry["max_parents"],
            unit_ratio=json_number(entry["ur"], f"bench config entry {i}: 'ur'"),
            trials=entry["trials"],
        ))
    return cfgs


def cmd_bench(args: argparse.Namespace) -> None:
    if args.config == "default":
        cfgs = default_bench_configs(args.seed, trials=args.trials)
    else:
        cfgs = _bench_configs(load_json(_read(args.config), "bench config"), args.seed, args.trials)
    rows = run_width_table(cfgs)
    _write(args.out, width_table_csv(rows).encode("utf-8"))
    if not all(r.lifted_bound_ok for r in rows):
        raise AssertionError("lifted-order width bound violated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitsel",
        description="Exact unit selection on structural causal models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="argmax_u L(u) for a counterfactual objective")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--method", choices=("ve", "brute"), default="ve")
    p.add_argument("--order", help="elimination order file (--method ve only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("map", help="max_u Pr(u, e)")
    p.add_argument("--model", required=True)
    p.add_argument("--targets", required=True, help="comma-separated names")
    p.add_argument("--e", default="", help="evidence name=state pairs")
    p.add_argument("--order", help="elimination order file")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("rmap", help="max_u Pr(e1 | u, e2)")
    p.add_argument("--model", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--e1", default="")
    p.add_argument("--e2", default="")
    p.add_argument("--order", help="elimination order file")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_rmap)

    p = sub.add_parser("width", help="width and clusters of an elimination order")
    p.add_argument("--model", required=True)
    p.add_argument("--units", help="comma-separated unit variable names")
    p.add_argument("--order", default="minfill", help="minfill|exhaustive|<file>")
    lift = p.add_mutually_exclusive_group()
    lift.add_argument("--lifted", type=int, help="lift to an n-world model")
    lift.add_argument("--objective", help="lift to this objective's model instead")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("build-objective-model", help="emit the objective model JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_objective_model)

    p = sub.add_parser("compile-cnf", help="compile DIMACS CNF to an SCM circuit")
    p.add_argument("--dimacs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compile_cnf)

    p = sub.add_parser("gen", help="generate benchmark instances")
    p.add_argument("--kind", choices=("random", "tight"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-parents", type=int, default=GenConfig.max_parents)
    p.add_argument("--out")
    p.add_argument("--objective-out", help="the tight family's objective (--kind tight only)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the width-table experiment")
    p.add_argument("--config", default="default", help="default|<json file>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=GenConfig.trials)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed the help or the usage error
        return EXIT_OK if stop.code == 0 else EXIT_INPUT
    try:
        args.func(args)
    except InconsistentEvidenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:
        print(f"error: out of memory ({err or 'allocation failed'})", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as err:
        print(f"internal invariant breach: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
