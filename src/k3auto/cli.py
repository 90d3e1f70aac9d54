"""Batch command-line front end.

Subcommands: classify, check-map, rigidity (census / power / compose /
enumerate), lattice (expr / graph / genus-equal).  Each report is one
deterministic record: --json prints it with stable key order, and the plain
text renders the same record as ``key = value`` lines.  Exit codes:
0 success, 1 verification failed (errors.VerificationFailure), 2 input error
(errors.InputError, or a file that cannot be read or written), 141 (128 +
SIGPIPE) when the reader of standard output closes it first.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, VerificationFailure
from .files import load_graph_file, load_surface_file, parse_lattice_expression
from .funfield import (
    NotAMorphismError,
    OrderBoundExceededError,
    ambient_scalar,
    check_order_bound,
    map_order,
    omega_factor,
)
from .lattice import discriminant_data, from_curve_config, genus_equal, signature
from .polyring import INF
from .rigidity import (
    compose_actions,
    cycles,
    enumerate_actions,
    inverse_action,
    power,
    to_dot,
)
from .surface import classify_all


def _fmt_zeta(value) -> str:
    k = value.as_zeta_power()
    if k == 0:
        return "1"
    if k is not None:
        return f"z^{k}"
    return str(value)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, list):
        return f"({', '.join(str(v) for v in value)})"
    return str(value)


def _emit(args, data: dict, lines: dict[str, list[str]] | None = None) -> None:
    """Print the report record as JSON under --json, else as ``key = value``
    lines; ``lines`` maps a structured key to the hand-written lines for it."""
    if args.json:
        print(json.dumps(data, sort_keys=True, indent=2))
        return
    lines = lines or {}
    text = []
    for key, value in data.items():
        text.extend(lines.get(key, [f"{key} = {_fmt_value(value)}"]))
    print("\n".join(text))


def cmd_classify(args) -> int:
    model, _maps = load_surface_file(args.surface)
    inv = classify_all(model)
    fibers = []
    for f in inv.fibers:
        vA, vB, vD = (None if v == INF else int(v) for v in (f.vA, f.vB, f.vD))
        fibers.append({"place": str(f.place), "type": f.type, "vA": vA, "vB": vB,
                       "vDelta": vD, "euler": f.euler, "components": f.components,
                       "multiplicity": f.multiplicity})
    table = [
        f"{f['place']} | {f['type']} | "
        + " ".join("inf" if f[v] is None else str(f[v]) for v in ("vA", "vB", "vDelta"))
        + f" | {f['euler']} | {f['multiplicity']}"
        for f in fibers
    ]
    data = {"fibers": fibers, "euler_total": inv.euler_total, "is_k3": inv.euler_total == 24}
    _emit(args, data, {"fibers": table})
    return 0


def cmd_check_map(args) -> int:
    model, maps = load_surface_file(args.surface)
    if args.map not in maps:
        raise InputError(f"no map named {args.map!r} in {args.surface}")
    m = maps[args.map]
    try:
        factor = omega_factor(m)  # verifies the morphism first
    except NotAMorphismError as err:
        if err.residual is None:
            raise VerificationFailure(
                f"map {args.map!r} sends the surface to a curve: {err}"
            ) from err
        _emit(args, {"map": args.map, "well_defined": False, "residual": str(err.residual)})
        raise VerificationFailure(f"map {args.map!r} is not a morphism") from err
    scalar = ambient_scalar(m)
    check_order_bound(args.max_order)
    factor_order = factor.multiplicative_order(args.max_order)
    if factor_order is None:
        # The 2-form factor is multiplicative, so m^k = id forces c^k = 1:
        # the verdict needs no composition.
        raise OrderBoundExceededError(f"order exceeds {args.max_order}")
    order = map_order(m, args.max_order)
    _emit(args, {
        "map": args.map,
        "well_defined": True,
        "ambient_scalar": _fmt_zeta(scalar) if scalar is not None else None,
        "omega_factor": _fmt_zeta(factor),
        "omega_order": factor_order,
        "map_order": order,
        "primitive": factor_order == order,
        "symplectic": factor == model.field.one(),
    })
    return 0


def _census_report(name: str, action) -> tuple[dict, dict]:
    cen = action.census()
    data = {
        "action": name,
        "n": action.n,
        "c": action.c,
        "N": cen.N,
        "k": cen.k,
        "fixed_curves": list(cen.curves),
        "fixed_points": [
            {"location": p.location, "kind": p.kind,
             "weights": None if p.weights is None else dict(p.weights)}
            for p in cen.points
        ],
    }
    return data, {
        "fixed_curves": [f"fixed-curve {curve}" for curve in data["fixed_curves"]],
        "fixed_points": [
            f"fixed-point {p['location']} | {p['kind']} | "
            + ("-" if p["weights"] is None
               else " ".join(f"{cv}={w}" for cv, w in p["weights"].items()))
            for p in data["fixed_points"]
        ],
    }


def _resolve_action(actions, name: str):
    name = name.strip()
    if name.startswith("inv(") and name.endswith(")"):
        return inverse_action(_resolve_action(actions, name[4:-1]))
    if name not in actions:
        raise InputError(f"no action named {name!r} in the graph file")
    return actions[name]


def cmd_rigidity(args) -> int:
    config, actions = load_graph_file(args.graph)
    if args.rigidity_cmd == "census":
        action = _resolve_action(actions, args.action)
        data, lines = _census_report(args.action, action)
    elif args.rigidity_cmd == "power":
        action = power(_resolve_action(actions, args.action), args.m)
        data, lines = _census_report(f"{args.action}^{args.m}", action)
    elif args.rigidity_cmd == "compose":
        action = compose_actions(
            _resolve_action(actions, args.first), _resolve_action(actions, args.second)
        )
        data, lines = _census_report(f"{args.first} o {args.second}", action)
    else:  # enumerate
        census_filter = None
        if args.filter is not None:
            try:
                census_filter = tuple(int(part) for part in args.filter.split(","))
            except ValueError:
                census_filter = ()
            if len(census_filter) != 2:
                raise InputError(f"--filter takes two integers N,k, got {args.filter!r}")
        classes = enumerate_actions(config, args.n, args.c, census_filter)
        class_data = []
        for act in classes:
            cen = act.census()
            perm = _cycle_notation(act.perm)
            class_data.append({"perm": perm, "N": cen.N, "k": cen.k, "n": act.n, "c": act.c})
        data = {"classes": class_data}
        lines = {"classes": [f"classes = {len(class_data)}"] + [
            f"class {i} | perm = {c['perm']} | N = {c['N']} | k = {c['k']}"
            for i, c in enumerate(class_data)
        ]}
        action = classes[0] if classes else None
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(config, action))
    _emit(args, data, lines)
    return 0


def _cycle_notation(perm: dict[str, str]) -> str:
    return "".join(f"({' '.join(c)})" for c in cycles(perm) if len(c) > 1) or "()"


def _lattice_report(name: str, G) -> tuple[dict, dict]:
    p, q = signature(G)
    dd = discriminant_data(G)
    # |det| is the product of the Smith invariants and its sign is (-1)^q.
    det = (-1) ** q * dd.order if p + q == G.size else 0
    data = {
        "lattice": name,
        "rank": p + q,
        "signature": [p, q],
        "det": det,
        "invariant_factors": list(dd.invariant_factors),
        "q_values": [str(v) for v in dd.q_values],
    }
    return data, {
        "q_values": [f"q(g{i + 1}) = {v} mod 2" for i, v in enumerate(data["q_values"])]
    }


def cmd_lattice(args) -> int:
    if args.lattice_cmd == "expr":
        data, lines = _lattice_report(args.expr, parse_lattice_expression(args.expr))
    elif args.lattice_cmd == "graph":
        config, _actions = load_graph_file(args.graph)
        data, lines = _lattice_report(args.graph, from_curve_config(config))
    else:  # genus-equal
        G1 = parse_lattice_expression(args.first)
        G2 = parse_lattice_expression(args.second)
        data, lines = {"genus_equal": genus_equal(G1, G2)}, None
    _emit(args, data, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3auto",
        description="Exact verification toolkit for elliptic K3 surface data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Kodaira fiber inventory of a surface file")
    p.add_argument("surface")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check-map", help="verify a named map from a surface file")
    p.add_argument("surface")
    p.add_argument("map")
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_map)

    p = sub.add_parser("rigidity", help="fixed-locus calculus on a graph file")
    p.add_argument("graph")
    rsub = p.add_subparsers(dest="rigidity_cmd", required=True)
    pc = rsub.add_parser("census", help="census of a named action")
    pc.add_argument("action")
    pp = rsub.add_parser("power", help="census of a power of a named action")
    pp.add_argument("action")
    pp.add_argument("m", type=int)
    pco = rsub.add_parser("compose", help="compose two actions (inv(NAME) allowed)")
    pco.add_argument("first")
    pco.add_argument("second")
    pe = rsub.add_parser("enumerate", help="all consistent actions up to conjugacy")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--c", type=int, required=True)
    pe.add_argument("--filter", help="N,k census filter")
    for q in (pc, pp, pco, pe):
        q.add_argument("--dot", help="write a DOT rendering to this path")
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("lattice", help="Gram matrix reports and genus comparison")
    lsub = p.add_subparsers(dest="lattice_cmd", required=True)
    le = lsub.add_parser("expr", help="report on a sum of named lattices")
    le.add_argument("expr")
    lg = lsub.add_parser("graph", help="report on a curve-configuration lattice")
    lg.add_argument("graph")
    lq = lsub.add_parser("genus-equal", help="compare two lattice expressions")
    lq.add_argument("first")
    lq.add_argument("second")
    for q in (le, lg, lq):
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped reading, as `| head` does: print nothing more,
        # not even from the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationFailure as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except (InputError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
