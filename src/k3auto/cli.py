"""Batch command-line front end.

Subcommands: classify, check-map, rigidity (census / power / compose /
enumerate), lattice (expr / graph / genus-equal).  Reports are deterministic
plain text; --json emits the same data with stable key order.  Exit codes:
0 success, 1 verification failed (errors.VerificationFailure), 2 input error
(errors.InputError, or a file that cannot be read or written).
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, VerificationFailure
from .files import load_graph_file, load_surface_file, parse_lattice_expression
from .funfield import NotAMorphismError, ambient_scalar, map_order, omega_factor
from .lattice import (
    discriminant_data,
    from_curve_config,
    genus_equal,
    signature,
)
from .rigidity import (
    census,
    compose_actions,
    cycles,
    enumerate_actions,
    inverse_action,
    power,
    to_dot,
)
from .surface import classify_all, format_report


def _fmt_zeta(value) -> str:
    k = value.as_zeta_power()
    if k == 0:
        return "1"
    if k is not None:
        return f"z^{k}"
    return str(value)


def _emit(args, text: str, data: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_classify(args) -> int:
    model, _maps = load_surface_file(args.surface)
    inv = classify_all(model)
    text = format_report(inv)
    data = {
        "fibers": [
            {
                "place": str(f.place),
                "type": f.type,
                "vA": None if f.vA == float("inf") else int(f.vA),
                "vB": None if f.vB == float("inf") else int(f.vB),
                "vDelta": None if f.vD == float("inf") else int(f.vD),
                "euler": f.euler,
                "components": f.components,
                "multiplicity": f.multiplicity,
            }
            for f in inv.fibers
        ],
        "euler_total": inv.euler_total,
        "is_k3": inv.euler_total == 24,
    }
    _emit(args, text, data)
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
        _emit(
            args,
            f"map = {args.map}\nwell_defined = no\nresidual = {err.residual}",
            {"map": args.map, "well_defined": False, "residual": str(err.residual)},
        )
        raise VerificationFailure(f"map {args.map!r} is not a morphism") from err
    scalar = ambient_scalar(m)
    order = map_order(m, args.max_order)
    factor_order = factor.multiplicative_order(args.max_order)
    primitive = factor_order == order
    symplectic = factor == model.field.one()
    lines = [
        f"map = {args.map}",
        "well_defined = yes",
        f"ambient_scalar = {_fmt_zeta(scalar) if scalar is not None else 'none'}",
        f"omega_factor = {_fmt_zeta(factor)}",
        f"omega_order = {factor_order}",
        f"map_order = {order}",
        f"primitive = {'yes' if primitive else 'no'}",
        f"symplectic = {'yes' if symplectic else 'no'}",
    ]
    data = {
        "map": args.map,
        "well_defined": True,
        "ambient_scalar": _fmt_zeta(scalar) if scalar is not None else None,
        "omega_factor": _fmt_zeta(factor),
        "omega_order": factor_order,
        "map_order": order,
        "primitive": primitive,
        "symplectic": symplectic,
    }
    _emit(args, "\n".join(lines), data)
    return 0


def _census_report(name: str, action) -> tuple[str, dict]:
    cen = census(action)
    lines = [
        f"action = {name}",
        f"n = {action.n}",
        f"c = {action.c}",
        f"N = {cen.N}",
        f"k = {cen.k}",
    ]
    for curve in cen.curves:
        lines.append(f"fixed-curve {curve}")
    for p in cen.points:
        if p.weights is None:
            weight_text = "-"
        else:
            weight_text = " ".join(f"{cv}={w}" for cv, w in p.weights)
        lines.append(f"fixed-point {p.location} | {p.kind} | {weight_text}")
    data = {
        "action": name,
        "n": action.n,
        "c": action.c,
        "N": cen.N,
        "k": cen.k,
        "fixed_curves": list(cen.curves),
        "fixed_points": [
            {
                "location": p.location,
                "kind": p.kind,
                "weights": None
                if p.weights is None
                else {cv: w for cv, w in p.weights},
            }
            for p in cen.points
        ],
    }
    return "\n".join(lines), data


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
        text, data = _census_report(args.action, action)
    elif args.rigidity_cmd == "power":
        action = power(_resolve_action(actions, args.action), args.m)
        text, data = _census_report(f"{args.action}^{args.m}", action)
    elif args.rigidity_cmd == "compose":
        action = compose_actions(
            _resolve_action(actions, args.first), _resolve_action(actions, args.second)
        )
        text, data = _census_report(f"{args.first} o {args.second}", action)
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
        lines = [f"classes = {len(classes)}"]
        class_data = []
        for i, act in enumerate(classes):
            cen = census(act)
            perm = _cycle_notation(act.perm)
            lines.append(f"class {i} | perm = {perm} | N = {cen.N} | k = {cen.k}")
            class_data.append(
                {"perm": perm, "N": cen.N, "k": cen.k, "n": act.n, "c": act.c}
            )
        text, data = "\n".join(lines), {"classes": class_data}
        action = classes[0] if classes else None
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(config, action))
    _emit(args, text, data)
    return 0


def _cycle_notation(perm: dict[str, str]) -> str:
    return "".join(f"({' '.join(c)})" for c in cycles(perm) if len(c) > 1) or "()"


def _lattice_report(name: str, G) -> tuple[str, dict]:
    p, q = signature(G)
    dd = discriminant_data(G)
    # |det| is the product of the Smith invariants and its sign is (-1)^q.
    det = 0
    if p + q == G.size:
        det = (-1) ** q * dd.order
    lines = [
        f"lattice = {name}",
        f"rank = {p + q}",
        f"signature = ({p}, {q})",
        f"det = {det}",
        f"invariant_factors = ({', '.join(str(d) for d in dd.invariant_factors)})",
    ]
    for i, qv in enumerate(dd.q_values):
        lines.append(f"q(g{i + 1}) = {qv} mod 2")
    data = {
        "lattice": name,
        "rank": p + q,
        "signature": [p, q],
        "det": det,
        "invariant_factors": list(dd.invariant_factors),
        "q_values": [str(v) for v in dd.q_values],
    }
    return "\n".join(lines), data


def cmd_lattice(args) -> int:
    if args.lattice_cmd == "expr":
        G = parse_lattice_expression(args.expr)
        text, data = _lattice_report(args.expr, G)
    elif args.lattice_cmd == "graph":
        config, _actions = load_graph_file(args.graph)
        G = from_curve_config(config)
        text, data = _lattice_report(args.graph, G)
    else:  # genus-equal
        G1 = parse_lattice_expression(args.first)
        G2 = parse_lattice_expression(args.second)
        equal = genus_equal(G1, G2)
        text = f"genus_equal = {'yes' if equal else 'no'}"
        data = {"genus_equal": equal}
    _emit(args, text, data)
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
        return args.func(args)
    except VerificationFailure as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except (InputError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
