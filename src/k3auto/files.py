"""Text input formats: surface files, curve-graph files, lattice expressions.

Surface file::

    field_order = 16
    A = "t^3*(t^4-1)"
    B = "0"

    [map.sigma]
    x = "z^6*x"
    y = "z^9*y"
    t = "z^4*t"

Graph file::

    vertex C1
    edge C1 C2
    edge a1 b1 x2

    [action.sigma]
    n = 16
    c = 1
    perm = (a1 a2 a3 a4)(b1 b2 b3 b4)
    anchor = s0 @ s0:C1 = 4

Lattice expressions are sums of named lattices, e.g. ``U(2)+E8+D4``.
"""
from __future__ import annotations

import re

from .cyclotomic import cyclotomic_field
from .errors import InputError
from .funfield import SurfaceMap
from .lattice import GramMatrix, direct_sum, named_lattice
from .parser import parse_expression, parse_univariate
from .rigidity import CurveConfig, GraphAction, edge_point_id, propagate
from .surface import WeierstrassModel


MAX_FIELD_ORDER = 1024


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _split_blocks(text: str, kind: str):
    """(top-level lines, {name: block lines}, top end) for [kind.name]
    sections; the top-level section ends at the first header, or at the last
    line if there is none."""
    top: list[tuple[int, str]] = []
    blocks: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    top_end = max(len(text.splitlines()), 1)
    for lineno, line in _logical_lines(text):
        header = re.fullmatch(r"\[([a-z]+)\.([A-Za-z0-9_]+)\]", line)
        if header:
            if current is None:
                top_end = lineno
            if header.group(1) != kind:
                raise InputError(
                    f"unexpected block kind [{header.group(1)}.*]; expected [{kind}.*]",
                    lineno,
                )
            name = header.group(2)
            if name in blocks:
                raise InputError(f"duplicate block {name!r}", lineno)
            blocks[name] = []
            current = blocks[name]
            continue
        if current is not None:
            current.append((lineno, line))
        else:
            top.append((lineno, line))
    return top, blocks, top_end


def _key_values(lines) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise InputError(f"expected key = value, got {line!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise InputError(f"duplicate key {key!r}", lineno)
        out[key] = (lineno, _unquote(value))
    return out


def _int_value(kv, key: str) -> int:
    lineno, text = kv[key]
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{key} must be an integer, got {text!r}", lineno) from None


def _positive_int(kv, key: str) -> int:
    value = _int_value(kv, key)
    if value < 1:
        raise InputError(f"{key} must be a positive integer, got {value}", kv[key][0])
    return value


def load_surface_text(text: str) -> tuple[WeierstrassModel, dict[str, SurfaceMap]]:
    top, blocks, top_end = _split_blocks(text, "map")
    kv = _key_values(top)
    for required in ("field_order", "A", "B"):
        if required not in kv:
            raise InputError(f"missing {required!r}", top_end)
    order = _positive_int(kv, "field_order")
    if order > MAX_FIELD_ORDER:
        raise InputError(
            f"field_order must be at most {MAX_FIELD_ORDER}, got {order}", kv["field_order"][0]
        )
    field = cyclotomic_field(order)

    def poly_of(key):
        lineno, src = kv[key]
        try:
            return parse_univariate(src, "t", field)
        except (ValueError, ZeroDivisionError) as err:
            raise InputError(f"{key}: {err}", lineno) from err

    A, B = poly_of("A"), poly_of("B")
    try:
        model = WeierstrassModel(field, A, B)
    except ValueError as err:
        raise InputError(str(err), kv["A"][0]) from err

    maps: dict[str, SurfaceMap] = {}
    for name, lines in blocks.items():
        mkv = _key_values(lines)
        for axis in ("x", "y", "t"):
            if axis not in mkv:
                raise InputError(f"map {name!r} is missing {axis!r}", lines[0][0] if lines else 1)

        def component(axis, allowed):
            lineno, src = mkv[axis]
            try:
                return parse_expression(src, allowed, field)
            except (ValueError, ZeroDivisionError) as err:
                raise InputError(f"map {name!r}, {axis}: {err}", lineno) from err

        ex = component("x", {"x", "y", "t"})
        ey = component("y", {"x", "y", "t"})
        et = component("t", {"t"})
        try:
            maps[name] = SurfaceMap.from_expressions(model, ex, ey, et)
        except (ValueError, ZeroDivisionError) as err:
            raise InputError(f"map {name!r}: {err}", mkv["x"][0]) from err
    return model, maps


def _read_text(path) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(str(err), data.count(b"\n", 0, err.start) + 1) from None


def load_surface_file(path) -> tuple[WeierstrassModel, dict[str, SurfaceMap]]:
    return load_surface_text(_read_text(path))


_PERM_CYCLE = re.compile(r"\(([^()]*)\)")


def _parse_perm(src: str, vertices, lineno: int) -> dict[str, str]:
    perm = {v: v for v in vertices}
    leftover = _PERM_CYCLE.sub("", src).strip()
    if leftover:
        raise InputError(f"cannot parse permutation near {leftover!r}", lineno)
    seen: set[str] = set()
    for cycle_text in _PERM_CYCLE.findall(src):
        names = cycle_text.split()
        for name in names:
            if name not in perm:
                raise InputError(f"unknown vertex {name!r} in permutation", lineno)
            if name in seen:
                raise InputError(f"vertex {name!r} repeated in permutation", lineno)
            seen.add(name)
        for i, name in enumerate(names):
            perm[name] = names[(i + 1) % len(names)]
    return perm


def load_graph_text(text: str) -> tuple[CurveConfig, dict[str, GraphAction]]:
    top, blocks, _top_end = _split_blocks(text, "action")
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, tuple[str, str, int]]] = []
    for lineno, line in top:
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise InputError("vertex lines read: vertex NAME", lineno)
            vertices.append((lineno, parts[1]))
        elif parts[0] == "edge":
            if len(parts) not in (3, 4):
                raise InputError("edge lines read: edge A B [x2]", lineno)
            mult = 1
            if len(parts) == 4:
                if parts[3] != "x2":
                    raise InputError(f"unknown edge marker {parts[3]!r}", lineno)
                mult = 2
            edges.append((lineno, (parts[1], parts[2], mult)))
        else:
            raise InputError(f"unknown directive {parts[0]!r}", lineno)
    line = 1

    def tracked(items):
        # CurveConfig checks each item as it draws it, so an error is about
        # the item drawn last.
        nonlocal line
        for line, item in items:
            yield item

    try:
        config = CurveConfig(tracked(vertices), tracked(edges))
    except ValueError as err:
        raise InputError(str(err), line) from err

    actions: dict[str, GraphAction] = {}
    for name, lines in blocks.items():
        kv = _key_values(lines)
        for required in ("n", "c", "perm", "anchor"):
            if required not in kv:
                raise InputError(
                    f"action {name!r} is missing {required!r}",
                    lines[0][0] if lines else 1,
                )
        n = _positive_int(kv, "n")
        c = _int_value(kv, "c")
        perm = _parse_perm(kv["perm"][1], config.vertices, kv["perm"][0])
        anchor_line, anchor_text = kv["anchor"]
        m = re.fullmatch(
            r"(\S+)\s*@\s*(\S+):(\S+)\s*=\s*(-?\d+)", anchor_text.strip()
        )
        if not m:
            raise InputError(
                f"anchor reads: CURVE @ A:B = WEIGHT, got {anchor_text!r}", anchor_line
            )
        curve, pa, pb, weight = m.group(1), m.group(2), m.group(3), int(m.group(4))
        try:
            actions[name] = propagate(
                config, perm, n, c, (curve, edge_point_id(pa, pb)), weight
            )
        except ValueError as err:
            raise InputError(f"action {name!r}: {err}", anchor_line) from err
    return config, actions


def load_graph_file(path) -> tuple[CurveConfig, dict[str, GraphAction]]:
    return load_graph_text(_read_text(path))


def parse_lattice_expression(expr: str) -> GramMatrix:
    """A '+'-separated sum of named lattices, e.g. 'U(2)+E8+D4'."""
    names = [part.strip() for part in expr.split("+")]
    if not names or any(not n for n in names):
        raise InputError(f"cannot parse lattice expression {expr!r}")
    return direct_sum([named_lattice(name) for name in names])
