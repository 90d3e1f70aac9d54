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

Every input error names its line.  ``_read_keys`` reads each ``key = value``
section (the surface top section and every block) against the keys it takes.
``_on_line`` re-raises an error of a layer (the parser, ``WeierstrassModel``,
``SurfaceMap.from_expressions``, ``_saturate``) at the line the layer read;
``CurveConfig``'s error is the one exception, at the vertex or edge it drew
last.
"""
from __future__ import annotations

import re

from .cyclotomic import cyclotomic_field
from .errors import InputError
from .funfield import SurfaceMap
from .lattice import GramMatrix, direct_sum, named_lattice
from .parser import parse_expression, parse_univariate
from .rigidity import CurveConfig, GraphAction, _saturate, edge_point_id
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
    """(top-level lines, {name: (header line, block lines)}, top end) for
    [kind.name] sections; the top-level section ends at the first header, or
    at the last line if there is none."""
    top: list[tuple[int, str]] = []
    blocks: dict[str, tuple[int, list[tuple[int, str]]]] = {}
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
            current = []
            blocks[name] = (lineno, current)
            continue
        if current is not None:
            current.append((lineno, line))
        else:
            top.append((lineno, line))
    return top, blocks, top_end


def _read_keys(lines, keys, block="", end=None, start=1) -> dict[str, tuple[int, str]]:
    """{key: (line, value)} of a section of key = value lines that takes
    exactly keys: each line has that form and a key of the section, seen
    once.  block names a [kind.name] block in the messages; a missing key is
    reported at end, by default the section's first line, or start (a
    block's header line) if the section is empty."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise InputError(f"expected key = value, got {line!r}", lineno)
        if key not in keys:
            message = f"unknown key {key!r}"
            raise InputError(f"{block}: {message}" if block else message, lineno)
        if key in out:
            raise InputError(f"duplicate key {key!r}", lineno)
        out[key] = (lineno, _unquote(value))
    for key in keys:
        if key not in out:
            message = f"{block} is missing {key!r}" if block else f"missing {key!r}"
            raise InputError(message, end or (lines[0][0] if lines else start))
    return out


def _on_line(line: int, prefix: str, build, *args):
    """build(*args), with a ValueError or ZeroDivisionError that a layer
    raises from it re-raised as an InputError at line, after prefix."""
    try:
        return build(*args)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"{prefix}{err}", line) from err


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
    kv = _read_keys(top, ("field_order", "A", "B"), end=top_end)
    order = _positive_int(kv, "field_order")
    if order > MAX_FIELD_ORDER:
        raise InputError(
            f"field_order must be at most {MAX_FIELD_ORDER}, got {order}", kv["field_order"][0]
        )
    field = cyclotomic_field(order)
    A, B = (
        _on_line(kv[key][0], f"{key}: ", parse_univariate, kv[key][1], "t", field)
        for key in ("A", "B")
    )
    model = _on_line(kv["A"][0], "", WeierstrassModel, field, A, B)

    maps: dict[str, SurfaceMap] = {}
    for name, (header, lines) in blocks.items():
        mkv = _read_keys(lines, ("x", "y", "t"), f"map {name!r}", start=header)
        ex, ey, et = (
            _on_line(mkv[a][0], f"map {name!r}, {a}: ", parse_expression, mkv[a][1], names, field)
            for a, names in (("x", set("xyt")), ("y", set("xyt")), ("t", {"t"}))
        )
        maps[name] = _on_line(
            mkv["x"][0], f"map {name!r}: ", SurfaceMap.from_expressions, model, ex, ey, et
        )
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
        # the item drawn last: the one layer error whose line is known only
        # once it is raised, so _on_line cannot attach it.
        nonlocal line
        for line, item in items:
            yield item

    try:
        config = CurveConfig(tracked(vertices), tracked(edges))
    except ValueError as err:
        raise InputError(str(err), line) from err

    actions: dict[str, GraphAction] = {}
    for name, (header, lines) in blocks.items():
        kv = _read_keys(lines, ("n", "c", "perm", "anchor"), f"action {name!r}", start=header)
        n = _positive_int(kv, "n")
        c = _int_value(kv, "c")
        perm = _parse_perm(kv["perm"][1], config.vertices, kv["perm"][0])
        anchor_line, anchor_text = kv["anchor"]
        m = re.fullmatch(r"(\S+)\s*@\s*(\S+):(\S+)\s*=\s*(-?\d+)", anchor_text.strip())
        if not m:
            raise InputError(
                f"anchor reads: CURVE @ A:B = WEIGHT, got {anchor_text!r}", anchor_line
            )
        flag = (m.group(1), edge_point_id(m.group(2), m.group(3)))
        actions[name] = _on_line(
            anchor_line, f"action {name!r}: ",
            _saturate, config, perm, n, c, {flag: int(m.group(4))},
        )
    return config, actions


def load_graph_file(path) -> tuple[CurveConfig, dict[str, GraphAction]]:
    return load_graph_text(_read_text(path))


def parse_lattice_expression(expr: str) -> GramMatrix:
    """A '+'-separated sum of named lattices, e.g. 'U(2)+E8+D4'."""
    names = [part.strip() for part in expr.split("+")]
    if not names or any(not n for n in names):
        raise InputError(f"cannot parse lattice expression {expr!r}")
    return direct_sum([named_lattice(name) for name in names])
