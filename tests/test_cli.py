import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import k3auto
from k3auto import cyclotomic, funfield, polyring
from k3auto.cli import main
from k3auto.files import load_surface_text, parse_lattice_expression
from k3auto.fixtures import fixture_path
from test_lattice import determinant

SURFACE = str(fixture_path("order16_surface.txt"))
GRAPH = str(fixture_path("order16_graph.txt"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture(capsys):
    code, out, _ = run_cli(capsys, "classify", SURFACE)
    assert code == 0
    assert "t | III* | 3 inf 9 | 9 | 1" in out
    assert "euler_total = 24" in out
    assert "is_k3 = yes" in out
    assert out.count("III") >= 2


def test_classify_report_is_deterministic(capsys):
    code, out, _ = run_cli(capsys, "classify", SURFACE)
    assert code == 0
    assert run_cli(capsys, "classify", SURFACE)[1] == out
    assert out.splitlines() == [
        "t | III* | 3 inf 9 | 9 | 1",
        "t^4 - 1 | III | 1 inf 3 | 3 | 4",
        "infinity | III | 1 inf 3 | 3 | 1",
        "euler_total = 24",
        "is_k3 = yes",
    ]


def test_classify_zero_A_prints_inf_and_null(capsys, tmp_path):
    # A = 0 makes v(A) infinite at every place: "inf" in the text table and
    # null in the JSON record the table is rendered from.
    path = tmp_path / "zero_a.txt"
    path.write_text('field_order = 4\nA = "0"\nB = "t^5+1"\n')
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert out.splitlines() == [
        "t^5 + 1 | II | inf 1 2 | 2 | 5",
        "infinity | II | inf 1 2 | 2 | 1",
        "euler_total = 12",
        "is_k3 = no",
    ]
    code, out, _ = run_cli(capsys, "classify", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert [(f["type"], f["vA"], f["vB"], f["vDelta"]) for f in data["fibers"]] == [
        ("II", None, 1, 2),
        ("II", None, 1, 2),
    ]
    assert data["euler_total"] == 12
    assert data["is_k3"] is False


def test_classify_rational_elliptic(capsys, tmp_path):
    path = tmp_path / "rational.txt"
    path.write_text('field_order = 16\nA = "t"\nB = "0"\n')
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert "euler_total = 12" in out
    assert "is_k3 = no" in out


def test_classify_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text('field_order = 16\nA = "t^3*(t^4-1"\nB = "0"\n')
    code, _out, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "input error" in err
    assert "line 2" in err


def test_check_map_sigma(capsys):
    code, out, _ = run_cli(capsys, "check-map", SURFACE, "sigma")
    assert code == 0
    assert "well_defined = yes" in out
    assert "ambient_scalar = z^2" in out
    assert "omega_factor = z^1" in out
    assert "map_order = 16" in out
    assert "primitive = yes" in out
    assert "symplectic = no" in out


def test_check_map_tau(capsys):
    code, out, _ = run_cli(capsys, "check-map", SURFACE, "tau")
    assert code == 0
    assert "map_order = 2" in out
    assert "omega_factor = 1" in out
    assert "symplectic = yes" in out


def test_check_map_sigma_alt(capsys):
    code, out, _ = run_cli(capsys, "check-map", SURFACE, "sigma_alt")
    assert code == 0
    assert "omega_factor = z^1" in out
    assert "map_order = 16" in out
    assert "primitive = yes" in out


def test_check_map_not_a_morphism_exits_1(capsys, tmp_path):
    path = tmp_path / "bad_map.txt"
    path.write_text(
        'field_order = 16\nA = "t^3*(t^4-1)"\nB = "0"\n'
        '[map.broken]\nx = "x"\ny = "y"\nt = "z^4*t"\n'
    )
    code, out, err = run_cli(capsys, "check-map", str(path), "broken")
    assert code == 1
    assert out == (
        "map = broken\n"
        "well_defined = no\n"
        "residual = (1 + z^4)*x*t^7 + (-1 - z^4)*x*t^3\n"
    )
    assert err == "verification failed: map 'broken' is not a morphism\n"


def _numerator_entries(p):
    return sum(1 for c in p.terms.values() for v in c.num if v)


def test_check_map_with_a_large_coprime_gcd(capsys, monkeypatch):
    # The morphism residual of this map needs the gcd of two coprime
    # polynomials of x-degree 5 and 8 and t-degree 25 and 42.  The output
    # bytes are those of the PRS-only computation.  Work is counted as one
    # per field product (CycloNum * and the polynomial kernel's term
    # scalings) plus one per pair of nonzero numerator entries that a
    # product of polynomials convolves; the subresultant PRS alone spends
    # about 9.7 million of these on the gcd.
    work = []
    product = cyclotomic.product

    def counted(a, b):
        work.append(1)
        return product(a, b)

    convolution = polyring._convolution

    def counted_convolution(p, q):
        work.append(_numerator_entries(p) * _numerator_entries(q))
        return convolution(p, q)

    monkeypatch.setattr(cyclotomic, "product", counted)
    monkeypatch.setattr(polyring, "product", counted)
    monkeypatch.setattr(polyring, "_convolution", counted_convolution)
    path = Path(__file__).with_name("slow_gcd_surface.txt")
    code, out, err = run_cli(capsys, "check-map", str(path), "sigma")
    assert code == 1
    assert out.startswith("map = sigma\nwell_defined = no\nresidual = ")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3be9122ba974e764f221ae6f024b62bda2270a0b173ec4a01df003f458d34fac"
    )
    assert err == "verification failed: map 'sigma' is not a morphism\n"
    assert sum(work) < 10_000


@pytest.mark.parametrize(
    "coefficients, images, reason",
    [
        # On the fixture model (B = 0) the point (0, 0) lies on every fiber.
        ('A = "t^3*(t^4-1)"\nB = "0"', ("0", "0", "t"), "the image of y is 0"),
        # (0, 1) is a section of y^2 = x^3 + 1: y goes to 1, the 2-form to 0.
        ('A = "0"\nB = "1"', ("0", "1", "t"), "the pulled-back 2-form is 0"),
    ],
)
def test_check_map_onto_a_curve_is_a_verdict(capsys, tmp_path, coefficients, images, reason):
    path = tmp_path / "flat_map.txt"
    x, y, t = images
    path.write_text(
        f'field_order = 16\n{coefficients}\n[map.flat]\nx = "{x}"\ny = "{y}"\nt = "{t}"\n'
    )
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "check-map", str(path), "flat", *extra)
        assert code == 1
        assert out == ""
        assert err == f"verification failed: map 'flat' sends the surface to a curve: {reason}\n"


def _count_calls(monkeypatch, name):
    # From here on, every call of funfield.<name> appends to the returned list.
    calls = []
    counted = getattr(funfield, name)

    def counting(m):
        calls.append(m)
        return counted(m)

    monkeypatch.setattr(funfield, name, counting)
    return calls


def test_check_map_verifies_the_morphism_once(capsys, monkeypatch, tmp_path):
    # A morphism is decided by one identity check and builds no residual; a
    # non-morphism builds its residual once, for the printed text.  Either
    # way the map's cleared equation is built once, and the ambient scalar
    # and the residual read it.
    checks = _count_calls(monkeypatch, "verify_morphism")
    residuals = _count_calls(monkeypatch, "morphism_residual")
    builds = _count_calls(monkeypatch, "_cleared_equation")
    code, _out, _err = run_cli(capsys, "check-map", SURFACE, "sigma")
    assert code == 0
    assert (len(checks), len(residuals), len(builds)) == (1, 0, 1)
    path = tmp_path / "bad_map.txt"
    path.write_text(
        'field_order = 16\nA = "t^3*(t^4-1)"\nB = "0"\n'
        '[map.broken]\nx = "x"\ny = "y"\nt = "z^4*t"\n'
    )
    code, _out, _err = run_cli(capsys, "check-map", str(path), "broken")
    assert code == 1
    assert (len(checks), len(residuals), len(builds)) == (2, 1, 2)


def test_the_check_sequence_builds_each_cleared_equation_once(monkeypatch):
    # The benchmark's check sequence verifies, takes the ambient scalar and
    # then the 2-form factor, which verifies again: the second check and the
    # scalar read the equation the first one built, once per map object.
    _model, maps = load_surface_text(fixture_path("order16_surface.txt").read_text())
    builds = _count_calls(monkeypatch, "_cleared_equation")
    for _ in range(2):
        for m in maps.values():
            assert funfield.verify_morphism(m)
            funfield.ambient_scalar(m)
            funfield.omega_factor(m)
    assert len(builds) == len(maps) == 3
    assert all(built is m for built, m in zip(builds, maps.values()))


def test_check_map_order_bound_is_a_verdict(capsys):
    # sigma has order 16: passing the bound is a failed verification, exit 1.
    # A zero bound composes nothing and still ends.
    for bound in ("4", "0"):
        code, out, err = run_cli(capsys, "check-map", SURFACE, "sigma", "--max-order", bound)
        assert code == 1
        assert out == ""
        assert err == f"verification failed: order exceeds {bound}\n"


def test_check_map_order_bound_above_the_limit_exits_2_at_once(capsys, tmp_path):
    # t -> t + 1 has no finite order; at the limit it is still refuted (exit
    # 1), and past the limit the bound itself is rejected before any map is
    # composed.
    path = tmp_path / "shift.txt"
    path.write_text(
        'field_order = 4\nA = "1"\nB = "0"\n\n[map.shift]\nx = "x"\ny = "y"\nt = "t+1"\n'
    )
    limit = funfield.MAX_ORDER
    code, out, err = run_cli(capsys, "check-map", str(path), "shift", "--max-order", str(limit))
    assert code == 1
    assert err == f"verification failed: order exceeds {limit}\n"
    for surface, name in ((SURFACE, "sigma"), (str(path), "shift")):
        for bound in (limit + 1, 10 ** 8):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "check-map", surface, name, "--max-order", str(bound))
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert out == ""
            assert err == f"input error: max_order {bound} exceeds the bound {limit}\n"


def test_check_map_translation_of_infinite_order_is_refuted_at_bound_1(capsys):
    # The degrees of the powers of this translation grow without end; at the
    # bound 1 the map is verified and refuted at once.
    path = Path(__file__).with_name("translation_surface.txt")
    code, out, err = run_cli(capsys, "check-map", str(path), "tr", "--max-order", "1")
    assert code == 1
    assert out == ""
    assert err == "verification failed: order exceeds 1\n"


def test_check_map_refutes_doubling_by_its_2_form_factor():
    # P -> 2P has infinite order and pulls the 2-form back to twice itself.
    # m^k = id would force 2^k = 1, so every bound is refuted with no
    # composition, in well under a second per process.
    path = Path(__file__).with_name("duplication_surface.txt")
    src = str(Path(k3auto.__file__).resolve().parent.parent)
    for bound in (None, "3", "4", "4096"):
        argv = ["check-map", str(path), "dup"] + ([] if bound is None else ["--max-order", bound])
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "k3auto.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert time.perf_counter() - start < 0.5
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"verification failed: order exceeds {bound or 64}\n"


def test_check_map_negative_order_bound_exits_2(capsys):
    for bound in ("-1", "-3"):
        code, out, err = run_cli(capsys, "check-map", SURFACE, "sigma", "--max-order", bound)
        assert code == 2
        assert out == ""
        assert err == f"input error: max_order {bound} is below 0\n"


def test_rigidity_census(capsys):
    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "census", "sigma")
    assert code == 0
    assert "N = 10" in out
    assert "k = 1" in out
    assert "fixed-curve C4" in out


def test_rigidity_power(capsys):
    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "power", "sigma", "2")
    assert code == 0
    assert "N = 10" in out
    assert "k = 1" in out
    assert "n = 8" in out


def test_rigidity_power_eight_lists_its_points_on_a_fixed_curve(capsys):
    # sigma^8 is a non-symplectic involution, so every fixed point lies on a
    # fixed curve: the tangencies a_i:b_i (weights 1 and 1) and C8.free0
    # (weight 1) have normal weight c - 1 = 0 mod 2.
    for name in ("sigma", "sigma_alt"):
        code, out, _ = run_cli(capsys, "rigidity", GRAPH, "power", name, "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[:5] == [f"action = {name}^8", "n = 2", "c = 1", "N = 0", "k = 5"]
        assert [line for line in lines if line.startswith("fixed-point")] == [
            "fixed-point C8.free0 | on-fixed-curve | C8=1",
            *(f"fixed-point a{i}:b{i} | on-fixed-curve | a{i}=1 b{i}=1" for i in range(1, 6)),
        ]


def test_rigidity_compose(capsys):
    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "compose", "sigma", "inv(sigma_alt)")
    assert code == 0
    assert "N = 8" in out
    assert "k = 0" in out


def test_rigidity_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "rigidity", GRAPH, "enumerate", "--n", "16", "--c", "1",
        "--filter", "10,1",
    )
    assert code == 0
    assert out.splitlines()[0] == "classes = 1"


def _body(out):
    """A census report without its first line, which names the action."""
    return out.split("\n", 1)[1]


def test_rigidity_power_of_minus_one_is_the_inverse(capsys):
    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "power", "sigma", "-1")
    assert code == 0
    code_inv, out_inv, _ = run_cli(capsys, "rigidity", GRAPH, "census", "inv(sigma)")
    assert code_inv == 0
    assert _body(out) == _body(out_inv)


def test_rigidity_power_with_a_huge_exponent_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "power", "sigma", "1000000001")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    _code, out_one, _ = run_cli(capsys, "rigidity", GRAPH, "power", "sigma", "1")
    assert _body(out) == _body(out_one)


@pytest.mark.parametrize("value", ["10", "10,1,2", "10,x", ""])
def test_rigidity_enumerate_filter_needs_two_integers(capsys, value):
    code, out, err = run_cli(
        capsys, "rigidity", GRAPH, "enumerate", "--n", "16", "--c", "1", "--filter", value
    )
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-4"])
def test_rigidity_enumerate_non_positive_order_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "rigidity", GRAPH, "enumerate", "--n", value, "--c", "1")
    assert (code, out) == (2, "")
    assert err.startswith("input error:")


def test_rigidity_inconsistent_action_exits_1(capsys, tmp_path):
    path = tmp_path / "bad_graph.txt"
    path.write_text(
        "vertex P\nvertex Q\nvertex R\n"
        "edge P Q\nedge Q R\nedge P R\n"
        "[action.tri]\nn = 16\nc = 1\nperm = ()\nanchor = P @ P:Q = 5\n"
    )
    code, _out, err = run_cli(capsys, "rigidity", str(path), "census", "tri")
    # The inconsistency is discovered while loading the action block.
    assert code == 2
    assert "tri" in err


def _edit_fixture(tmp_path, fixture, old, new):
    """The fixture with its first line equal to `old` replaced; (path, line)."""
    with open(fixture, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    line = lines.index(old) + 1
    lines[line - 1] = new
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), line


def _assert_input_error_at(code, err, line):
    assert code == 2
    assert err.startswith(f"input error: line {line}:")
    assert "Traceback" not in err


def test_zero_denominator_in_a_map_exits_2_with_line(capsys, tmp_path):
    path, line = _edit_fixture(tmp_path, SURFACE, 'x = "z^6*x"', 'x = "x/(t-t)"')
    code, out, err = run_cli(capsys, "check-map", path, "sigma")
    _assert_input_error_at(code, err, line)
    assert out == ""


def test_zero_denominator_in_a_coefficient_exits_2_with_line(capsys, tmp_path):
    path, line = _edit_fixture(tmp_path, SURFACE, 'A = "t^3*(t^4-1)"', 'A = "1/(t-t)"')
    code, _out, err = run_cli(capsys, "classify", path)
    _assert_input_error_at(code, err, line)
    assert err.count("line") == 1


@pytest.mark.parametrize("value", ["0", "-16"])
def test_non_positive_order_exits_2_with_line(capsys, tmp_path, value):
    path, line = _edit_fixture(tmp_path, GRAPH, "n = 16", f"n = {value}")
    code, out, err = run_cli(capsys, "rigidity", path, "census", "sigma")
    _assert_input_error_at(code, err, line)
    assert "n must be a positive integer" in err
    assert out == ""


@pytest.mark.parametrize("key", ["n", "c"])
@pytest.mark.parametrize("token", ["abc", "1.5"])
def test_non_integer_action_value_exits_2_with_line(capsys, tmp_path, key, token):
    original = "n = 16" if key == "n" else "c = 1"
    path, line = _edit_fixture(tmp_path, GRAPH, original, f"{key} = {token}")
    code, _out, err = run_cli(capsys, "rigidity", path, "census", "sigma")
    _assert_input_error_at(code, err, line)
    assert f"{key} must be an integer, got {token!r}" in err


def test_non_positive_field_order_exits_2_with_line(capsys, tmp_path):
    path, line = _edit_fixture(tmp_path, SURFACE, "field_order = 16", "field_order = 0")
    code, _out, err = run_cli(capsys, "classify", path)
    _assert_input_error_at(code, err, line)


def test_a_superscript_exponent_exits_2_with_line_and_position(capsys, tmp_path):
    # The superscript two is a digit to str.isdigit but not to int().
    path = tmp_path / "superscript.txt"
    path.write_text('field_order = 16\nA = "t^\u00b2"\nB = "0"\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    _assert_input_error_at(code, err, 2)
    assert "(at position 2)" in err
    assert out == ""


@pytest.mark.parametrize(
    "old, new, message",
    [
        # Blanking vertex C1 leaves the edge C1 C2 on line 29.
        ("vertex C1", "", "line 29: edge touches unknown vertex: C1, C2"),
        ("edge C2 C3", "edge C1 C2", "line 30: duplicate edge ('C1', 'C2')"),
        ("edge C3 C4", "edge C3 C3", "line 31: self-intersection edge at C3"),
        ("vertex a1", "vertex a.1", "line 16: vertex name 'a.1' clashes with point-id syntax"),
    ],
)
def test_graph_error_names_the_line_of_its_vertex_or_edge(capsys, tmp_path, old, new, message):
    path, _line = _edit_fixture(tmp_path, GRAPH, old, new)
    code, out, err = run_cli(capsys, "rigidity", path, "census", "sigma")
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("key", ["field_order", "A", "B"])
def test_missing_surface_key_names_the_end_of_the_top_section(capsys, tmp_path, key):
    # The top-level section of the fixture ends at [map.sigma] on line 11.
    old = next(line for line in Path(SURFACE).read_text().splitlines() if line.startswith(key))
    path, _line = _edit_fixture(tmp_path, SURFACE, old, "")
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, out, err) == (2, "", f"input error: line 11: missing {key!r}\n")


def test_missing_surface_key_without_maps_names_the_last_line(capsys, tmp_path):
    path = tmp_path / "no_maps.txt"
    path.write_text('field_order = 16\nA = "t^3*(t^4-1)"\n\n# no B\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", "input error: line 4: missing 'B'\n")


def _empty_block(fixture, header):
    """The fixture's lines with the key lines under header removed, and the
    header's line."""
    lines = Path(fixture).read_text().splitlines()
    at = lines.index(header)
    end = at + 1
    while end < len(lines) and "=" in lines[end]:
        end += 1
    return lines[: at + 1] + lines[end:], at + 1


@pytest.mark.parametrize(
    "fixture, argv, header, message",
    [
        # A block between two blocks, and the block that ends the file.
        (SURFACE, ("classify",), "[map.sigma]", "map 'sigma' is missing 'x'"),
        (SURFACE, ("classify",), "[map.tau]", "map 'tau' is missing 'x'"),
        (GRAPH, ("rigidity", "census", "sigma"), "[action.sigma_alt]",
         "action 'sigma_alt' is missing 'n'"),
        (GRAPH, ("rigidity", "census", "sigma"), "[action.tau]", "action 'tau' is missing 'n'"),
    ],
)
def test_empty_block_names_its_header_line(capsys, tmp_path, fixture, argv, header, message):
    lines, line = _empty_block(fixture, header)
    path = tmp_path / "empty_block.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"input error: line {line}: {message}\n")


def _fixture_edits():
    """(name, argv, edited lines, expected message) for each edit of a
    key line (delete it, duplicate it, rename its key to the unknown key w,
    insert w after it) and of a vertex line (repeat it) in both fixtures.

    A missing key is reported at the end of the top section, the line of the
    first block header, which a deleted top key moves up by one; or at the
    first line of its block, and the key lines of each block are contiguous,
    so deleting the first one moves the next one onto its line."""
    out = []
    for fixture, argv in (
        (SURFACE, ("check-map", "sigma")),
        (GRAPH, ("rigidity", "census", "sigma")),
    ):
        lines = Path(fixture).read_text().splitlines()
        headers = [i + 1 for i, line in enumerate(lines) if line.startswith("[")]
        block, first = "", None
        for i, line in enumerate(lines):
            lineno = i + 1
            if line.startswith("["):
                kind, name = line[1:-1].split(".")
                block, first = f"{kind} {name!r}", None
                continue
            tag = f"{Path(fixture).stem}:{lineno}"
            if line.startswith("vertex "):
                out.append((f"{tag}/repeat", argv, lines[: i + 1] + [line] + lines[i + 1 :],
                            f"line {lineno + 1}: duplicate vertex {line.split()[1]!r}"))
            if "=" not in line or line.startswith("#"):
                continue
            key, value = line.split("=", 1)
            key = key.strip()
            first = first or lineno
            unknown = f"{block}: unknown key 'w'" if block else "unknown key 'w'"
            missing = (
                f"line {first}: {block} is missing {key!r}" if block
                else f"line {headers[0] - 1}: missing {key!r}"
            )
            out += [
                (f"{tag}/delete", argv, lines[:i] + lines[i + 1 :], missing),
                (f"{tag}/duplicate", argv, lines[: i + 1] + [line] + lines[i + 1 :],
                 f"line {lineno + 1}: duplicate key {key!r}"),
                (f"{tag}/rename", argv, lines[:i] + [f"w ={value}"] + lines[i + 1 :],
                 f"line {lineno}: {unknown}"),
                (f"{tag}/insert", argv, lines[: i + 1] + ['w = "0"'] + lines[i + 1 :],
                 f"line {lineno + 1}: {unknown}"),
            ]
    return out


FIXTURE_EDITS = _fixture_edits()


@pytest.mark.parametrize("case", FIXTURE_EDITS, ids=[case[0] for case in FIXTURE_EDITS])
def test_each_key_and_vertex_edit_exits_2_with_its_line(capsys, tmp_path, case):
    _name, argv, lines, message = case
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_non_utf8_file_exits_2_with_line(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b'field_order = 16\nA = "t\xff"\nB = "0"\n')
    code, out, err = run_cli(capsys, "classify", str(path))
    _assert_input_error_at(code, err, 2)
    assert out == ""


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("classify", 'A = "t^3*(t^4-1)"', 'A = "(t+1)^3000"'),
        ("check-map", 'x = "z^6*x"', 'x = "(x+y)^100"'),
        ("classify", "field_order = 16", "field_order = 100000"),
        pytest.param(
            "classify",
            'A = "t^3*(t^4-1)"',
            'A = "' + "(" * 3000 + "t" + ")" * 3000 + '"',
            id="nested-parentheses",
        ),
    ],
)
def test_oversized_input_exits_2_with_line_before_expanding(capsys, tmp_path, command, old, new):
    path, line = _edit_fixture(tmp_path, SURFACE, old, new)
    argv = [command, path] + (["sigma"] if command == "check-map" else [])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    _assert_input_error_at(code, err, line)
    assert out == ""


@pytest.mark.parametrize(
    "expr", ["U", "U(2)", "E8", "D4", "U+D8+D4", "U(2)+E8+D4", "U(2)+A1+A1+A1", "U+A2+A2"]
)
def test_lattice_report_det_matches_elimination(capsys, expr):
    code, out, _ = run_cli(capsys, "lattice", "expr", expr, "--json")
    assert code == 0
    assert json.loads(out)["det"] == determinant(parse_lattice_expression(expr))


def test_lattice_report_det_of_a_degenerate_lattice_is_zero(capsys):
    # The fixture configuration has rank 14 on 20 curves.
    code, out, _ = run_cli(capsys, "lattice", "graph", GRAPH, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] < 20
    assert data["det"] == 0


def test_lattice_genus_equal(capsys):
    code, out, _ = run_cli(capsys, "lattice", "genus-equal", "U+D8+D4", "U(2)+E8+D4")
    assert code == 0
    assert out.strip() == "genus_equal = yes"
    code, out, _ = run_cli(capsys, "lattice", "genus-equal", "U", "U(2)")
    assert code == 0
    assert out.strip() == "genus_equal = no"


def test_lattice_genus_equal_requires_equal_rank(capsys):
    # E8+U(0) has the signature and discriminant form of E8, and rank 10.
    code, out, _ = run_cli(capsys, "lattice", "genus-equal", "E8", "E8+U(0)")
    assert code == 0
    assert out.strip() == "genus_equal = no"


def test_lattice_graph_report(capsys):
    code, out, _ = run_cli(capsys, "lattice", "graph", GRAPH)
    assert code == 0
    assert "rank = 14" in out
    assert "signature = (1, 13)" in out
    assert "invariant_factors = (2, 2, 2, 2)" in out


LATTICE_REPORTS = {
    "D8": [
        "rank = 8", "signature = (0, 8)", "det = 4", "invariant_factors = (2, 2)",
        "q(g1) = 0 mod 2", "q(g2) = 1 mod 2",
    ],
    "D6+D8": [
        "rank = 14", "signature = (0, 14)", "det = 16", "invariant_factors = (2, 2, 2, 2)",
        "q(g1) = 1/2 mod 2", "q(g2) = 1 mod 2", "q(g3) = 0 mod 2", "q(g4) = 1 mod 2",
    ],
    "A4+D6+E8+E8": [
        "rank = 26", "signature = (0, 26)", "det = 20", "invariant_factors = (2, 10)",
        "q(g1) = 1/2 mod 2", "q(g2) = 9/5 mod 2",
    ],
    "A2+E7+E8+A1": [
        "rank = 18", "signature = (0, 18)", "det = 12", "invariant_factors = (2, 6)",
        "q(g1) = 3/2 mod 2", "q(g2) = 4/3 mod 2",
    ],
}


def test_lattice_report_bytes_where_the_generators_show(capsys):
    # A q-value that is not an integer depends on which generators the two
    # Smith forms of discriminant_data pick; these reports pin that choice.
    for expr, lines in LATTICE_REPORTS.items():
        code, out, err = run_cli(capsys, "lattice", "expr", expr)
        assert (code, err) == (0, ""), expr
        assert out == "\n".join([f"lattice = {expr}", *lines]) + "\n", expr


def test_lattice_unknown_name_exits_2(capsys):
    code, _out, err = run_cli(capsys, "lattice", "expr", "Z9")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("expr, rank", [("D3000", 3000), ("A100000", 100000), ("A32+A33", 65)])
def test_lattice_over_the_rank_bound_exits_2_at_once(capsys, expr, rank):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lattice", "expr", expr)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"input error: lattice rank {rank} exceeds the bound 64\n"


def test_lattice_at_the_rank_bound_reports(capsys):
    code, out, _ = run_cli(capsys, "lattice", "expr", "A64")
    assert code == 0
    assert "rank = 64" in out
    assert "invariant_factors = (65)" in out


def test_lattice_graph_over_the_rank_bound_exits_2(capsys, tmp_path):
    path = tmp_path / "big_graph.txt"
    path.write_text("".join(f"vertex C{i}\n" for i in range(65)))
    code, out, err = run_cli(capsys, "lattice", "graph", str(path))
    assert (code, out) == (2, "")
    assert err == "input error: lattice rank 65 exceeds the bound 64\n"


def _isolated_curves_graph(tmp_path, isolated):
    # The edge w - v1 plus `isolated` curves meeting nothing: the group is
    # 2 * isolated!.
    lines = ["vertex w", "vertex v1", "edge w v1"]
    lines += [f"vertex v{i}" for i in range(2, isolated + 2)]
    path = tmp_path / f"isolated{isolated}.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_enumerate_over_the_automorphism_bound_exits_2_at_once(capsys, tmp_path):
    path = _isolated_curves_graph(tmp_path, 12)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rigidity", path, "enumerate", "--n", "2", "--c", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "input error: the graph has more than 20000 automorphisms\n"


def test_enumerate_refuses_the_symmetric_group_before_listing(capsys):
    # s0 meets a1 ... a8 and each a_i is tangent to b_i: the group is S8,
    # 40,320 automorphisms.  The stabiliser chain composes one transversal
    # element per orbit point besides the base point, 1 + 2 + ... + 7 = 28
    # permutations, before the order 8! exceeds the bound; listing the group
    # would compose at least 40,320.
    composed = 0

    def count_translations(_frame, event, arg):
        nonlocal composed
        if event == "c_call" and getattr(arg, "__qualname__", "") == "bytes.translate":
            composed += 1

    path = Path(__file__).with_name("eight_iii_graph.txt")
    sys.setprofile(count_translations)
    try:
        code, out, err = run_cli(capsys, "rigidity", str(path), "enumerate", "--n", "2", "--c", "1")
    finally:
        sys.setprofile(None)
    assert (code, out) == (2, "")
    assert err == "input error: the graph has more than 20000 automorphisms\n"
    assert composed == 28


def test_enumerate_below_the_automorphism_bound_runs(capsys, tmp_path):
    # 2 * 7! = 10,080 automorphisms.
    path = _isolated_curves_graph(tmp_path, 7)
    code, out, _ = run_cli(capsys, "rigidity", path, "enumerate", "--n", "2", "--c", "1")
    assert code == 0
    assert out.splitlines()[0] == "classes = 4"


@pytest.mark.parametrize(
    "n, message",
    [
        ("2", "vertex bound for enumeration is 64"),
        ("65", "order bound for enumeration is 64"),
        ("0", "order must be at least 1, got 0"),
    ],
)
def test_enumerate_over_the_vertex_bound_exits_2(capsys, tmp_path, n, message):
    # 65 isolated curves: the vertex bound is checked after the order and
    # before the automorphism group, which has 65! elements.
    path = tmp_path / "big_graph.txt"
    path.write_text("".join(f"vertex C{i}\n" for i in range(65)))
    code, out, err = run_cli(capsys, "rigidity", str(path), "enumerate", "--n", n, "--c", "1")
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(k3auto.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, k3auto.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


# Imports every k3auto module from the source tree named first, then runs the
# CLI on the remaining arguments.
STANDALONE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import k3auto
for module in pkgutil.iter_modules(k3auto.__path__):
    importlib.import_module("k3auto." + module.name)
from k3auto.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_cli_runs_on_the_standard_library_alone():
    # -I ignores PYTHONPATH and the user site, -S the site-packages: only the
    # standard library and the source tree are importable.
    src = str(Path(k3auto.__file__).resolve().parent.parent)
    argv = ["rigidity", GRAPH, "enumerate", "--n", "16", "--c", "1", "--filter", "10,1"]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STANDALONE, src, *argv],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "classes = 1" in proc.stdout.splitlines()


def test_a_closed_pipe_exits_141_with_nothing_on_stderr():
    # The read end of the pipe is closed before the child can have written,
    # so its one write always meets a closed pipe, unlike `| head`.
    src = str(Path(k3auto.__file__).resolve().parent.parent)
    for _ in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-m", "k3auto.cli", "rigidity", GRAPH, "census", "sigma"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (141, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-map", SURFACE, "nosuch"], f"no map named 'nosuch' in {SURFACE}"),
        (["rigidity", GRAPH, "census", "nosuch"], "no action named 'nosuch' in the graph file"),
        (["rigidity", GRAPH, "compose", "sigma", "inv(nosuch)"],
         "no action named 'nosuch' in the graph file"),
    ],
    ids=["check-map", "census", "compose"],
)
def test_unknown_names_from_the_command_line_carry_no_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_underdetermined_action_message_is_the_same_under_every_hash_seed(tmp_path):
    # Without the C6-C7 and a5-b5 edges, sigma leaves several stable curves
    # underdetermined; the message names the least of them, whatever order
    # the string hashes put a set of curve names in.
    text = fixture_path("order16_graph.txt").read_text(encoding="utf-8")
    path = tmp_path / "cut.txt"
    path.write_text(text.replace("edge C6 C7\n", "").replace("edge a5 b5 x2\n", ""))
    src = str(Path(k3auto.__file__).resolve().parent.parent)
    errors = set()
    for seed in ("0", "1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "k3auto.cli", "rigidity", str(path), "census", "sigma"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {
        "input error: line 60: action 'sigma': stable curve C7 is underdetermined"
        " after propagation\n"
    }


def test_json_outputs_are_stable(capsys):
    code, out1, _ = run_cli(capsys, "classify", SURFACE, "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "classify", SURFACE, "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["euler_total"] == 24
    assert data["is_k3"] is True
    assert [f["type"] for f in data["fibers"]] == ["III*", "III", "III"]

    code, out, _ = run_cli(capsys, "rigidity", GRAPH, "census", "sigma", "--json")
    data = json.loads(out)
    assert data["N"] == 10 and data["k"] == 1


def test_dot_export_byte_stable(capsys, tmp_path):
    d1 = tmp_path / "a.dot"
    d2 = tmp_path / "b.dot"
    run_cli(capsys, "rigidity", GRAPH, "census", "sigma", "--dot", str(d1))
    run_cli(capsys, "rigidity", GRAPH, "census", "sigma", "--dot", str(d2))
    b1 = d1.read_bytes()
    assert b1 == d2.read_bytes()
    assert b1.startswith(b"graph curves {")
    assert b'"C4" [style=filled fillcolor=grey];' in b1
