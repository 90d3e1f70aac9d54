"""Mutation fuzzing of the command line.

Each example edits one of the two bundled fixture files (drops, duplicates or
truncates lines, or puts a value from a fixed pool in place of one) and runs
one subcommand on it.  Lattice expressions, which come from argv, are drawn
from a pool of names.  Every run must end in exit 0, 1 or 2 within a second
with no exception escaping cli.main, and every input error must name its line
unless it comes from argv or from a bound on the whole input.
"""
import contextlib
import io
import re
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3auto.cli import main
from k3auto.fixtures import fixture_path, fixture_text

SURFACE_LINES = fixture_text("order16_surface.txt").splitlines()
GRAPH_LINES = fixture_text("order16_graph.txt").splitlines()

FILE = object()  # stands for the mutated file's path in an argv template
SURFACE_ARGVS = (
    ("classify", FILE),
    ("classify", FILE, "--json"),
    ("check-map", FILE, "sigma"),
    ("check-map", FILE, "sigma_alt", "--json"),
    ("check-map", FILE, "tau"),
)
GRAPH_ARGVS = (
    ("rigidity", FILE, "census", "sigma"),
    ("rigidity", FILE, "census", "tau", "--json"),
    ("rigidity", FILE, "power", "sigma", "2"),
    ("rigidity", FILE, "compose", "sigma", "inv(sigma_alt)"),
    ("rigidity", FILE, "enumerate", "--n", "16", "--c", "1", "--filter", "10,1"),
    ("lattice", "graph", FILE),
)

VALUES = (
    "1/0", "x/(t-t)", "t^2000", "abc", "1.5", "(a1 a1)", "0", "-1", "65", "",
    "z^17", "x*y", "y^2", "t^4", "t^9", "1/t", "(t+1", "(a1 a2", "(a1 b1)",
    "C4 @ C4:C8 = 3", "s0 @ s0:a1 = 4", "a1 b1 x2", "C1", "(" * 100 + "t" + ")" * 100,
)
LATTICES = (
    "U", "U(0)", "U(2)", "A1", "A2", "D4", "E6", "E8", "E9", "D2", "A0",
    "D3000", "U(-1)", "1/0", "abc", "",
)

# Input errors from a file run that carry no line: names and values from
# argv, bounds on the whole input (lattice rank, graph automorphisms), and a
# model that is not minimal at some place, which A and B make together.
LINE_FREE = re.compile(
    r"input error: (no (map|action) named "
    r"|order bound for enumeration"
    r"|lattice rank \d+ exceeds the bound"
    r"|the graph has more than \d+ automorphisms"
    r"|orders \(vA=\d+, vB=(\d+|inf)\) admit a twist down)"
)
NON_MINIMAL = "\n".join(SURFACE_LINES).replace('A = "t^3*(t^4-1)"', 'A = "t^4"')


def run(argv, from_file=True):
    """Exit code and stderr of one cli.main run, which must meet the contract.

    An input error names its line when the input came from a file, and never
    when it came from argv alone."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    elapsed = time.perf_counter() - start
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert elapsed < 1.0, (argv, elapsed)
    if code == 1:
        assert stderr.startswith("verification failed: "), stderr
    if code == 2:
        assert stderr.startswith("input error: "), stderr
        has_line = re.match(r"input error: line \d+: ", stderr)
        if from_file:
            assert has_line or LINE_FREE.match(stderr), stderr
        else:
            assert not has_line, stderr
    return code, stderr


@st.composite
def mutated(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "truncate", "value")))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            value = draw(st.sampled_from(VALUES))
            key, eq, _old = lines[i].partition("=")
            if eq:
                lines[i] = f'{key}= "{value}"'
            else:
                lines[i] = " ".join(lines[i].split()[:-1] + [value])
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(mutated(SURFACE_LINES), st.sampled_from(SURFACE_ARGVS)),
        st.tuples(mutated(GRAPH_LINES), st.sampled_from(GRAPH_ARGVS)),
    )
)
@example((NON_MINIMAL, ("classify", FILE)))
def test_cli_on_mutated_fixture_files(tmp_path_factory, case):
    text, template = case
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(text, encoding="utf-8")
    run([str(path) if part is FILE else part for part in template])


lattice_sums = st.lists(st.sampled_from(LATTICES), min_size=1, max_size=6).map("+".join)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_sums, lattice_sums)
@example("U(0)", "U")
@example("+".join(["D4"] * 6), "+".join(["D4"] * 6))
def test_cli_on_lattice_expressions(first, second):
    run(["lattice", "expr", first], from_file=False)
    run(["lattice", "genus-equal", first, second], from_file=False)


def test_enumeration_order_bound_is_line_free():
    graph = str(fixture_path("order16_graph.txt"))
    code, err = run(["rigidity", graph, "enumerate", "--n", "65", "--c", "1"])
    assert (code, err) == (2, "input error: order bound for enumeration is 64\n")
