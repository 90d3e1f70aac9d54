import pytest

from k3auto.files import (
    InputError,
    load_graph_text,
    load_surface_text,
    parse_lattice_expression,
)
from k3auto.fixtures import fixture_text
from k3auto.lattice import signature
from test_lattice import determinant


def test_load_fixture_surface():
    model, maps = load_surface_text(fixture_text("order16_surface.txt"))
    assert model.A.degree_in("t") == 7
    assert model.B.is_zero()
    assert sorted(maps) == ["sigma", "sigma_alt", "tau"]


def test_load_fixture_graph():
    config, actions = load_graph_text(fixture_text("order16_graph.txt"))
    assert len(config.vertices) == 20
    assert sorted(actions) == ["sigma", "sigma_alt", "tau"]
    assert actions["sigma"].census().N == 10


def test_surface_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        load_surface_text("field_order = 16\nA = \"t^3*(t^4-1\"\nB = \"0\"\n")
    assert "line 2" in str(err.value)
    with pytest.raises(InputError):
        load_surface_text("A = \"t\"\nB = \"0\"\n")  # missing field_order
    with pytest.raises(InputError):
        load_surface_text("field_order = sixteen\nA = \"t\"\nB = \"0\"\n")


def test_graph_errors():
    with pytest.raises(InputError):
        load_graph_text("vertex A\nedge A B\n")  # unknown vertex B
    with pytest.raises(InputError):
        load_graph_text("vertex A\nvertex B\nedge A B x3\n")
    with pytest.raises(InputError):
        load_graph_text("flurb A\n")
    text = (
        "vertex A\nvertex B\nedge A B\n"
        "[action.bad]\nn = 16\nc = 1\nperm = (A B C)\nanchor = A @ A:B = 1\n"
    )
    with pytest.raises(InputError):
        load_graph_text(text)


def test_minimal_graph_action_roundtrip():
    text = (
        "vertex L\nvertex M\nvertex R\n"
        "edge L M\nedge M R\n"
        "[action.mid]\nn = 16\nc = 1\nperm = ()\nanchor = M @ L:M = 0\n"
    )
    config, actions = load_graph_text(text)
    act = actions["mid"]
    assert act.pointwise == frozenset({"M"})
    assert act.census().N == 2


def test_anchor_accepts_either_point_order():
    # s0:C1 in the file normalizes to the sorted point id C1:s0.
    text = fixture_text("order16_graph.txt")
    assert "anchor = s0 @ s0:C1 = 4" in text
    config, actions = load_graph_text(text)
    assert actions["sigma"].weights[("s0", "C1:s0")] == 4


def test_lattice_expression_parsing():
    G = parse_lattice_expression("U(2)+E8+D4")
    assert G.size == 14
    assert signature(G) == (1, 13)
    assert determinant(parse_lattice_expression("U")) == -1
    with pytest.raises(ValueError):
        parse_lattice_expression("U(2)++E8")
    with pytest.raises(ValueError):
        parse_lattice_expression("Q7")
