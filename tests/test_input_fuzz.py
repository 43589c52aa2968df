"""Fuzzing at the input boundary: any text ends in a Graph or a typed error,
and any argv ends in a documented exit code.

Edge-list text is drawn both as arbitrary strings and as lines built from
edge-list tokens (labels, the header, comments, labels over the vertex
ceiling), so the parser's later checks are reached too. Numbers stay
small or over the ceiling: a count at it, or a label just under it, would
build a real Graph of a million vertices. Likewise, orders for the
enumerating subcommands stay at most 9 or above every cap, so no run
enumerates a large order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree import enumeration, transforms
from kemtree.cli import main
from kemtree.errors import ParseError, ResourceLimitError
from kemtree.graphs import MAX_VERTICES

_FUZZ_MAIN = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["n", "#", "x", "1.5", "-0", str(MAX_VERTICES + 1), str(10**12)]),
    st.text(max_size=3),
)
_EDGE_LIST = st.lists(
    st.lists(_TOKENS, max_size=3).map(" ".join), max_size=12
).map("\n".join)
_TEXT = st.one_of(st.text(), _EDGE_LIST)


def _concat(parts):
    return [arg for part in parts for arg in part]


_ORDER = st.one_of(st.integers(-3, 9), st.sampled_from([17, 40, 10**9]))
_N = _ORDER.map(lambda n: [str(n)])
_D = st.integers(-2, 12).map(str)
_OPT_D = st.one_of(st.just([]), _D.map(lambda d: ["--d", d]))
_COMMAND = st.one_of(
    st.tuples(
        st.just(["extremal"]),
        _N,
        _OPT_D,
        st.sampled_from(["min", "max"]).map(lambda o: ["--objective", o]),
        st.sampled_from(["wiener", "kemeny"]).map(lambda m: ["--metric", m]),
    ),
    st.tuples(
        st.just(["mates"]),
        _N,
        st.sampled_from([[], ["--mode", "census"], ["--mode", "op1"]]),
    ),
    st.tuples(
        st.just(["maximal"]),
        _N,
        _D.map(lambda d: [d]),
        st.sampled_from([[], ["--check-theorem"]]),
    ),
    st.tuples(st.just(["enum"]), _N, _OPT_D),
).map(_concat)
_ARGV = st.tuples(
    st.sampled_from([[], ["--json"], ["--csv"]]),
    st.one_of(st.just([]), st.integers(-3, 9).map(lambda c: ["--cap", str(c)])),
    _COMMAND,
).map(_concat)


@settings(max_examples=150, deadline=None)
@given(_TEXT)
def test_parse_edge_list_returns_a_graph_or_a_typed_error(text):
    try:
        g = kt.parse_edge_list(text)
    except (ParseError, ResourceLimitError):
        return
    assert isinstance(g, kt.Graph) and 1 <= g.n <= MAX_VERTICES


@_FUZZ_MAIN
@given(st.one_of(_TEXT.map(str.encode), st.binary(max_size=40)))
def test_invariants_exits_0_2_or_3_without_traceback(capsys, tmp_path, data):
    f = tmp_path / "graph.txt"
    f.write_bytes(data)
    code = main(["invariants", str(f)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)


@_FUZZ_MAIN
@given(_ARGV)
def test_enumerating_subcommands_exit_0_to_3_without_traceback(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    assert (out != "") == (code == 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kt.tree_from_graph(None),
        lambda: kt.canonical_code([(0, 1)]),
        lambda: kt.omega_weights(None),
        lambda: transforms.decompose_path(None, 0, 1),
        lambda: transforms.covers(None, None),
        lambda: transforms.generate_mates_op1(5),
        lambda: transforms.maximal_elements([]),
        lambda: transforms.theorem_leaf_filter(None),
        lambda: kt.parse_edge_list(b"0 1"),
        lambda: enumeration.parse_census_line(None),
        lambda: kt.census_line(b"()", None),
        lambda: kt.census_line("x", ()),
        lambda: kt.census_line(b"()()", [(0,)]),
        lambda: kt.op1_delta_formula(None),
        lambda: kt.Graph(3, None),
        lambda: kt.Tree(3, 5),
        lambda: kt.tree_from_edges(2, object()),
        lambda: enumeration.enumerate_trees(5).where(5, None),
        lambda: enumeration.enumerate_trees(5).where(None, None),
    ],
)
def test_an_argument_of_the_wrong_kind_raises_a_typed_error(call):
    with pytest.raises(kt.KemtreeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: kt.all_pairs_distances(None),
        lambda: kt.compute_invariants(None),
        lambda: kt.kemeny_forest_route(None),
        lambda: kt.kemeny_edge_cut_route(None),
        lambda: kt.kemeny_wiener_route(None),
        lambda: kt.laplacian(None),
        lambda: kt.spanning_tree_count(None),
        lambda: kt.gutman_index(None, [[0]]),
        lambda: kt.wiener_distance_route(None),
        lambda: kt.kemeny_sparse_route(None),
    ],
)
def test_a_graph_function_given_no_graph_raises_a_typed_error(call):
    with pytest.raises(kt.KemtreeError):
        call()


_ORDER6 = enumeration.enumerate_trees(6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _ORDER6.where(lambda e: True, "x"),
        lambda: _ORDER6.where(lambda e: True, True),
        lambda: _ORDER6.where(lambda e: True, -1),
        lambda: _ORDER6.where(lambda e: True, 3),
        lambda: _ORDER6.where(lambda e: e.diameter >= 3, 3),
        lambda: transforms.maximal_elements(_ORDER6.where(lambda e: True, "x")),
        lambda: transforms.maximal_elements(_ORDER6.where(lambda e: True, 3)),
        lambda: transforms.theorem_leaf_filter(_ORDER6.where(lambda e: True, 3)),
    ],
)
def test_a_family_diameter_its_entries_lack_raises_input_error(call):
    # a family's diameter is None or the diameter of every entry it keeps,
    # so the scans that trust it never see a mixed family
    with pytest.raises(kt.InputError):
        call()


_PATH3 = kt.tree_from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _PATH3.path(-1, 2),
        lambda: _PATH3.path(0, 5),
        lambda: _PATH3.path(0, 1.0),
        lambda: _PATH3.rooted(-1),
        lambda: _PATH3.rooted(7),
        lambda: _PATH3.center_distance(-1),
        lambda: _PATH3.degree(-1),
        lambda: _PATH3.degree(3),
        lambda: _PATH3.has_edge(0, -1),
        lambda: _PATH3.has_edge(True, 1),
        lambda: kt.Graph(3, [(0, 1)]).degree(-1),
    ],
)
def test_a_bad_vertex_label_raises_input_error(call):
    # before the check, a negative label read from the end of a list and
    # answered wrongly, and a label out of range raised IndexError
    with pytest.raises(kt.InputError):
        call()


def _path3_distances_with(i, j, value):
    d = [list(row) for row in kt.all_pairs_distances(_PATH3)]
    d[i][j] = value
    return d


@pytest.mark.parametrize(
    "call",
    [
        lambda: kt.wiener_distance_route([[0, 1.5], [1.5, 0]]),
        lambda: kt.wiener_distance_route([[0, True], [True, 0]]),
        lambda: kt.wiener_distance_route("ab"),
        lambda: kt.wiener_distance_route([[0, 1], [1]]),
        lambda: kt.gutman_index(_PATH3, _path3_distances_with(0, 2, 2.0)),
        lambda: kt.gutman_index(_PATH3, [[0]]),
        lambda: kt.gutman_index(_PATH3, None),
    ],
)
def test_a_distance_matrix_of_non_ints_or_the_wrong_order_raises_input_error(call):
    # before the check, a float entry gave a float W or Gut (1.0, 6.0), and
    # a short matrix or None raised IndexError or TypeError
    with pytest.raises(kt.InputError):
        call()

