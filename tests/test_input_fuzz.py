"""Fuzzing at the input boundary: any text ends in a Graph or a typed error.

Edge-list text is drawn both as arbitrary strings and as lines built from
edge-list tokens (labels, the header, comments, labels over the vertex
ceiling), so the parser's later checks are reached too. Numbers stay
small or over the ceiling: a count at it, or a label just under it, would
build a real Graph of a million vertices.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kemtree as kt
from kemtree.cli import main
from kemtree.errors import ParseError, ResourceLimitError
from kemtree.graphs import MAX_VERTICES

_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["n", "#", "x", "1.5", "-0", str(MAX_VERTICES + 1), str(10**12)]),
    st.text(max_size=3),
)
_EDGE_LIST = st.lists(
    st.lists(_TOKENS, max_size=3).map(" ".join), max_size=12
).map("\n".join)
_TEXT = st.one_of(st.text(), _EDGE_LIST)


@settings(max_examples=150, deadline=None)
@given(_TEXT)
def test_parse_edge_list_returns_a_graph_or_a_typed_error(text):
    try:
        g = kt.parse_edge_list(text)
    except (ParseError, ResourceLimitError):
        return
    assert isinstance(g, kt.Graph) and 1 <= g.n <= MAX_VERTICES


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(_TEXT.map(str.encode), st.binary(max_size=40)))
def test_invariants_exits_0_2_or_3_without_traceback(capsys, tmp_path, data):
    f = tmp_path / "graph.txt"
    f.write_bytes(data)
    code = main(["invariants", str(f)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert (out != "") == (code == 0)
