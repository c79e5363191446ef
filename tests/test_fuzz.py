"""Hostile-input fuzzing of the graph readers and of `avec analyze`,
and differential tests of the graph6 writer and of the audit writer.

Whatever the input, the readers may only raise `AvecError` subclasses,
and the CLI may only exit 0 or 2, with a one-line diagnostic on 2.
Strategies mix raw text with inputs that are almost well formed, so
that examples reach the checks behind the header and the body.
"""

import contextlib
import io as stdio

import pytest
from hypothesis import assume, given, settings, strategies as st

from avec import cli
from avec.bounds import audit_balls
from avec.errors import AvecError
from avec.generators import reiman
from avec.graph import Graph, build_graph, forbidden_cycle_scan, is_connected, line_graph
from avec.io import MAX_ORDER, format_edgelist, from_graph6, parse_edgelist, read_graph, to_graph6

from util import (
    audit_json_oracle,
    build_graph_oracle,
    from_graph6_oracle,
    parse_edgelist_oracle,
    read_graph_oracle,
    shuffle_labels,
    thin,
    to_graph6_oracle,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# Tokens near the edge-list grammar: small and negative ints, sizes past
# MAX_ORDER, non-ASCII digits that str.isdigit accepts, and junk.
TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=12).map(str),
    st.sampled_from([
        "", "#", "# c", "x", "1.5", "0x3", "+1", "-0", "1e3", "²", "٣",
        str(MAX_ORDER + 1), "9" * 30, "\x00", "\t",
    ]),
)
LINES = st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def near_edgelists(draw):
    """An edge list of up to 10 vertices, then zero or more defects.

    Half are clean: a random spanning tree plus chords, each edge in a
    random orientation, under a true header.  The rest draw endpoints
    from one past either end of 0..n-1 or 30 digits long, and may
    miscount m.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    if draw(st.booleans()):
        edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
        if n > 1:
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges |= {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=n)) if e[0] != e[1]}
        edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
        m = len(edges)
    else:
        ends = st.one_of(st.integers(min_value=-1, max_value=n), st.just(10**30 - 1))
        edges = draw(st.lists(st.tuples(ends, ends), max_size=8))
        m = len(edges) + draw(st.sampled_from([0, 0, 1, -1]))
    lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, draw(st.one_of(st.just("# comment"), st.just(""), LINES)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", " \n\n"]))


EDGELIST_TEXT = st.one_of(near_edgelists(), st.lists(LINES, max_size=8).map("\n".join), st.text())

# graph6 bytes run from 63 to 126; the alphabet reaches past both ends.
G6_CHARS = st.characters(min_codepoint=0, max_codepoint=130)


@st.composite
def near_graph6(draw):
    """A header for up to 62 vertices, or up to 120 in the four-byte
    form, and a body near the length it needs."""
    n = draw(st.integers(min_value=0, max_value=120))
    if n < 63 and draw(st.booleans()):
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    words = -(-n * (n - 1) // 2 // 6)
    size = max(0, words + draw(st.integers(min_value=-1, max_value=1)))
    body = draw(st.text(st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=size, max_size=size))
    prefix = draw(st.sampled_from(["", ">>graph6<<"]))
    return prefix + head + body


GRAPH6_TEXT = st.one_of(
    near_graph6(),
    st.text(G6_CHARS, max_size=20),
    st.text(G6_CHARS, max_size=12).map(lambda s: "~" + s),
    st.text(G6_CHARS, max_size=12).map(lambda s: "~~" + s),
)

FILE_BYTES = st.one_of(
    EDGELIST_TEXT.map(lambda s: s.encode("utf-8")),
    GRAPH6_TEXT.map(lambda s: s.encode("utf-8")),
    st.binary(max_size=40),
)


def _only_avec_errors(fn, arg):
    try:
        fn(arg)
    except AvecError:
        pass


def _outcome(fn, *args):
    """(n, adjacency, edges) of the graph fn(*args), or the type and
    message of the `AvecError` it raises.  The oracles return that
    triple themselves."""
    try:
        g = fn(*args)
    except AvecError as exc:
        return type(exc), str(exc)
    if isinstance(g, Graph):
        return g.n, g.adjacency, tuple(g.edges())
    return g


@st.composite
def pair_inputs(draw):
    """(n, pairs) for up to 12 vertices.  Half draw both ends in 0..n-1;
    the rest also draw -1, n and 30-digit ends.  Some pairs come again,
    as they were or reversed, and self loops come by chance."""
    n = draw(st.integers(min_value=0, max_value=12))
    inside = st.integers(min_value=0, max_value=n - 1) if n else st.nothing()
    outside = st.sampled_from([-1, n, 10**30 - 1, -(10**30)])
    ends = inside if n and draw(st.booleans()) else st.one_of(inside, outside)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n + 2))
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            pairs.append((v, u) if draw(st.booleans()) else (u, v))
    return n, draw(st.permutations(pairs))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.txt"


class TestReaders:
    @FUZZ
    @given(EDGELIST_TEXT)
    def test_parse_edgelist(self, text):
        _only_avec_errors(parse_edgelist, text)

    @FUZZ
    @given(GRAPH6_TEXT)
    def test_from_graph6(self, text):
        _only_avec_errors(from_graph6, text)

    @FUZZ
    @given(GRAPH6_TEXT)
    def test_from_graph6_matches_oracle(self, text):
        # The same graph, or the same error with the same message.
        assert _outcome(from_graph6, text) == _outcome(from_graph6_oracle, text)

    @FUZZ
    @given(FILE_BYTES)
    def test_read_graph(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        _only_avec_errors(read_graph, fuzz_file)

    @FUZZ
    @given(EDGELIST_TEXT)
    def test_parse_edgelist_matches_oracle(self, text):
        assert _outcome(parse_edgelist, text) == _outcome(parse_edgelist_oracle, text)

    @FUZZ
    @given(FILE_BYTES)
    def test_read_graph_matches_oracle(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        assert _outcome(read_graph, fuzz_file) == _outcome(read_graph_oracle, fuzz_file)

    @FUZZ
    @given(pair_inputs(), st.sampled_from([list, set, iter, lambda p: (e for e in p)]))
    def test_build_graph_matches_oracle(self, n_pairs, kind):
        # kind(pairs) is built once per call: a generator can be read once.
        n, pairs = n_pairs
        assert _outcome(build_graph, n, kind(pairs)) == _outcome(build_graph_oracle, n, kind(pairs))


class TestAnalyzeCli:
    @settings(FUZZ, max_examples=100)
    @given(FILE_BYTES)
    def test_exit_code_and_one_line(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", str(fuzz_file)])
        assert code in (0, 2), (data, out.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error:")
            assert len(err.getvalue().splitlines()) == 1


# Orders where the graph6 header changes form (62 -> 63) and where the
# body's padding takes each length it can: n(n - 1)/2 mod 6 is 0, 1, 3
# or 4, so the padding is 0, 5, 3 or 2 bits (n = 4, 2, 3, 5).
G6_ORDERS = (0, 1, 2, 3, 4, 5, 62, 63, 64)


def _padding(n):
    return -(n * (n - 1) // 2) % 6


@st.composite
def graphs(draw):
    """A graph on one of `G6_ORDERS` or up to 80 vertices: random edges,
    or the complement of random edges, so that dense bodies occur."""
    n = draw(st.one_of(st.sampled_from(G6_ORDERS), st.integers(min_value=0, max_value=80)))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=2 * n)) if e[0] != e[1]}
    if draw(st.booleans()):
        edges = {(u, v) for v in range(n) for u in range(v)} - edges
    return build_graph(n, edges)


class TestGraph6Writer:
    def test_orders_cover_every_padding(self):
        assert {_padding(n) for n in G6_ORDERS} == {_padding(n) for n in range(12)}

    @pytest.mark.parametrize("n", G6_ORDERS)
    def test_empty_and_complete(self, n):
        for edges in ((), [(u, v) for v in range(n) for u in range(v)]):
            g = build_graph(n, edges)
            assert to_graph6(g) == to_graph6_oracle(g)

    @FUZZ
    @given(graphs())
    def test_matches_oracle(self, g):
        text = to_graph6(g)
        assert text == to_graph6_oracle(g)
        assert from_graph6(text) == g


# Connected (C4,C5)-free graphs of minimum degree 3 or more; the line
# graph of reiman(2) has triangles, the others girth 6.
C4C5_FREE_BASES = (
    reiman(2).graph, reiman(3).graph, reiman(4).graph, line_graph(reiman(2).graph)[0],
)


@st.composite
def c4c5_free_graphs(draw):
    """A base graph, thinned at random down to minimum degree 3 at most,
    given up to three chords that keep it (C4,C5)-free, and relabelled."""
    rng = draw(st.randoms(use_true_random=False))
    g = draw(st.sampled_from(C4C5_FREE_BASES))
    g = thin(g, rng, rng.randrange(g.m // 3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        u, v = sorted(rng.sample(range(g.n), 2))
        chorded = build_graph(g.n, set(g.edges()) | {(u, v)})
        if forbidden_cycle_scan(chorded).class_c4c5free:
            g = chorded
    assume(is_connected(g))
    return shuffle_labels(g, rng)


class TestAuditWriter:
    @settings(FUZZ, max_examples=100)
    @given(c4c5_free_graphs())
    def test_cli_matches_oracle(self, fuzz_file, g):
        fuzz_file.write_text(format_edgelist(g))
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["audit", str(fuzz_file)])
        record = audit_balls(g)
        assert code == (0 if record.passed else 1)
        assert {type(x) for it in record.items for x in (it.bound, it.margin)} <= {int, float}
        assert out.getvalue() == audit_json_oracle(record)
