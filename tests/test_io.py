import random

import networkx as nx
import pytest

from avec.errors import InvalidArgument, InvalidEdge, InvalidVertex
from avec import io
from avec.generators import ChainSpec, chain, reiman
from avec.io import (
    MAX_ORDER,
    format_edgelist,
    from_graph6,
    parse_edgelist,
    read_graph,
    to_graph6,
    write_graph,
)
from util import classic, g6_order_oracle, random_connected_graph, to_nx, traced


class TestEdgelist:
    def test_frozen_text(self):
        assert format_edgelist(classic("path", 3)) == "3 2\n0 1\n1 2\n"

    def test_round_trip(self):
        rng = random.Random(20)
        for _ in range(20):
            n = rng.randint(1, 30)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            assert parse_edgelist(format_edgelist(g)) == g

    def test_comments_and_blanks(self):
        g = parse_edgelist("# a comment\n\n3 1\n\n# another\n0 2\n")
        assert g.n == 3 and tuple(g.edges()) == ((0, 2),)

    def test_errors(self):
        with pytest.raises(InvalidArgument):
            parse_edgelist("")
        with pytest.raises(InvalidArgument):
            parse_edgelist("3\n")
        with pytest.raises(InvalidArgument):
            parse_edgelist("a b\n")
        with pytest.raises(InvalidArgument):
            parse_edgelist("3 2\n0 1\n")
        with pytest.raises(InvalidArgument):
            parse_edgelist("3 1\n0 1 2\n")
        with pytest.raises(InvalidVertex):
            parse_edgelist("2 1\n0 5\n")
        with pytest.raises(InvalidEdge):
            parse_edgelist("2 1\n1 1\n")
        # The diagnostic order: the line count, then the first line that
        # is not two ints, then build_graph's first bad pair in input
        # order, then repeated or reversed edges.
        cases = {
            "count before all": (
                "3 3\n0 9\nx y\n", InvalidArgument, "header promises 3 edges, found 2"
            ),
            "bad line before an earlier bad pair": (
                "3 2\n0 9\nx y\n", InvalidArgument, "bad edge line 'x y'"
            ),
            "self loop first": ("3 2\n1 1\n0 9\n", InvalidEdge, "self loop at vertex 1"),
            "range first": ("3 2\n0 9\n1 1\n", InvalidVertex, "vertex 9 outside 0..2"),
            "bad pair before repeats": (
                "3 3\n0 1\n1 0\n0 9\n", InvalidVertex, "vertex 9 outside 0..2"
            ),
            "negative count": (
                "-1 0\n", InvalidArgument, "vertex count must be nonnegative, got -1"
            ),
        }
        for name, (text, error, message) in cases.items():
            with pytest.raises(error) as info:
                parse_edgelist(text)
            assert str(info.value) == message, name

    def test_repeated_or_reversed_edges_rejected(self):
        for text in ("3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n", "3 3\n0 1\n1 2\n2 1\n"):
            with pytest.raises(InvalidArgument, match="distinct"):
                parse_edgelist(text)
        # a reversed edge alone is still the same edge
        assert tuple(parse_edgelist("3 1\n2 0\n").edges()) == ((0, 2),)

    def test_order_above_limit_rejected_before_allocation(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError(f"build_graph called with n={n}")

        monkeypatch.setattr(io, "build_graph", refuse)
        with pytest.raises(InvalidArgument, match="MAX_ORDER"):
            parse_edgelist(f"{MAX_ORDER + 1} 0\n")

    def test_order_limit_is_the_graph_module_one(self):
        # The limit lives in avec.graph, which the generators share; the
        # name still resolves here.
        from avec import graph

        assert MAX_ORDER is graph.MAX_ORDER == 2**20


class TestGraph6:
    def test_matches_networkx_encoding(self):
        rng = random.Random(21)
        sizes = [1, 2, 5, 20, 61, 62, 63, 64, 100]
        for n in sizes:
            g = random_connected_graph(rng, n, rng.randint(0, n))
            ours = to_graph6(g)
            theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert ours == theirs
            assert from_graph6(ours) == g
            assert from_graph6(theirs) == g

    @pytest.mark.parametrize("n", [0, 62, 63, 258047, 258048, 2**36 - 1])
    def test_order_header_at_each_form_boundary(self, n):
        # The 4- and 8-character forms need graphs of gigabytes to reach
        # through to_graph6, so the header is spelt and read on its own.
        head = io._spell_order(n)
        assert head == "".join(map(chr, g6_order_oracle(n)))
        assert io._read_order(head + "?~") == (n, len(head))

    def test_order_header_too_large_or_truncated(self):
        with pytest.raises(InvalidArgument, match=r"^graph too large for graph6: n=68719476736$"):
            io._spell_order(2**36)
        for head in ("~", "~??", "~~", "~~?????"):
            with pytest.raises(InvalidArgument, match="truncated"):
                io._read_order(head)

    def test_header_tolerated(self):
        g = classic("cycle", 5)
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_errors(self):
        with pytest.raises(InvalidArgument):
            from_graph6("")
        with pytest.raises(InvalidArgument):
            from_graph6("\x1f")
        with pytest.raises(InvalidArgument):
            from_graph6("D")  # promises n=5, no body

    def test_trailing_bytes_rejected(self):
        for g in (classic("cycle", 5), classic("path", 1), classic("path", 64)):
            text = to_graph6(g)
            assert from_graph6(text) == g
            for extra in ("?", "~", "??"):
                with pytest.raises(InvalidArgument, match="past the n promised"):
                    from_graph6(text + extra)

    def test_nonzero_padding_rejected(self):
        # C5 has 10 adjacency bits in 2 words: the last 2 bits are padding.
        text = to_graph6(classic("cycle", 5))
        for bit in (1, 2):
            bad = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | bit))
            with pytest.raises(InvalidArgument, match="padding"):
                from_graph6(bad)
        # n = 4 has 6 bits, one full word and no padding
        assert from_graph6(to_graph6(classic("cycle", 4))) == classic("cycle", 4)


class TestFiles:
    def test_read_write_edgelist(self, tmp_path):
        g = classic("cycle", 6)
        path = tmp_path / "g.txt"
        write_graph(g, path, "edgelist")
        assert read_graph(path) == g

    def test_read_write_graph6(self, tmp_path):
        g = classic("cycle", 6)
        path = tmp_path / "g.g6"
        write_graph(g, path, "graph6")
        assert read_graph(path) == g

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidArgument):
            write_graph(classic("path", 2), tmp_path / "g", "dot")

    def test_read_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(InvalidArgument):
            read_graph(path)

    def test_graph6_on_two_lines_rejected(self, tmp_path):
        # from_graph6 rejects the whole text too: a line break is not a
        # graph6 character.
        path = tmp_path / "two.g6"
        one, other = to_graph6(classic("cycle", 5)), to_graph6(classic("path", 4))
        for text in (
            f"{one}\n{one}\n",
            f"{one}\n{other}",
            f"# two graphs\n{one}\n\n# and\n{other}\n",
            f">>graph6<<{one}\n>>graph6<<{other}\n",
            f"{one}\x1e{other}",  # str.splitlines breaks at \x1e
        ):
            path.write_text(text)
            with pytest.raises(InvalidArgument, match="more than one line") as err:
                read_graph(path)
            assert len(str(err.value).splitlines()) == 1

    def test_graph6_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text(f"# a comment\n\n{to_graph6(classic('cycle', 5))}\n\n# after\n")
        assert read_graph(path) == classic("cycle", 5)


class TestReadPeak:
    # `tracemalloc` counts bytes by object size, so the figures depend on
    # the interpreter, not on the machine.  The text is split a piece at
    # a time, the endpoints wait in one list of shared ints, and graph6
    # bits stream into build_graph.  An edge-list peak is held within 3%
    # of what this reader measured (456679 and 266367 bytes).  A graph6
    # peak is held within 10% of what this reader measured (218513 and
    # 907339 bytes); when the body was spelt in '0' and '1' characters,
    # six per graph6 digit, the two peaked at 330196 and 2110954 bytes.
    # What each read keeps is bounded by its measured size with the
    # adjacency alone.
    @pytest.mark.parametrize(
        "make, fmt, peak_bound, kept_bound",
        [
            (lambda: chain(ChainSpec(5, 48)).graph, "edgelist", 470_000, 233_000),
            (lambda: reiman(16).graph, "graph6", 240_000, 116_000),
            (lambda: chain(ChainSpec(3, 128)).graph, "graph6", 995_000, 186_000),
            (lambda: reiman(16).graph, "edgelist", 274_000, 116_000),
        ],
        ids=[
            "chain(5,48)-edgelist",
            "reiman(16)-graph6",
            "chain(3,128)-graph6",
            "reiman(16)-edgelist",
        ],
    )
    def test_read_peak_is_its_result(self, tmp_path, make, fmt, peak_bound, kept_bound):
        g = make()
        path = tmp_path / "g"
        write_graph(g, path, fmt)
        read, retained, peak = traced(read_graph, path)
        assert read == g
        assert retained <= kept_bound
        assert peak <= peak_bound

    def test_isolated_vertices_cost_their_slot(self, tmp_path):
        # n = MAX_ORDER with no edges keeps one adjacency slot per vertex,
        # 8 MB; an int object or a list per vertex would double the peak.
        path = tmp_path / "g"
        path.write_text(f"{MAX_ORDER} 0\n")
        read, retained, peak = traced(read_graph, path)
        assert (read.n, read.m) == (MAX_ORDER, 0)
        assert peak <= 2 * retained


def test_write_peak(tmp_path):
    # `tracemalloc` counts bytes by object size, so the figures depend on
    # the interpreter, not on the machine.  Writing chain(3, 1024) as an
    # edge list peaked at 1880215 bytes while the whole text was made
    # first; line by line into the file's buffer it measured 104159.
    g = chain(ChainSpec(3, 1024)).graph
    path = tmp_path / "g"
    _, _, peak = traced(write_graph, g, path)
    assert peak <= 500_000
    assert path.read_text() == format_edgelist(g)
