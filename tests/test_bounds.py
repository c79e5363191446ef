import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from avec import bounds as B
from avec.errors import (
    DisconnectedGraph,
    InvalidArgument,
    MissingParameter,
    NotApplicable,
    OutOfRange,
)
from avec.generators import ChainSpec, chain, reiman
from avec.graph import ball, build_graph, eccentricity_profile, forbidden_cycle_scan, line_graph
from util import (
    audit_json_oracle,
    below_float_floor_oracle,
    classic,
    from_nx,
    le_oracle,
    margin_ok_oracle,
    shuffle_labels,
    thin,
    totals_agree_oracle,
    traced,
    violated_oracle,
)

import networkx as nx


RATIONALS = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**13),
)
FLOATS = st.floats(-1000, 1000)
NUMBERS = st.one_of(RATIONALS, FLOATS)
# Offsets on both sides of the 1e-9 tolerance, and one far inside it.
OFFSETS = st.sampled_from(
    tuple(Fraction(1, d) for d in (10**12, 2 * 10**9, 5 * 10**8, 10**6, 1)) + (0,)
)


@st.composite
def pairs(draw, first=NUMBERS):
    """(x, y): independent, or y = x + offset as a Fraction or a float."""
    x = draw(first)
    if draw(st.booleans()):
        return x, draw(NUMBERS)
    y = Fraction(x) + draw(st.sampled_from((1, -1))) * draw(OFFSETS)
    return x, draw(st.sampled_from((y, float(y))))


def off_boundary(x, y):
    """A float pair's gap is not within 1e-11 of the tolerance, where
    the old spellings' float rounding may decide differently."""
    if not (isinstance(x, float) or isinstance(y, float)):
        return True
    return abs(abs(Fraction(y) - Fraction(x)) - Fraction(B.FLOAT_TOL)) > Fraction(1, 10**11)


class TestAtMost:
    def test_fractions_compare_exactly(self):
        x = Fraction(1, 3)
        y = x + Fraction(1, 10**12)
        assert B.at_most(x, y) and not B.at_most(y, x)
        assert B.at_most(x, x)

    def test_ints_compare_exactly(self):
        assert B.at_most(3, 3) and B.at_most(-4, 3) and not B.at_most(4, 3)

    def test_floats_within_tolerance_pass(self):
        assert B.at_most(1.0 + 5e-10, 1.0)
        assert B.at_most(1.0, 1.0)
        assert B.at_most(1.0, 1.0 + 5e-10)

    def test_floats_beyond_tolerance_fail_one_way(self):
        # The tolerance sits on the right-hand side only.
        assert not B.at_most(1.0 + 2e-9, 1.0)
        assert B.at_most(1.0, 1.0 + 2e-9)
        assert B.at_most(1.0 - 2e-9, 1.0)

    def test_fraction_and_float(self):
        half = Fraction(1, 2)
        assert B.at_most(half + Fraction(1, 10**10), 0.5)
        assert not B.at_most(half + Fraction(1, 10**8), 0.5)
        assert B.at_most(0.5 + 5e-10, half)
        assert not B.at_most(0.5 + 2e-9, half)
        # Fraction against float is exact before the tolerance is added.
        assert B.at_most(Fraction(1, 3), 1 / 3)

    def test_int_and_float(self):
        assert B.at_most(3, 3.0 - 5e-10)
        assert not B.at_most(3, 3.0 - 2e-9)
        assert B.at_most(3.0 + 5e-10, 3)
        assert not B.at_most(3.0 + 2e-9, 3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs())
    def test_matches_the_old_spellings(self, pair):
        x, y = pair
        assume(off_boundary(x, y))
        assert B.at_most(x, y) == le_oracle(x, y)
        assert (not B.at_most(0, y - x)) == violated_oracle(y - x)
        assert (B.at_most(x, y) and B.at_most(y, x)) == totals_agree_oracle(x, y)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs(first=st.one_of(st.integers(-1000, 1000), FLOATS)))
    def test_matches_the_old_float_floor_and_margin(self, pair):
        # Audit margins are int or float; the weight floor is a float.
        x, y = pair
        assume(off_boundary(x, y))
        if isinstance(x, float) or isinstance(y, float):
            assert (not B.at_most(x, y)) == below_float_floor_oracle(y, x)
        if isinstance(y - x, (int, float)):
            assert B.at_most(0, y - x) == margin_ok_oracle(y - x)


class TestStructuralConstants:
    def test_frozen_star_values(self):
        assert B.structural_constants(3).delta_star == 14
        assert B.structural_constants(4).delta_star == 26
        assert B.structural_constants(5).delta_star == 42

    def test_frozen_circ_values(self):
        assert B.structural_constants(3).delta_circ == 10
        assert B.structural_constants(4).delta_circ == 17
        assert B.structural_constants(5).delta_circ == 32

    def test_max_degree_constants(self):
        sc = B.structural_constants(3, 4)
        assert sc.Delta_star == 17.5  # 12 + 2*sqrt(4) + 1.5, exact in floats
        assert sc.Delta_circ == 9.5  # 8 + sqrt(0) + 1.5
        sc = B.structural_constants(3, 6)
        assert sc.Delta_star == pytest.approx(19.5 + 2 * math.sqrt(6), abs=1e-12)

    def test_without_delta(self):
        sc = B.structural_constants(3)
        assert sc.Delta_star is None and sc.Delta_circ is None

    def test_validation(self):
        with pytest.raises(OutOfRange):
            B.structural_constants(2)
        with pytest.raises(OutOfRange):
            B.structural_constants(4, 3)


class TestPathAvec:
    def test_frozen(self):
        assert B.path_avec(1) == 0
        assert B.path_avec(2) == 1
        assert B.path_avec(3) == Fraction(5, 3)
        assert B.path_avec(4) == Fraction(5, 2)
        assert B.path_avec(500) == Fraction(187250, 500)

    def test_matches_direct_computation(self):
        for n in range(1, 81):
            assert B.path_avec(n) == eccentricity_profile(classic("path", n)).avec

    def test_validation(self):
        with pytest.raises(OutOfRange):
            B.path_avec(0)


class TestUpperBounds:
    def test_frozen_values(self):
        assert B.upper_bound(B.BOUND_G6, 14, 3) == Fraction(25, 2)
        assert B.upper_bound(B.BOUND_G6, 28, 3) == 17
        assert B.upper_bound(B.BOUND_EQ1, 28, 3) == Fraction(39, 2)
        assert B.upper_bound(B.BOUND_C4C5, 28, 3) == Fraction(9, 2) * 3 + 8
        assert B.upper_bound(B.BOUND_PATH, 4, 1) == Fraction(5, 2)
        assert B.upper_bound(B.BOUND_G6_MAX, 28, 3, 4) == 25.078125

    def test_types(self):
        assert isinstance(B.upper_bound(B.BOUND_G6, 28, 3), Fraction)
        assert isinstance(B.upper_bound(B.BOUND_G6_MAX, 28, 3, 4), float)

    def test_errors(self):
        with pytest.raises(MissingParameter):
            B.upper_bound(B.BOUND_G6_MAX, 28, 3)
        with pytest.raises(InvalidArgument):
            B.upper_bound("no_such_bound", 28, 3)
        with pytest.raises(OutOfRange):
            B.upper_bound(B.BOUND_G6, 0, 3)
        with pytest.raises(OutOfRange, match="delta must be nonnegative"):
            B.upper_bound(B.BOUND_G6, 10, -1)

    def test_sharpness_lower(self):
        assert B.sharpness_lower(28, 3) == 4
        assert B.sharpness_lower(0, 3) == -5
        with pytest.raises(OutOfRange, match="order must be nonnegative"):
            B.sharpness_lower(-1, 3)


class TestAuditBalls:
    def test_reiman2_tight(self, reiman2):
        record = B.audit_balls(reiman2.graph)
        assert record.passed
        assert record.delta == 3 and record.max_degree == 3
        assert record.girth_class and record.c4c5_class
        edge_items = [i for i in record.items if i.check == "edge_ball2_girth6"]
        assert len(edge_items) == reiman2.graph.m
        assert all(i.margin == 0 for i in edge_items)
        assert all(i.size == 14 and i.bound == 14 for i in edge_items)

    def test_chain_nonnegative(self, chain32):
        record = B.audit_balls(chain32.graph)
        assert record.passed
        assert all(i.margin >= 0 for i in record.items if isinstance(i.margin, int))

    def test_vertex_items_present(self, reiman2):
        record = B.audit_balls(reiman2.graph)
        kinds = {i.check for i in record.items}
        assert kinds == {
            "edge_ball2_girth6",
            "edge_ball2_c4c5",
            "vertex_ball3_girth6",
            "vertex_ball3_c4c5",
        }

    def test_k4_not_applicable(self):
        with pytest.raises(NotApplicable):
            B.audit_balls(classic("complete", 4))

    def test_petersen_not_applicable(self):
        with pytest.raises(NotApplicable):
            B.audit_balls(from_nx(nx.petersen_graph()))

    def test_low_degree(self):
        with pytest.raises(OutOfRange):
            B.audit_balls(classic("cycle", 7))

    def test_disconnected(self):
        g = build_graph(8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                        + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)])
        with pytest.raises(DisconnectedGraph):
            B.audit_balls(g)

    def test_negative_margin_flags_not_raises(self, reiman2, monkeypatch):
        # inflate the constants: margins go negative, flag flips, no raise
        real = B.structural_constants

        def inflated(delta, Delta=None):
            sc = real(delta, Delta)
            return B.StructuralConstants(
                delta=sc.delta,
                Delta=sc.Delta,
                delta_star=sc.delta_star + 1000,
                delta_circ=sc.delta_circ + 1000,
                Delta_star=None if sc.Delta_star is None else sc.Delta_star + 1000,
                Delta_circ=None if sc.Delta_circ is None else sc.Delta_circ + 1000,
            )

        monkeypatch.setattr(B, "structural_constants", inflated)
        record = B.audit_balls(reiman2.graph)
        assert not record.passed
        assert all(i.margin < 0 for i in record.items)

    def test_audit_json(self, reiman2):
        record = B.audit_balls(reiman2.graph)
        # The writer spells bounds and margins with json.dumps as they
        # are: ints for delta_star and delta_circ, floats for Delta_star
        # and Delta_circ, never a Fraction.
        assert {type(x) for it in record.items for x in (it.bound, it.margin)} == {int, float}
        out = io.StringIO()
        B.write_audit_json(record, out)
        assert out.getvalue() == audit_json_oracle(record)
        doc = json.loads(out.getvalue())
        assert doc["pass"] is True
        assert doc["items"][0]["check"] == "edge_ball2_girth6"
        assert doc["items"][0]["margin"] == 0

    def test_audit_json_writes_a_few_items_at_a_time(self):
        # Allocation sizes do not depend on the machine: the writer holds
        # a few items' text at a time, never the whole document.
        record = B.audit_balls(reiman(16).graph)
        assert len(record.items) == 10374

        class Sink:
            def __init__(self):
                self.sha = hashlib.sha256()
                self.longest = 0

            def write(self, text):
                self.sha.update(text.encode())
                self.longest = max(self.longest, len(text))

        sink = Sink()
        _, _, peak = traced(B.write_audit_json, record, sink)
        assert peak < 64 * 1024
        assert sink.longest <= 4096
        assert sink.sha.digest() == hashlib.sha256(audit_json_oracle(record).encode()).digest()

    def test_one_negative_margin_fails(self, reiman2, monkeypatch):
        # One vertex ball one short: only its girth-6 item goes negative.
        def short_at_5(g, sources, k):
            found = ball(g, sources, k)
            return found - {0} if tuple(sources) == (5,) else found

        monkeypatch.setattr(B, "ball", short_at_5)
        record = B.audit_balls(reiman2.graph)
        negative = [i for i in record.items if i.margin < 0]
        assert [(i.check, i.subject) for i in negative] == [("vertex_ball3_girth6", (5,))]
        assert len(record.items) == 70
        assert record.passed is False

    @pytest.mark.parametrize("excess, passed", [(B.FLOAT_TOL / 2, True), (2 * B.FLOAT_TOL, False)])
    def test_float_margin_within_tolerance(self, reiman2, monkeypatch, excess, passed):
        # Every vertex ball of reiman(2) has 14 vertices; Delta_star is
        # moved to 14 + excess, so each vertex margin is about -excess.
        real = B.structural_constants

        def moved(delta, Delta=None):
            return real(delta, Delta)._replace(Delta_star=14 + excess)

        monkeypatch.setattr(B, "structural_constants", moved)
        record = B.audit_balls(reiman2.graph)
        margins = {i.margin for i in record.items if i.check == "vertex_ball3_girth6"}
        assert len(margins) == 1 and isinstance(margins.pop(), float)
        assert record.passed is passed
        assert passed == all(margin_ok_oracle(i.margin) for i in record.items)


class TestAuditPeak:
    """The audit holds one size per edge and per maximum-degree vertex,
    never one object per item.  Each bound is the measured `tracemalloc`
    peak of the audit and its writer, rounded up; an audit that held
    every item peaked at 1,705,712 B on reiman(16) and 917,104 B on
    chain(3,128), more than twice each bound."""

    class Discard:
        def write(self, text):
            pass

    @pytest.mark.parametrize("build, limit", [
        (lambda: reiman(16).graph, 300_000),
        (lambda: chain(ChainSpec(3, 128)).graph, 180_000),
    ], ids=["reiman16", "chain3_128"])
    def test_peak(self, build, limit):
        g = build()

        def audit_and_write():
            B.write_audit_json(B.audit_balls(g), self.Discard())

        _, _, peak = traced(audit_and_write)
        assert peak <= limit


def _thinned(q, seed):
    g = reiman(q).graph
    rng = random.Random(seed)
    return shuffle_labels(thin(g, rng, rng.randrange(g.m // 4)), rng)


EDGE_BALL_GRAPHS = {
    **{f"thinned_reiman{q}_{seed}": (lambda q=q, seed=seed: _thinned(q, seed), True)
       for q in (3, 4, 5, 7) for seed in range(3)},
    **{f"chain3_{ell}": (lambda ell=ell: chain(ChainSpec(3, ell)).graph, True) for ell in (2, 4, 8)},
    "line_reiman2": (lambda: line_graph(reiman(2).graph)[0], False),
}


@pytest.fixture
def ball_calls(monkeypatch):
    """Sources of every `ball` call the audit makes."""
    calls = []

    def counting(g, sources, k):
        calls.append(tuple(sources))
        return ball(g, sources, k)

    monkeypatch.setattr(B, "ball", counting)
    return calls


class TestEdgeBallIdentity:
    @pytest.mark.parametrize("name", sorted(EDGE_BALL_GRAPHS))
    def test_sizes_match_ball(self, name, ball_calls):
        build, girth6 = EDGE_BALL_GRAPHS[name]
        g = build()
        assert g.min_degree() >= 3
        record = B.audit_balls(g)
        assert record.girth_class is girth6 and record.c4c5_class
        sizes = {i.subject: i.size for i in record.items if i.check == "edge_ball2_c4c5"}
        assert sizes == {e: len(ball(g, e, 2)) for e in g.edges()}
        if girth6:
            assert [i.size for i in record.items if i.check == "edge_ball2_girth6"] == [
                sizes[e] for e in g.edges()
            ]
        # Only the vertex balls search on a girth-6 graph; every edge
        # ball searches once triangles are allowed.
        top = g.max_degree()
        vertex_calls = [(v,) for v in range(g.n) if g.degree(v) == top]
        edge_calls = [] if girth6 else list(g.edges())
        assert ball_calls == edge_calls + vertex_calls

    def test_thinning_varies_the_sizes(self):
        # The identity is tested on unequal degrees, not only on the
        # regular reiman(q), where every edge ball is the whole graph.
        g = _thinned(5, 0)
        assert g.min_degree() == 3 and g.max_degree() == 6
        record = B.audit_balls(g)
        assert len({i.size for i in record.items if i.check == "edge_ball2_c4c5"}) > 3

    def test_identity_fails_with_triangles(self):
        # line_graph(reiman(2)) has minimum degree 4, triangles, no C4
        # and no C5: the degree identity is wrong on every edge.
        g = line_graph(reiman(2).graph)[0]
        scan = forbidden_cycle_scan(g)
        assert (g.min_degree(), scan.has_c3, scan.class_c4c5free) == (4, True, True)
        s = [sum(g.degree(a) - 1 for a in g.adjacency[x]) for x in range(g.n)]
        assert all(s[u] + s[v] + 2 != len(ball(g, (u, v), 2)) for u, v in g.edges())
        assert g.m == 42


class TestAnalyze:
    def test_reiman2_report(self, reiman2):
        r = B.analyze(reiman2.graph)
        assert (r.n, r.delta, r.max_degree) == (14, 3, 3)
        assert r.girth_class and r.c4c5_class
        assert r.ex_total == 42 and r.avec == 3
        assert r.violations == ()
        names = tuple(b.name for b in r.bounds)
        assert names == (
            B.BOUND_PATH,
            B.BOUND_EQ1,
            B.BOUND_G6,
            B.BOUND_C4C5,
            B.BOUND_G6_MAX,
            B.BOUND_C4C5_MAX,
            B.BOUND_LOWER,
        )
        by_name = {b.name: b for b in r.bounds}
        assert by_name[B.BOUND_G6].value == Fraction(25, 2)
        assert by_name[B.BOUND_G6].slack == Fraction(19, 2)
        assert by_name[B.BOUND_LOWER].applicable is False
        assert by_name[B.BOUND_LOWER].value is None

    def test_path_graph_report(self):
        # delta = 1: structural bounds inapplicable, path bound tight
        r = B.analyze(classic("path", 5))
        by_name = {b.name: b for b in r.bounds}
        assert by_name[B.BOUND_PATH].slack == 0
        assert by_name[B.BOUND_G6].value is None
        assert not by_name[B.BOUND_G6].applicable
        assert r.violations == ()

    def test_chain_params(self, chain32):
        r = B.analyze(chain32.graph, chain_params=(3, 2))
        assert r.family == "chain(delta=3)" and r.ell == 2
        by_name = {b.name: b for b in r.bounds}
        assert by_name[B.BOUND_LOWER].value == 4
        assert by_name[B.BOUND_LOWER].slack == r.avec - 4
        assert r.violations == ()

    def test_violation_is_reported(self):
        # A random cubic graph is no chain: its avec falls far below the
        # chain family's lower bound 9n/28 - 5 at n = 100.
        g = from_nx(nx.random_regular_graph(3, 100, seed=1))
        r = B.analyze(g, chain_params=(3, 2))
        assert r.violations == (B.BOUND_LOWER,)
        lower = {b.name: b for b in r.bounds}[B.BOUND_LOWER]
        assert lower.value == Fraction(190, 7) and lower.slack < 0
        assert B.report_json(r)["violations"] == [B.BOUND_LOWER]
        assert B.report_csv_row(r).endswith(",false")

    def test_chain_params_mismatch(self, chain32):
        with pytest.raises(InvalidArgument):
            B.analyze(chain32.graph, chain_params=(4, 2))

    def test_report_json_unreduced_avec(self, reiman2):
        doc = B.report_json(B.analyze(reiman2.graph))
        assert doc["avec"] == {"num": 42, "den": 14}
        assert doc["violations"] == []
        assert doc["bounds"][0]["name"] == B.BOUND_PATH
        assert isinstance(doc["notes"], list) and doc["notes"]

    def test_csv_row_frozen(self, chain32):
        r = B.analyze(chain32.graph, chain_params=(3, 2))
        assert B.CSV_HEADER.split(",")[0] == "n"
        assert B.report_csv_row(r) == (
            "28,3,4,2,166,28,4.0,17.0,11.071428571428571,1.9285714285714286,true"
        )

    def test_csv_row_no_family(self, reiman2):
        row = B.report_csv_row(B.analyze(reiman2.graph))
        cells = row.split(",")
        assert cells[3] == "" and cells[6] == ""
        assert cells[-1] == "true"
