"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Expensive artifacts (generated families, replay traces) are
built once and shared across criteria through module-level caches.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import networkx as nx

import avec
from avec.bounds import (
    BOUND_G6,
    audit_balls,
    path_avec,
    sharpness_lower,
    structural_constants,
    upper_bound,
)
from avec.generators import ChainSpec, chain, reiman
from avec.gf import make_field
from avec.graph import (
    ball,
    build_graph,
    distances_from,
    eccentricity_profile,
    forbidden_cycle_scan,
    weighted_avec,
)
from avec.replay import replay
from util import (
    classic,
    edge_distance_oracle,
    is_bipartite,
    random_connected_graph,
    random_tree,
    to_nx,
    written_trace,
)

REIMAN_QS = (2, 3, 4, 5, 7, 8, 9)
CHAIN_PARAMS = tuple(product((3, 4, 5), (2, 4, 6, 8, 10)))
MAXDEG_ELLS = (2, 4, 6)
TOL = 1e-9

GIRTH6_CHECKS = (
    "spanning_tree_domination",
    "weight_concentration_shift",
    "matching_edge_weight_lower",
    "line_graph_transfer",
    "contraction_connected",
    "power_contraction_transfer",
    "contracted_path_bound",
    "final_bound",
)

MAXDEG_CHECKS = (
    "spanning_tree_domination",
    "weight_concentration_shift",
    "matching_edge_weight_lower",
    "anchor_edge_weight_lower",
    "line_graph_transfer",
    "contraction_connected",
    "power_contraction_transfer",
    "contracted_path_bound",
    "anchor_eccentricity_bound",
    "final_bound",
)

_CACHE = {}


def _reiman_all():
    if "reiman" not in _CACHE:
        t0 = time.monotonic()
        _CACHE["reiman"] = {q: reiman(q) for q in REIMAN_QS}
        _CACHE["reiman_gen_time"] = time.monotonic() - t0
    return _CACHE["reiman"]


def _chains_all():
    if "chains" not in _CACHE:
        t0 = time.monotonic()
        _CACHE["chains"] = {
            (d, ell): chain(ChainSpec(d, ell)) for d, ell in CHAIN_PARAMS
        }
        _CACHE["chain_gen_time"] = time.monotonic() - t0
    return _CACHE["chains"]


def _girth6_traces():
    # list of (graph, trace) pairs
    if "girth6_traces" not in _CACHE:
        pairs = []
        for lab in _chains_all().values():
            pairs.append((lab.graph, replay(lab.graph, "girth6")))
        for lab in _reiman_all().values():
            pairs.append((lab.graph, replay(lab.graph, "girth6")))
        _CACHE["girth6_traces"] = pairs
    return _CACHE["girth6_traces"]


def _maxdeg_traces():
    if "maxdeg_traces" not in _CACHE:
        head = reiman(4)
        pairs = []
        for ell in MAXDEG_ELLS:
            g = chain(ChainSpec(3, ell, head)).graph
            top = g.max_degree()
            anchor = min(v for v in range(g.n) if g.degree(v) == top)
            pairs.append((g, replay(g, "maxdeg", anchor)))
        _CACHE["maxdeg_traces"] = pairs
    return _CACHE["maxdeg_traces"]


def _verdict(number, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_incidence_generator():
    def body():
        t0 = time.monotonic()
        labs = _reiman_all()
        for q in REIMAN_QS:
            g = labs[q].graph
            assert g.n == 2 * (q * q + q + 1)
            assert g.min_degree() == g.max_degree() == q + 1
            assert is_bipartite(g)
            assert not forbidden_cycle_scan(g).has_c4
            assert nx.girth(to_nx(g)) == 6
            assert eccentricity_profile(g).diameter == 3
        elapsed = _CACHE["reiman_gen_time"] + (time.monotonic() - t0)
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"

    _verdict(1, "incidence generator", body)


def test_criterion_2_chain_sandwich():
    def body():
        t0 = time.monotonic()
        labs = _chains_all()
        for (delta, ell), lab in labs.items():
            g = lab.graph
            ds = structural_constants(delta).delta_star
            assert g.n == ell * ds
            assert g.min_degree() == delta
            assert nx.girth(to_nx(g)) >= 6
            profile = eccentricity_profile(g)
            assert profile.diameter == 6 * ell - 5
            lower = sharpness_lower(g.n, delta)
            upper = upper_bound(BOUND_G6, g.n, delta)
            assert isinstance(lower, Fraction) and isinstance(upper, Fraction)
            assert lower <= profile.avec <= upper
        elapsed = _CACHE["chain_gen_time"] + (time.monotonic() - t0)
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"

    _verdict(2, "chain family sandwich", body)


def test_criterion_3_deleted_edge_diameter():
    def body():
        for q in (2, 3, 4):
            lab = _reiman_all()[q]
            g = lab.graph
            e = (lab.designated["u"], lab.designated["v"])
            assert g.has_edge(*e)
            h = build_graph(g.n, [f for f in g.edges() if f != e])
            assert eccentricity_profile(h).diameter == 5

    _verdict(3, "deleted-edge diameter", body)


def test_criterion_4_replay_girth6():
    def body():
        pairs = _girth6_traces()
        assert len(pairs) == len(CHAIN_PARAMS) + len(REIMAN_QS)
        for g, tr in pairs:
            assert tr.overall_pass
            assert tuple(c.name for c in tr.checks) == GIRTH6_CHECKS
            assert all(c.passed for c in tr.checks)
            # matching invariants, exhaustively re-derived
            k = len(tr.matching.edges)
            pairwise = json.loads(written_trace(tr))["matching"]["pairwise_distances"]
            G = to_nx(g)
            for i, e in enumerate(tr.matching.edges):
                for j, f in enumerate(tr.matching.edges):
                    assert pairwise[i][j] == edge_distance_oracle(G, e, f)
                    if i != j:
                        assert pairwise[i][j] >= 5
            mverts = {v for e in tr.matching.edges for v in e}
            dist = distances_from(g, mverts)
            for u, v in g.edges():
                assert min(dist[u], dist[v]) <= 4
            balls = [ball(g, e, 2) for e in tr.matching.edges]
            for i in range(k):
                for j in range(i + 1, k):
                    assert not (balls[i] & balls[j])

    _verdict(4, "proof replay girth6", body)


def test_criterion_5_replay_maxdeg():
    def body():
        pairs = _maxdeg_traces()
        assert len(pairs) == len(MAXDEG_ELLS)
        for _, tr in pairs:
            assert tr.overall_pass
            assert tuple(c.name for c in tr.checks) == MAXDEG_CHECKS
            assert all(c.passed for c in tr.checks)
            by_name = {c.name: c for c in tr.checks}
            anchor_w = by_name["anchor_edge_weight_lower"]
            delta_star_max = dict(tr.values)["Delta_star"]
            assert anchor_w.lhs >= delta_star_max - TOL
            final = by_name["final_bound"]
            assert final.lhs <= final.rhs + TOL

    _verdict(5, "proof replay maxdeg", body)


def test_criterion_6_ball_audit():
    def body():
        graphs = [lab.graph for lab in _reiman_all().values()]
        graphs += [lab.graph for lab in _chains_all().values()]
        for g in graphs:
            record = audit_balls(g)
            assert record.passed
            for item in record.items:
                if item.check.startswith("edge_ball2"):
                    assert item.margin >= 0
        tight = audit_balls(_reiman_all()[2].graph)
        edge_items = [i for i in tight.items if i.check == "edge_ball2_girth6"]
        assert len(edge_items) == _reiman_all()[2].graph.m
        assert all(i.margin == 0 for i in edge_items)

    _verdict(6, "ball-size audit", body)


def test_criterion_7_path_exactness():
    def body():
        for n in range(1, 501):
            profile = eccentricity_profile(classic("path", n))
            assert profile.avec == Fraction((3 * n * n - 2 * n) // 4, n)
            assert profile.avec == path_avec(n)

    _verdict(7, "path exactness", body)


def test_criterion_8a_random_graphs():
    def body():
        rng = random.Random(80801)
        for _ in range(1000):
            n = rng.randint(1, 60)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            assert eccentricity_profile(g).avec <= path_avec(n)

    _verdict("8a", "random graphs below path bound", body)


def test_criterion_8b_weighted_trees():
    def body():
        rng = random.Random(80802)
        for _ in range(1000):
            n = rng.randint(1, 50)
            t = random_tree(rng, n)
            weights = [rng.randint(1, 4) for _ in range(n)]
            total = sum(weights)
            assert total <= 200
            assert weighted_avec(t, weights) <= path_avec(total)

    _verdict("8b", "weighted trees below path bound", body)


def test_criterion_8c_field_axioms():
    def body():
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
            f = make_field(q)
            add, mul = f.add, f.mul
            els = range(q)
            assert len(add) == len(mul) == q
            for a in els:
                assert set(add[a]) | set(mul[a]) <= set(els)
                assert add[a][0] == a and mul[a][1] == a
                # inverses: a row holding the identity
                assert 0 in add[a]
                if a:
                    assert 1 in mul[a]
                for b in els:
                    assert add[a][b] == add[b][a]
                    assert mul[a][b] == mul[b][a]
                    for c in els:
                        assert add[add[a][b]][c] == add[a][add[b][c]]
                        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

    _verdict("8c", "field axioms exhaustive", body)


def test_criterion_8d_displacement_and_contraction():
    def body():
        pairs = _girth6_traces() + _maxdeg_traces()
        assert pairs
        for _, tr in pairs:
            by_name = {c.name: c for c in tr.structural}
            assert by_name["line_displacement"].passed
            assert by_name["power_contraction"].passed

    _verdict("8d", "displacement and contraction inequalities", body)


def _run_cli(args, cwd):
    # The subprocess runs in cwd, so a relative PYTHONPATH would not
    # resolve there; point it at the directory holding this avec.
    src = os.path.dirname(os.path.dirname(os.path.abspath(avec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "avec", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_determinism(tmp_path):
    def body():
        cases = [
            (["gen", "reiman", "--q", "3", "--out", "r.g6", "--format", "graph6"],
             ["r.g6"]),
            (["gen", "chain", "--delta", "3", "--ell", "4", "--out", "c.el"],
             ["c.el"]),
            (["analyze", "c.el"], []),
            (["analyze", "c.el", "--csv"], []),
            (["replay", "c.el", "--variant", "girth6", "--trace", "t.json"],
             ["t.json"]),
            (["replay", "c.el", "--variant", "maxdeg", "--trace", "t2.json"],
             ["t2.json"]),
            (["sweep", "--family", "chain", "--delta", "3",
              "--ell-range", "2..6", "--csv", "s.csv"], ["s.csv"]),
        ]
        dirs = (tmp_path / "run1", tmp_path / "run2")
        outputs = ([], [])
        for d, sink in zip(dirs, outputs):
            d.mkdir()
            for args, files in cases:
                sink.append(_run_cli(args, d))
                for f in files:
                    sink.append((d / f).read_bytes())
        assert outputs[0] == outputs[1]

    _verdict(9, "byte-identical reruns", body)
