"""Differential tests of `audit_balls` against the materializing audit
it replaced (`util.audit_balls_oracle`): the same items in the same
order, the same flags and the same pass flag, on girth-6 graphs whose
edge balls come from the degree identity and on (C4,C5)-free graphs
with triangles, whose edge balls are searched.
"""

import random

import pytest
from hypothesis import given, settings

from avec.bounds import audit_balls
from avec.generators import ChainSpec, chain, reiman
from avec.graph import line_graph
from test_cli import AUDIT_GRAPHS
from test_fuzz import FUZZ, c4c5_free_graphs
from util import audit_balls_oracle, shuffle_labels


def assert_matches_oracle(g):
    record = audit_balls(g)
    oracle = audit_balls_oracle(g)
    items = tuple(record.items)
    assert items == oracle.items
    # 42 == 42.0, so equal items could still spell differently.
    assert [tuple(map(type, it)) for it in items] == [tuple(map(type, it)) for it in oracle.items]
    assert record._replace(items=items) == oracle
    assert tuple(record.items) == items
    assert len(record.items) == len(items)
    return record


def _relabelled_chain(delta, ell, seed):
    return shuffle_labels(chain(ChainSpec(delta, ell)).graph, random.Random(seed))


CORPUS = {
    **{f"cli:{name}": build for name, build in AUDIT_GRAPHS.items()},
    **{f"reiman{q}": (lambda q=q: reiman(q).graph) for q in (2, 3, 4, 5, 7, 8, 9)},
    "chain3_8_relabelled": lambda: _relabelled_chain(3, 8, 1),
    "chain4_4_relabelled": lambda: _relabelled_chain(4, 4, 2),
    "chain6_2_relabelled": lambda: _relabelled_chain(6, 2, 3),
    # triangles: every edge ball is a search
    "line_reiman2": lambda: line_graph(reiman(2).graph)[0],
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_matches_oracle(name):
    assert_matches_oracle(CORPUS[name]())


def test_corpus_covers_both_edge_paths():
    classes = {audit_balls(build()).girth_class for build in CORPUS.values()}
    assert classes == {True, False}


@settings(FUZZ, max_examples=100)
@given(c4c5_free_graphs())
def test_fuzz_matches_oracle(g):
    assert_matches_oracle(g)
