"""Byte-identity gate for `analyze` and `audit`: pinned SHA-256 digests
of the CLI stdout on dense and thin girth-6 graphs, a chain, and a
(C4,C5)-free graph with triangles.

The inputs cover both sides of every fast path under these commands:
reiman(16), whose eccentricities need the search after Takes-Kosters
bounding stalls, read from an edge list and from graph6; a thinned,
relabelled reiman(7), whose edge balls differ in size; chain(3,32),
which bounding resolves; chain(3,160), whose 2240 vertices are more
than `graph._LIST_LIMIT`, so each capped ball search keeps its
distances in a dict; and line_graph(reiman(2)), whose edge balls need a
search because it has triangles.

A change that is meant to keep these outputs identical must leave every
digest here as it is.
"""

import hashlib
import random

import pytest

from avec import cli
from avec.generators import ChainSpec, chain, reiman
from avec.graph import line_graph
from avec.io import write_graph

from util import relabel, thin


def _thinned_reiman7():
    g = reiman(7).graph
    rng = random.Random(7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(thin(g, rng, 60), perm)


INPUTS = {
    "reiman16": (lambda: reiman(16).graph, "edgelist"),
    "reiman16_g6": (lambda: reiman(16).graph, "graph6"),
    "reiman7_thinned": (_thinned_reiman7, "edgelist"),
    "chain3_32": (lambda: chain(ChainSpec(3, 32)).graph, "edgelist"),
    "chain3_160": (lambda: chain(ChainSpec(3, 160)).graph, "edgelist"),
    "line_reiman2": (lambda: line_graph(reiman(2).graph)[0], "edgelist"),
}

COMMANDS = {
    "analyze": ("analyze",),
    "analyze_csv": ("analyze", "--csv"),
    "audit": ("audit",),
}

#: (input, command) -> sha256 of the CLI stdout
DIGESTS = {
    ("chain3_160", "analyze"): "5e74b680526e21a9ae338def0260b2612b1f80f167685bd3f9f22749e1bc4355",
    ("chain3_160", "analyze_csv"): "df0fc9bcb7633c2a28bebb8c66a1501601d591cb8cf05987e3b62d03d0cdeaef",
    ("chain3_160", "audit"): "b49c857036c2cceb881bb49feb53ac2cddcb13beceea2c83af46dbf901896eea",
    ("chain3_32", "analyze"): "87b509a9650890a9495a911954b50510163f006196f0b531eac5e821c9027f94",
    ("chain3_32", "analyze_csv"): "edfaa0dbd6d7c2b4c631ecaaa4ea896f99d21a616bbd8cca8fcf753e6eadcfa1",
    ("chain3_32", "audit"): "53f03b33ec6014cb5a215d4fe6a7878730c22424d4f5e3037e5fb6f93a664a3a",
    ("line_reiman2", "analyze"): "9eb28c8c74ba07f76ebb4353410bc023d793b9240b170bdef2f0e31c06039c51",
    ("line_reiman2", "analyze_csv"): "9afa5dda5dd592410aba48df497ab9dda38007d4556a3ba98c75738a94b09a37",
    ("line_reiman2", "audit"): "85871c30f23bdb749d6b69bd5459367e019fe6c03ee7676e0c5414c1b82fd5df",
    ("reiman16", "analyze"): "748b467ff449aecc38956c5378a10c3096e3178167e37a3b1b2b7e2dbb2f2456",
    ("reiman16", "analyze_csv"): "e540646c876a834673e7bc94742a7d962a7c1953dcdc30878c13998e01e0806a",
    ("reiman16", "audit"): "69e85a00d18e82814b35fe0e688af8beeccad1974e7ff6309f7b4506330c924c",
    ("reiman16_g6", "analyze"): "748b467ff449aecc38956c5378a10c3096e3178167e37a3b1b2b7e2dbb2f2456",
    ("reiman16_g6", "analyze_csv"): "e540646c876a834673e7bc94742a7d962a7c1953dcdc30878c13998e01e0806a",
    ("reiman16_g6", "audit"): "69e85a00d18e82814b35fe0e688af8beeccad1974e7ff6309f7b4506330c924c",
    ("reiman7_thinned", "analyze"): "bc63336ea8580f3bcf8e9495dc35e24d6d66043948806bbd9b71a9c305041b2a",
    ("reiman7_thinned", "analyze_csv"): "51af47568627bb322ee9a7564e07c00cb7211fef596cefdcd5b86cc3950bd358",
    ("reiman7_thinned", "audit"): "e729a524cdc0703f71c9a2e3808b0a7b35cb131727408c710ca5e1afad58e1fa",
}


def stdout_digest(name, command, tmp_path, capsys):
    build, fmt = INPUTS[name]
    path = tmp_path / name
    write_graph(build(), path, fmt)
    verb, *flags = COMMANDS[command]
    capsys.readouterr()
    code = cli.main([verb, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return hashlib.sha256(captured.out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_stdout_pinned(name, command, tmp_path, capsys):
    assert stdout_digest(name, command, tmp_path, capsys) == DIGESTS[name, command]
