"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``.

The traced-run test runs every workload once at full size, so the file
takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import gauge
import run
from workloads import WORKLOADS, Input, permute_input, read_input

REFS = json.loads((run.HERE / "digests.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on the workload that exercises them.
EXERCISED = {
    "analyze-chain": (
        "cli.startup_s", "cli.gen.s", "cli.analyze.s", "cli.sweep.s",
        "io.read_graph.s", "io.parse_edgelist.s", "io.write_graph.s",
        "generators.chain.s", "generators.reiman.s", "gf.make_field.s",
        "graph.eccentricity_profile.s", "graph.eccentricity_profile.calls",
        "graph.eccentricity_profile.vertices", "graph.forbidden_cycle_scan.s",
        "graph.forbidden_cycle_scan.edges", "graph.build_graph.s", "bounds.analyze.self_s",
    ),
    "replay-chain": (
        "cli.replay.s", "graph.eccentricity_profile.s", "graph.distances_from.s",
        "graph.distances_from.calls", "graph.line_graph.s", "graph.line_graph.out_edges",
        "graph.power_graph.s", "graph.power_graph.out_edges", "graph.induced_subgraph.s",
        "graph.weighted_avec.s", "replay.build_matching.s", "replay.build_tree.s",
        "replay.compute_weights.s", "replay.trace_json.s", "replay.matching_size",
        "replay.replay.self_s",
    ),
    "reiman-dense": (
        "cli.audit.s", "io.from_graph6.s", "generators.reiman.s",
        "graph.forbidden_cycle_scan.s", "graph.ball.s", "graph.ball.calls",
        "graph.is_connected.s", "bounds.audit_balls.self_s", "bounds.audit_balls.items",
    ),
}


def test_every_layer_metric_is_exercised_somewhere():
    declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert declared == set().union(*EXERCISED.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run(tmp_path, name):
    names = [m["name"] for m in SPEC["per_layer"]]
    metrics, runners, _ = run.measure_layers(tmp_path, WORKLOADS[name], 3, 0, REFS, names)
    plain, traced = runners
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    # Byte-identical: every file in the work directories and every stdout.
    for side in ("", "-captures"):
        for f in (tmp_path / f"plain{side}").iterdir():
            assert f.read_bytes() == (tmp_path / f"traced{side}" / f.name).read_bytes(), f.name
    assert set(metrics) == set(names)
    for metric in EXERCISED[name] + ("trace.overhead_s",):
        assert metrics[metric] > 0, metric
    if name != "replay-chain":
        assert all(metrics[m] == 0 for m in names if m.startswith("replay."))


def _corrupt_csv(path):
    path.write_bytes(path.read_bytes().replace(b"true", b"fals", 1))


def _corrupt_trace(path):
    path.write_bytes(path.read_bytes().replace(b'"overall_pass": true', b'"overall_pass": false'))


@pytest.mark.parametrize(
    "workload, prefix, seed, corrupt",
    [
        ("analyze-chain", "sweep", 0, _corrupt_csv),
        ("replay-chain", "replay chain-4-16.el", 5, _corrupt_trace),
    ],
)
@pytest.mark.parametrize("corrupted", [False, True])
def test_corrupted_output_counts_as_failure(
    tmp_path, monkeypatch, workload, prefix, seed, corrupt, corrupted
):
    w = WORKLOADS[workload]
    runner = run.Runner(tmp_path / "plain", seed, REFS, w)
    runner.setup()
    cmd = next(c for c in w.timed if c.key.startswith(prefix))
    real_spawn = run.spawn

    def spawn_then_corrupt(argv, cwd, out, err):
        result = real_spawn(argv, cwd, out, err)
        corrupt(Path(cwd) / cmd.outputs[0])
        return result

    if corrupted:
        monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    before = runner.attempted
    runner.run(cmd)
    assert runner.attempted == before + 1
    assert runner.failed == (1 if corrupted else 0), runner.problems


def _analyze_json(tmp_path, graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "avec", "analyze", graph_file.name],
        cwd=tmp_path, env={"PYTHONPATH": str(run.SRC)}, capture_output=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "inp", [Input("reiman", (q,)) for q in (2, 3, 4)]
    + [Input("chain", p) for p in ((3, 2), (3, 6), (4, 4), (5, 2))]
    + [Input("reiman", (5,), "graph6")],
    ids=lambda i: i.name,
)
@pytest.mark.parametrize("seed", [0, 9])
def test_avec_numerator_matches_networkx(tmp_path, inp, seed):
    subprocess.run(
        [sys.executable, "-m", "avec", *inp.gen_args],
        cwd=tmp_path, env={"PYTHONPATH": str(run.SRC)}, capture_output=True, check=True,
    )
    assert permute_input(inp, tmp_path, seed) == []
    n, edges = read_input(inp, (tmp_path / inp.name).read_bytes())
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    ecc = nx.eccentricity(g)
    doc = _analyze_json(tmp_path, tmp_path / inp.name)
    assert doc["avec"] == {"num": sum(ecc.values()), "den": n}
    lo, hi = inp.ecc_sum_range()
    assert lo <= doc["avec"]["num"] <= hi
    if inp.family == "chain":
        assert max(ecc.values()) == 6 * inp.params[1] - 5
    else:
        assert set(ecc.values()) == {3}


def test_permutation_is_seeded(tmp_path):
    inp = Input("chain", (3, 4))
    subprocess.run(
        [sys.executable, "-m", "avec", *inp.gen_args],
        cwd=tmp_path, env={"PYTHONPATH": str(run.SRC)}, capture_output=True, check=True,
    )
    original = (tmp_path / inp.name).read_bytes()
    permute_input(inp, tmp_path, 0)
    assert (tmp_path / inp.name).read_bytes() == original
    outs = []
    for _ in range(2):
        (tmp_path / inp.name).write_bytes(original)
        permute_input(inp, tmp_path, 17)
        outs.append((tmp_path / inp.name).read_bytes())
    assert outs[0] == outs[1] != original


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = b"x" * (96 << 20)  # the spawning process is large
    rc, _, rss, _ = run.spawn(
        [sys.executable, "-c", "pass"], tmp_path, tmp_path / "out", tmp_path / "err"
    )
    assert rc == 0 and rss < 48, rss
    del ballast


def test_speed_gauge_scales_by_reference_time(monkeypatch):
    monkeypatch.setattr(gauge, "reference_sample", lambda: 2 * gauge.REFERENCE_S)
    g = gauge.SpeedGauge()
    g.tick()
    g.tick()  # within SAMPLE_EVERY_S of the first: no sample
    assert len(g.samples) == 1
    assert g.factor() == pytest.approx(0.5)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reiman-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
