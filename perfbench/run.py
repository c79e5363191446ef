"""avec benchmark: one workload, run as a closed loop of real CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's commands one at a time, each as its own
``python -m avec ...`` process, so a slower program receives less load.
Children get an absolute PYTHONPATH to this checkout's ``src`` and a
fresh work directory under ``.bench_work/``, so the benchmark runs from
any directory.  Children are started by ``launcher.py``, so that the
peak RSS reported for a child is its own.  Every command's exit code and
outputs are checked (see `workloads.check`).

--trace 0 measures the end-to-end metrics.  A round is one set-up
(``avec gen`` plus the seeded relabelling) followed by one pass over the
timed command list; rounds repeat while the next one is expected to end
within S seconds, at least MIN_ROUNDS times.  Set-ups are spread over
the run because the machine's speed drifts over seconds.  setup_s is
the median set-up; wall_s is the sum over commands of each command's
median time, and slowest_cmd_s the largest such median.  The machine's
speed also drifts over minutes, so these times are scaled by a
`gauge.SpeedGauge` factor measured over the same run.

--trace 1 alternates untraced passes with passes run under
``tracer.py`` and reports the per-layer metrics: each is the traced
set-up's total plus the median over traced passes.  Traced outputs must
be byte-identical to untraced ones.  ``trace.overhead_s`` is the time
the tracer spends on its own bookkeeping, measured inside each traced
process (see tracer.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat every metric
with its unit, and fail_ratio.
"""

import argparse
import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer
from gauge import SpeedGauge
from workloads import WORKLOADS, check, permute_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3


_launcher = None


def _stop_launcher():
    if _launcher is not None and _launcher.poll() is None:
        _launcher.stdin.close()
        _launcher.wait()


def spawn(argv, cwd, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB, start).

    The child is started by launcher.py, so that its peak RSS is its own.
    """
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        atexit.register(_stop_launcher)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    paths = [os.path.abspath(p) for p in (cwd, stdout_path, stderr_path)]
    _launcher.stdin.write(json.dumps([list(argv), paths[0], env, *paths[1:]]) + "\n")
    _launcher.stdin.flush()
    return tuple(json.loads(_launcher.stdout.readline()))


class Runner:
    """Runs and checks avec commands in one work directory.

    With `reference` set, commands run under the tracer and their
    outputs must equal the reference runner's latest outputs.
    """

    def __init__(self, workdir, seed, refs, workload, reference=None):
        self.workdir = Path(workdir)
        self.captures = self.workdir.parent / f"{self.workdir.name}-captures"
        self.workdir.mkdir()
        self.captures.mkdir()
        self.seed = seed
        self.refs = refs
        self.workload = workload
        self.inputs = {i.name: i for i in workload.inputs}
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latest = {}

    def fail(self, key, problems):
        self.failed += 1
        self.problems.extend(f"{key}: {p}" for p in problems)

    def run(self, cmd):
        """Run one command; returns (wall s, peak RSS MB, layer totals or None)."""
        self.attempted += 1
        tag = self.captures / str(self.attempted)
        if self.reference is None:
            argv = [sys.executable, "-m", "avec", *cmd.args]
        else:
            spans = tag.with_suffix(".spans")
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), tag.name, *cmd.args]
        out_path, err_path = tag.with_suffix(".out"), tag.with_suffix(".err")
        rc, wall, rss, start = spawn(argv, self.workdir, out_path, err_path)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        try:
            problems = check(cmd, rc, stdout, stderr, self.workdir, self.seed, self.refs, self.inputs)
            produced = (stdout,) + tuple((self.workdir / o).read_bytes() for o in cmd.outputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, produced = [f"unreadable output: {exc!r}"], None
        layers = None
        if self.reference is None:
            self.latest[cmd.key] = produced
        else:
            if produced != self.reference.latest.get(cmd.key):
                problems.append("traced outputs differ from untraced outputs")
            try:
                layers = tracer.layer_totals(json.loads(spans.read_text()), start)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable spans: {exc!r}")
        if problems:
            self.fail(cmd.key, problems)
        return wall, rss, layers

    def setup(self):
        """Generate and relabel the inputs; returns (gen wall s, layer totals)."""
        results = [self.run(cmd) for cmd in self.workload.setup]
        for inp in self.workload.inputs:
            problems = permute_input(inp, self.workdir, self.seed)
            if problems:
                self.fail(f"gen {inp.name}", problems)
        return sum(r[0] for r in results), _sum_layers(r[2] for r in results)

    def timed_pass(self):
        """One pass over the timed commands: per-command walls, RSS, layers."""
        results = [self.run(cmd) for cmd in self.workload.timed]
        return {
            "walls": [r[0] for r in results],
            "rss": [r[1] for r in results],
            "layers": _sum_layers(r[2] for r in results),
        }


def _sum_layers(parts):
    total = {}
    for part in parts:
        for key, value in (part or {}).items():
            total[key] = total.get(key, 0) + value
    return total


def _per_command_medians(passes, key):
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


def _loop(seconds, min_rounds, body):
    """Run body() while the next round is expected to end within `seconds`."""
    start, took = perf_counter(), []
    while len(took) < min_rounds or (
        perf_counter() - start + statistics.median(took) <= seconds
    ):
        t = perf_counter()
        body()
        took.append(perf_counter() - t)
    return len(took)


def measure_end_to_end(workdir, workload, seed, seconds, refs):
    runner = Runner(workdir / "plain", seed, refs, workload)
    gauge = SpeedGauge()
    setups, passes = [], []

    def one_round():
        gauge.tick()
        setups.append(runner.setup()[0])
        walls, rss = [], []
        for cmd in workload.timed:
            wall, peak, _ = runner.run(cmd)
            gauge.tick()
            walls.append(wall)
            rss.append(peak)
        passes.append({"walls": walls, "rss": rss})

    rounds = _loop(seconds, MIN_ROUNDS, one_round)
    walls = _per_command_medians(passes, "walls")
    factor = gauge.factor()
    metrics = {
        "wall_s": sum(walls) * factor,
        "slowest_cmd_s": max(walls) * factor,
        "peak_rss_mb": max(_per_command_medians(passes, "rss")),
        "setup_s": statistics.median(setups) * factor,
    }
    sums = " ".join(f"{sum(p['walls']):.3f}" for p in passes)
    notes = (
        f"medians over {rounds} rounds; times scaled by {factor:.4f}"
        f" (median of {len(gauge.samples)} gauge samples); unscaled pass sums {sums} s"
    )
    return metrics, [runner], notes


def measure_layers(workdir, workload, seed, seconds, refs, names):
    plain = Runner(workdir / "plain", seed, refs, workload)
    traced = Runner(workdir / "traced", seed, refs, workload, reference=plain)
    plain.setup()
    setup_layers = traced.setup()[1]
    plain_passes, traced_passes = [], []

    def pair():
        plain_passes.append(plain.timed_pass())
        traced_passes.append(traced.timed_pass())

    rounds = _loop(seconds, 1, pair)
    metrics = {
        name: setup_layers.get(name, 0)
        + statistics.median(p["layers"].get(name, 0) for p in traced_passes)
        for name in names
    }
    # Traced minus untraced wall, paired command by command, is shown for
    # comparison with trace.overhead_s; drift between passes can make it
    # negative, so it is not a metric.
    paired = statistics.median(
        t - u
        for tp, up in zip(traced_passes, plain_passes)
        for t, u in zip(tp["walls"], up["walls"])
    ) * len(workload.timed)
    notes = (
        f"set-up plus median of {rounds} traced passes; traced minus untraced wall,"
        f" median of paired commands times commands per pass: {paired:.3f} s"
    )
    return metrics, [plain, traced], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "avec" / "__init__.py").is_file():
        print(f"error: no avec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    refs = json.loads((HERE / "digests.json").read_text())
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.trace:
            names = [m["name"] for m in wanted]
            measured, runners, notes = measure_layers(
                workdir, workload, args.seed, args.seconds, refs, names
            )
        else:
            measured, runners, notes = measure_end_to_end(
                workdir, workload, args.seed, args.seconds, refs
            )
    finally:
        _stop_launcher()
        shutil.rmtree(workdir)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for problem in [p for r in runners for p in r.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload {workload.name}, seed {args.seed}: {notes}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {measured[m['name']]} {m['unit']}")
    print(f"fail_ratio {failed / attempted} ratio ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
