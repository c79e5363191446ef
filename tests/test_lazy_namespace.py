"""The package registers its submodules unexecuted and runs each one on
the first read of one of its attributes, so that a command compiles only
the modules it calls.  Each check runs in a fresh interpreter (with -B,
so no bytecode is written), because what an import runs depends on what
ran before it in the same process.

A module that LazyLoader runs does not show in `python -X importtime`,
so the checks read module state instead: a registered module keeps the
lazy subclass of `types.ModuleType` until its first attribute read, and
`type()` reads no attribute.  Since an unrun module imports nothing,
`test_stdlib_only`'s check that importing the CLI loads no costly module
covers only the modules a verb runs; the verb runs here repeat it, and
together they run all six submodules and the two modules that `replay`
imports itself, `construct` and `certificate`."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avec
from avec import cli
from avec.replay import VARIANT_GIRTH6, VARIANT_MAXDEG
from test_stdlib_only import HEAVY

SRC = Path(avec.__file__).resolve().parent.parent
TRACER = SRC.parent / "perfbench" / "tracer.py"
SUBMODULES = ("bounds", "generators", "gf", "graph", "io", "replay")
#: Modules that only `avec.replay` imports, as plain imports: not
#: registered, so each is absent from sys.modules until it has run.
REPLAY_PARTS = ("certificate", "construct")

#: Loaded by the first Fraction, which no `gen` command builds.
EXACT = ("decimal", "fractions", "numbers")

#: Prints, as the last line of stdout, the submodules that have run, the
#: costly modules that are loaded, those of `EXACT` that are, and whether
#: `json` is (all read before `json` is imported).
EXECUTED = (
    "import sys, types\n"
    f"heavy = sorted(set({HEAVY!r}) & set(sys.modules))\n"
    f"exact = sorted(set({EXACT!r}) & set(sys.modules))\n"
    "loads_json = 'json' in sys.modules\n"
    f"ran = [s for s in {tuple(sorted(SUBMODULES + REPLAY_PARTS))!r}"
    " if type(sys.modules.get('avec.' + s)) is types.ModuleType]\n"
    "import json\n"
    "print(json.dumps({'ran': ran, 'heavy': heavy, 'exact': exact, 'json': loads_json}))\n"
)


def python(code, cwd):
    """Run `code` in a fresh interpreter; returns its last stdout line, parsed.

    -S: no site hook preloads anything (one may import `typing`)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("inputs")
    for name, args in (("r.el", ["reiman", "--q", "2"]),
                       ("c.el", ["chain", "--delta", "3", "--ell", "2"])):
        assert cli.main(["gen", *args, "--out", str(cwd / name)]) == 0
    return cwd


# ------------------------------------------------------------ what each verb runs

#: Each verb on a tiny input, and the submodules it must leave run (with
#: none of `HEAVY` loaded, and for `gen` and `--help` none of `EXACT`).
#: Only `replay` may load `REPLAY_PARTS`, and only the verbs that print
#: or write JSON, `WRITES_JSON`, may load `json`.
RUNS = {
    "analyze": (["analyze", "r.el"], ["bounds", "graph", "io"]),
    "analyze_csv": (["analyze", "r.el", "--csv"], ["bounds", "graph", "io"]),
    "audit": (["audit", "r.el"], ["bounds", "graph", "io"]),
    "gen_reiman": (["gen", "reiman", "--q", "2"], ["generators", "gf", "graph", "io"]),
    "gen_chain": (
        ["gen", "chain", "--delta", "3", "--ell", "2", "--head", "c.el", "--format", "graph6"],
        ["generators", "gf", "graph", "io"],
    ),
    "replay": (
        ["replay", "c.el", "--variant", "girth6", "--trace", "t.json"],
        ["bounds", "certificate", "construct", "graph", "io", "replay"],
    ),
    "sweep": (
        ["sweep", "--family", "chain", "--delta", "3", "--ell-range", "2..2", "--csv", "s.csv"],
        ["bounds", "generators", "gf", "graph"],
    ),
    "help": (["--help"], []),
}

#: The runs of `RUNS` that write JSON.  `gen` does only with `--out`.
WRITES_JSON = ("analyze", "audit", "replay")


@pytest.mark.parametrize("verb", sorted(RUNS))
def test_verb_runs_only_the_modules_it_calls(verb, inputs):
    argv, wanted = RUNS[verb]
    code = (
        "from avec.cli import main\n"
        "try:\n"
        f"    assert main({argv!r}) == 0\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    got = python(code + EXECUTED, inputs)
    assert (got["ran"], got["heavy"]) == (wanted, [])
    assert got["json"] == (verb in WRITES_JSON)
    if verb.startswith("gen") or verb == "help":
        assert got["exact"] == []


def test_cli_import_registers_every_traced_module(monkeypatch, tmp_path):
    # perfbench/tracer.py imports avec.cli and then reads
    # sys.modules["avec.<name>"] for every module it traces.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("avec_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    code = (
        "import json, sys\n"
        "import avec.cli\n"
        f"print(json.dumps([s for s in {sorted(tracer.TRACED)!r} if 'avec.' + s not in sys.modules]))\n"
    )
    assert python(code, tmp_path) == []
    unloaded = {"ran": [], "heavy": [], "exact": [], "json": False}
    assert python("import avec.cli\n" + EXECUTED, tmp_path) == unloaded


# ------------------------------------------------------------ namespace identity

#: The first import of a fresh interpreter.
ORDERS = {
    "replay_first": "import avec.replay",
    "graph_first": "import avec.graph",
    "cli_first": "import avec.cli",
    "star": "from avec import *",
}

#: Prints what is wrong with the namespace, as a list of strings.
IDENTITY = """
import importlib, json, sys, types
import avec
import avec.replay as R
from avec import replay as from_package

subs = {subs!r}
mods = {{s: importlib.import_module("avec." + s) for s in subs}}
wrong = [s for s in subs if mods[s] is not sys.modules["avec." + s]]
wrong += ["avec." + s for s in subs[:-1] if getattr(avec, s) is not mods[s]]
if not (avec.replay is R is from_package is mods["replay"].replay):
    wrong.append("avec.replay is not the function")
# A second copy of a module would show as an object that is not the one
# its defining module holds under its name.
for s in subs:
    for value in list(vars(mods[s]).values()):
        home = getattr(value, "__module__", None)
        if isinstance(value, (type, types.FunctionType)) and home in sys.modules:
            if getattr(sys.modules[home], value.__name__, None) is not value:
                wrong.append(f"avec.{{s}} holds a copy of {{home}}.{{value.__name__}}")
wrong += [n for n in avec.__all__ if n in globals() and globals()[n] is not getattr(avec, n)]
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_one_module_object_per_submodule(order, tmp_path):
    assert SUBMODULES[-1] == "replay"
    code = ORDERS[order] + "\n" + IDENTITY.format(subs=SUBMODULES)
    assert python(code, tmp_path) == []


def test_star_import_binds_every_public_name(tmp_path):
    code = "import json\nfrom avec import *\nimport avec\n"
    code += "print(json.dumps([n for n in avec.__all__ if n not in globals()]))\n"
    assert python(code, tmp_path) == []


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(avec, "no_such_name")
    assert set(avec.__all__) <= set(dir(avec))


def test_parser_variant_choices_are_the_replay_variants():
    options = cli.VERBS["replay"][3]
    assert options["--variant"][0] == (VARIANT_GIRTH6, VARIANT_MAXDEG)
