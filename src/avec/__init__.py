"""Exact eccentricity statistics, extremal graph generators, and
replayable certificates for average-eccentricity bounds.

The submodules are registered lazily: each one runs on the first read of
one of its attributes, so a command compiles only the modules it uses.
The public names below resolve through `__getattr__` on first use, and
`avec.replay` is the function, not the module.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors  # eager: small, and every command may raise its errors

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_HOME = {
    "BOUND_C4C5": "bounds",
    "BOUND_C4C5_MAX": "bounds",
    "BOUND_EQ1": "bounds",
    "BOUND_G6": "bounds",
    "BOUND_G6_MAX": "bounds",
    "BOUND_LOWER": "bounds",
    "BOUND_PATH": "bounds",
    "FLOAT_TOL": "bounds",
    "UNREACHABLE": "graph",
    "VARIANT_GIRTH6": "replay",
    "VARIANT_MAXDEG": "replay",
    "ChainSpec": "generators",
    "FiniteField": "gf",
    "Graph": "graph",
    "LabeledGraph": "generators",
    "analyze": "bounds",
    "audit_balls": "bounds",
    "ball": "graph",
    "build_graph": "graph",
    "build_matching": "replay",
    "build_tree": "replay",
    "chain": "generators",
    "compute_weights": "replay",
    "distances_from": "graph",
    "eccentricity_profile": "graph",
    "forbidden_cycle_scan": "graph",
    "format_edgelist": "io",
    "from_graph6": "io",
    "induced_subgraph": "graph",
    "is_connected": "graph",
    "line_graph": "graph",
    "make_field": "gf",
    "parse_edgelist": "io",
    "path_avec": "bounds",
    "power_graph": "graph",
    "read_graph": "io",
    "reiman": "generators",
    "replay": "replay",
    "sharpness_lower": "bounds",
    "structural_constants": "bounds",
    "to_graph6": "io",
    "trace_json": "replay",
    "upper_bound": "bounds",
    "weighted_avec": "graph",
    "write_graph": "io",
}

__all__ = list(_HOME)


def _register_lazily():
    """Put each submodule in sys.modules unexecuted (the importlib
    LazyLoader recipe) and bind it on the package, except `replay`,
    whose package attribute is the function."""
    for short in sorted(set(_HOME.values())):
        name = f"{__name__}.{short}"
        module = sys.modules.get(name)
        if module is None:
            spec = find_spec(name)
            spec.loader = LazyLoader(spec.loader)
            module = module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        if short != "replay":
            globals()[short] = module


_register_lazily()


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
