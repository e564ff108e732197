"""Weakly equilibrium Cantor-type sets: construction, extension operators,
Hausdorff contents and Markov factors."""

__version__ = "0.1.0"

from .logreal import LogReal
from .gamma import (GammaModel, Profile, build_model, classify_ep,
                    condition_diagnostics, profile)
from .geometry import (BasicInterval, CantorTree, NodeSet, build_tree,
                       select_nodes, verify_geometry)
from .bump import BumpSpec, bump_for_interval
from .extension import (ExtensionOperator, Schedule, divided_differences,
                        dn_experiment, schedule_for)

#: the numpy side's submodules and re-exports, each by the submodule that
#: defines it: they load on first use, so the extension operator alone never
#: imports numpy
_LAZY = {
    **dict.fromkeys(("dimension", "EtaProfile", "LogPower"), "dimension"),
    **dict.fromkeys(("hausdorff", "ContentResult", "DensityTable",
                     "FloatAtoms", "IslandFamily", "TreeAtoms",
                     "compare_dimension_functions", "content_dp",
                     "density_scan_islands", "density_scan_tree",
                     "ep_root_test", "lambda_level_estimate"), "hausdorff"),
    **dict.fromkeys(("markov", "MarkovEstimate", "markov_bounds",
                     "markov_numeric", "ratio_table"), "markov"),
}


def __getattr__(name):
    from importlib import import_module
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
