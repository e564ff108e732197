"""Weakly equilibrium Cantor-type sets: construction, extension operators,
Hausdorff contents and Markov factors."""

__version__ = "0.1.0"

from .logreal import LogReal
from .gamma import (GammaModel, Profile, build_model, classify_ep,
                    condition_diagnostics, profile)
from .geometry import (BasicInterval, CantorTree, NodeSet, build_tree, eval_P,
                       select_nodes, verify_geometry)
from .dimension import EtaProfile, LogPower, h_inverse
from .hausdorff import (ContentResult, DensityTable, FloatAtoms, IslandFamily,
                        TreeAtoms, compare_dimension_functions, content_dp,
                        density_scan_islands, density_scan_tree, ep_root_test,
                        lambda_level_estimate)
from .bump import BumpSpec, bump_for_interval
from .extension import (ExtensionOperator, JetSample, Schedule,
                        divided_differences, dn_experiment, polynomial_jet,
                        schedule_for, whitney_norm)
from .markov import (MarkovEstimate, markov_bounds, markov_numeric,
                     ratio_table)
