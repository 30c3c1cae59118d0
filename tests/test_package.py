"""What ``import frontier`` exports, and what it loads."""

import ast
import json
import os
import subprocess
import sys

import frontier
from frontier import errors, estimators, graphs, harness, oracles, rng, samplers

_MODULES = (errors, graphs, rng, samplers, estimators, oracles, harness)

# the package's exports before they were built from the modules' __all__ lists
_EARLIER_EXPORTS = (
    "__version__",
    "BudgetError", "ConfigError", "GraphFormatError", "StationarityError",
    "UndefinedEstimateError", "Graph", "LabelStore", "VertexPartition", "build_graph",
    "connected_components", "degree_labels", "generate_barabasi_albert", "generate_joined_ba",
    "is_bipartite", "load_graph", "parse_edge_list", "parse_vertex_labels", "restrict_to_lcc",
    "write_edge_list", "RngStream", "DEFAULT_COST", "CostModel", "SampleTrace", "StartMode",
    "discard_burn_in", "distributed_fs", "frontier_sampling", "multiple_rw",
    "random_edge_sample", "random_vertex_sample", "read_trace_csv", "single_rw",
    "write_trace_csv", "AssortativityEstimate", "ClusteringEstimate", "DensityEstimate",
    "degree_density_from_edge_samples", "degree_density_from_vertex_samples",
    "estimate_assortativity", "estimate_degree_ccdf", "estimate_degree_density",
    "estimate_edge_label_density", "estimate_global_clustering", "estimate_group_densities",
    "estimate_vertex_label_density", "vertex_density_from_vertex_samples",
    "CharacteristicTruth", "PowerChain", "compute_truth", "enumerate_power_chain",
    "exact_assortativity", "exact_degree_ccdf", "exact_degree_density",
    "exact_edge_label_density", "exact_global_clustering", "exact_vertex_label_density",
    "power_chain_stationary", "stationary_occupancy_ratio", "stationary_subset_occupancy",
    "ErrorReport", "ExperimentConfig", "FinalEdgeDiagnostic", "MethodSpec", "OccupancyStudy",
    "TargetSpec", "cnmse", "convergence_diagnostic", "nmse", "occupancy_study",
    "resolve_budget", "run_monte_carlo", "theoretical_nmse_edge", "theoretical_nmse_vertex",
    "tv_distance",
)


def test_exports_are_the_modules_public_names_once_each():
    names = frontier.__all__
    assert len(names) == len(set(names))
    homes = {name: mod for mod in _MODULES for name in mod.__all__}
    assert sorted(names) == sorted(["__version__", *homes])
    for name, mod in homes.items():
        assert getattr(frontier, name) is getattr(mod, name), name


def test_exports_keep_every_earlier_name():
    assert len(_EARLIER_EXPORTS) == 75
    assert set(_EARLIER_EXPORTS) <= set(frontier.__all__)
    namespace: dict = {}
    exec("from frontier import *", namespace)
    assert set(_EARLIER_EXPORTS) - {"__version__"} <= set(namespace)


def test_importing_the_cli_loads_no_scipy_submodule():
    # the samplers, estimators and the CLI run on numpy alone; SciPy backs
    # only oracles that import it when called
    script = ("import json, sys\n"
              "import frontier.cli\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.startswith(('scipy.stats', 'scipy.sparse')))))\n")
    src = os.path.dirname(os.path.dirname(frontier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_private_function_has_a_caller_in_the_package():
    # a private helper that only tests call lives with the tests;
    # perfbench/tracer.py wraps _ccdf_from_density by name
    allowed = {"_ccdf_from_density"}
    src = os.path.dirname(frontier.__file__)
    defined, used = set(), set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            refs = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= refs - {own}  # a call from its own body is no caller
    assert sorted(defined - used - allowed) == []
