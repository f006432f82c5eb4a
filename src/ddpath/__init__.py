"""Decision-diagram quantum circuit simulation with pluggable simulation paths."""

from .circuit import (
    Circuit,
    Gate,
    GENERATORS,
    concat_inverse,
    decomposition_cost,
    deutsch_jozsa,
    entangled_qft,
    ghz,
    graph_state,
    invert,
    qft,
    transpile,
    w_state,
)
from .kernel import Edge, Kernel, root_equal
from .qasm import emit as emit_qasm, parse as parse_qasm
from .simpath import (
    RunStats,
    SimulationPath,
    alternating_path,
    execute,
    heuristic_path,
    sequential_path,
    validate,
    verify_equivalence,
)
from .tnbridge import (
    TensorNetworkDescription,
    export_tensor_network,
    greedy_plan,
    import_path,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "GENERATORS", "Kernel", "Edge", "root_equal",
    "ghz", "w_state", "graph_state", "deutsch_jozsa", "qft", "entangled_qft",
    "invert", "concat_inverse", "transpile", "decomposition_cost",
    "parse_qasm", "emit_qasm",
    "SimulationPath", "RunStats", "sequential_path", "alternating_path",
    "heuristic_path", "validate", "execute", "verify_equivalence",
    "TensorNetworkDescription", "export_tensor_network",
    "greedy_plan", "import_path",
]
