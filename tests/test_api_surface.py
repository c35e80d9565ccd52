"""The library keeps only what its own modules, the CLI and the benchmark
call.  Reference checks that only tests read live in tests/oracles.py, and
thin views of a library call are gone in favour of that call; none of these
names may resolve on rigidkit, on any of its modules or on their classes.
No module of the library or of the tests imports a name it never reads,
and no library module draws random numbers."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import rigidkit

TEST_ONLY_NAMES = (
    "_a4_eval", "jet_along", "classify_flex", "_edge_m_jets", "principal_angles",
    "kernel_of_hessian_equals_K", "measure", "MeasurementVector", "first_order_rigid",
    "project_K", "min_energy_on_sphere", "faa_di_bruno_term", "_partition_multiplicities",
    "embed_config", "embed_tangent", "displacement", "corpus_items",
    "RigidityMatrix", "compose_series", "free_coords", "from_poly",
    "bb_minimize_on_sphere", "energy_gap_and_grad", "N_STARTS", "MULTISTART_ROUNDS", "N_FINALISTS",
    "FrameworkEnergyTarget",
)


def _namespaces():
    yield rigidkit
    for info in pkgutil.iter_modules(rigidkit.__path__):
        mod = importlib.import_module(f"rigidkit.{info.name}")
        yield mod
        yield from (obj for obj in vars(mod).values()
                    if isinstance(obj, type) and obj.__module__ == mod.__name__)


def _has(ns, name: str) -> bool:
    # a dataclass field without a default is no class attribute
    return hasattr(ns, name) or dataclasses.is_dataclass(ns) and name in {f.name for f in dataclasses.fields(ns)}


def test_test_only_names_stay_out_of_the_library():
    found = [f"{ns.__name__}.{name}" for ns in _namespaces() for name in TEST_ONLY_NAMES if _has(ns, name)]
    assert not found
    assert not set(TEST_ONLY_NAMES) & set(rigidkit.__all__)


def _unread_imports(path: Path) -> list[str]:
    """Names a module binds by import but never loads; `from __future__`
    imports bind no name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # an __init__.py imports to re-export, so it is exempt
    roots = (Path(rigidkit.__file__).parent, Path(__file__).parent)
    found = {str(path): names for root in roots for path in sorted(root.rglob("*.py"))
             if path.name != "__init__.py" and (names := _unread_imports(path))}
    assert not found


def _loaded_names(path: Path) -> set[str]:
    """Every name and attribute a file reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_has_a_library_or_benchmark_reader():
    # a public name only tests read belongs in tests/oracles.py
    package = Path(rigidkit.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    readers = [path for path in package.rglob("*.py") if path != package / "__init__.py"]
    read = set().union(*map(_loaded_names, readers + sorted(bench.glob("*.py"))))
    assert sorted(set(rigidkit.__all__) - read) == []


def _random_reads(path: Path) -> list[int]:
    """Lines of a file that import or read random or numpy.random."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name in ("random", "numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module in ("random", "numpy.random") or any(a.name == "random" for a in node.names)
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   or isinstance(node, ast.Name) and node.id == "random")
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_library_module_draws_random_numbers():
    # every verdict, fit and report is deterministic, and no option takes a seed
    package = Path(rigidkit.__file__).parent
    found = {path.name: lines for path in sorted(package.rglob("*.py")) if (lines := _random_reads(path))}
    assert not found


FIXED_TOLERANCE = (
    "fourth_derivative_test", "second_order_rigidity_test", "order2k_family_test",
    "kernel_decomposition", "pin", "pin_with_permutation", "find_pinnable_permutation",
    "affine_span_dimension",
)


def test_fixed_tolerances_are_module_constants():
    # nothing sets these tolerances, so each function reads its module's
    # constant; the ladder keeps its tol, which the CLI's --tol sets
    found = [name for name in FIXED_TOLERANCE if "tol" in inspect.signature(getattr(rigidkit, name)).parameters]
    assert not found
    assert "tol" in inspect.signature(rigidkit.solve_ladder).parameters
    assert "tol" in inspect.signature(rigidkit.rigidity_order).parameters


LAYOUT_ATTRIBUTES = {"_edge_columns", "_hessian_plan"}


def test_only_the_framework_and_the_rigidity_matrix_read_the_pinned_slot_column():
    # the free-coordinate layout (the endpoint column map, whose extra
    # column n_free stands for the pinned slots, and the Hessian's flat
    # targets built from it) is read in framework.py alone, where
    # rigidity_matrix assembles R; every other module goes through
    # edge_differences, sum_onto_free and sum_blocks_onto_free, and linear
    # takes R as a plain array
    package = Path(rigidkit.__file__).parent
    readers = {path.name for path in package.rglob("*.py") if LAYOUT_ATTRIBUTES & _loaded_names(path)}
    assert readers == {"framework.py"}
    assert not [name for name in ("edge_free_columns", "gradient_plan", "hessian_plan")
                if hasattr(rigidkit.PinnedFramework, name)]
    linear = ast.parse((package / "linear.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(linear) if isinstance(node, ast.ImportFrom) and node.module == "framework"]


def _sums_by_reduceat_or_add_at(path: Path) -> list[str]:
    """Lines of a module that call a ufunc's reduceat or np.add.at."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and (node.attr == "reduceat" or node.attr == "at"
                                                    and isinstance(node.value, ast.Attribute)
                                                    and node.value.attr == "add")]


def test_no_library_module_sums_by_reduceat_or_add_at():
    # every sum onto the free coordinates is one bincount through the
    # endpoint column map, which adds left to right in edge order;
    # reduceat's association is its own, and np.add.at is the tests'
    # left-to-right reference (tests/oracles.py)
    package = Path(rigidkit.__file__).parent
    assert not [line for path in sorted(package.rglob("*.py")) for line in _sums_by_reduceat_or_add_at(path)]


def test_no_library_function_imports():
    # the modules import each other at the top, in one direction (ladder
    # imports critpoint and energy, critpoint imports energy, and energy
    # neither), so no function defers an import to break a cycle
    package = Path(rigidkit.__file__).parent
    found = [f"{path.name}:{fn.name}" for path in sorted(package.rglob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn))]
    assert not found
