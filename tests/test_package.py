"""The package's public names.  Importing `invineq` loads only the core
layers; every name below still resolves through `from invineq import X`, is
listed by `dir(invineq)`, and is the object its module defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invineq

SRC = Path(__file__).resolve().parents[1] / "src"

# The names the package exported when it imported every module eagerly, by
# the module that exported them.
PUBLIC = {
    "exact": ("Rational", "bits_to_digits", "cbrt_bounds", "format_decimal", "pi_bounds",
              "pochhammer", "sqrt_bounds"),
    "polynomial": ("RatPoly", "poly_interpolate"),
    "matrices": ("PolyMatrix", "RatMatrix", "build_boundary", "build_legendre_hook",
                 "build_mass", "build_mass_1d", "build_parity_block", "build_pencil",
                 "build_stiffness", "build_stiffness_1d", "index_split", "kronecker",
                 "parity_permutation", "split_parity_blocks"),
    "charpoly": ("CharPoly", "char_coeff", "char_poly", "char_poly_by_summation",
                 "det_prefactor", "inverse_column", "recurrence_residual",
                 "verify_inverse_identity", "verify_recurrence"),
    "determinants": ("DetReport", "cauchy_matrix", "det_hook_pencil", "det_parity_block",
                     "det_poly", "det_rational", "verify_boundary", "verify_cauchy",
                     "verify_corollary_full", "verify_kron_factorization",
                     "verify_legendre_hooks", "verify_thm31"),
    "roots": ("Enclosure", "RootIsolationError", "root_offset_bounds"),
    "spectra": ("AsymptoticRow", "BoundReport", "FloatCrossReport", "MonotoneReport",
                "QuadraticSurd", "all_roots", "asymptotic_table", "bound_lower",
                "bound_report", "bound_upper", "bound_upper_radical",
                "boundary_factor_roots", "check_monotone", "comparison_check",
                "cubic_bound_poly", "float_eigen_crosscheck", "inverse_constant",
                "max_boundary_eigenvalue", "max_root", "smallest_root_of_index"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_resolves_to_its_module_object(module, name):
    namespace = {}
    exec(f"from invineq import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"invineq.{module}"), name)
    assert getattr(invineq, name) is namespace[name]
    assert name in dir(invineq)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        invineq.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from invineq import no_such_name", {})
    assert invineq.__version__ == "0.1.0"


def test_import_loads_the_core_and_resolves_the_rest_on_access():
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m[8:] for m in sys.modules if m.startswith('invineq.'))\n"
        "import invineq\n"
        "print(*loaded())\n"
        "from invineq import roots\n"
        "print(roots is sys.modules['invineq.roots'], *loaded())\n"
        "from invineq import bound_report\n"
        "print(bound_report.__module__, *loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "exact polynomial",
        "True exact polynomial records roots",
        "invineq.spectra charpoly exact hooks polynomial records roots spectra",
    ]


# The benchmark's tracer wraps these names from outside the package; it is
# read from its source, so this test imports none of it and writes nothing.
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "benchlib" / "spans.py"


def _tracer_targets() -> tuple[tuple[str, str, str], ...]:
    (targets,) = [node.value for node in ast.parse(SPANS.read_text()).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "TARGETS" for target in node.targets)]
    return ast.literal_eval(targets)


TARGETS = _tracer_targets()


@pytest.mark.parametrize("module, attr", [target[1:] for target in TARGETS],
                         ids=[f"{module}.{attr}" for _, module, attr in TARGETS])
def test_tracer_target_resolves(module, attr):
    # As the tracer reads it: a dotted name is an attribute of a class.
    owner_name, _, attr_name = attr.rpartition(".")
    found = importlib.import_module(module)
    if owner_name:
        found = vars(getattr(found, owner_name))[attr_name]
    else:
        found = getattr(found, attr_name)
    assert callable(found)


def test_spectra_reexports_the_boundary_results_of_determinants():
    from invineq import determinants, spectra

    assert spectra.max_boundary_eigenvalue is determinants.max_boundary_eigenvalue
    assert spectra.boundary_factor_roots is determinants.boundary_factor_roots
    with pytest.raises(AttributeError, match="no_such_name"):
        spectra.no_such_name  # noqa: B018


def _unused_sibling_imports(path: Path) -> list[str]:
    """The names `path` imports from a sibling module but never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


MODULES = sorted(path for path in (SRC / "invineq").glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_imports_a_sibling_name_it_never_uses(path):
    # A name kept importable from a module only so that a test can read it
    # there is a re-export shim: the test imports it where it is defined.
    assert _unused_sibling_imports(path) == []
