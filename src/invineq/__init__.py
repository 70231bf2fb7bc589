"""Exact-arithmetic eigenvalue bounds and determinant identities for
inverse inequalities on the reference square.

The package assembles the generalized eigenvalue problem behind the
inverse inequality on (-1,1)^2 in exact rational arithmetic, verifies the
closed-form determinant identities that factor it, and computes certified
enclosures for the maximal eigenvalues, their bounds, and their asymptotic
diagnostics.

Importing the package loads the core layers (exact scalars, polynomials).
The public names of `matrices`, `determinants`, `charpoly`, `roots` and
`spectra` are resolved on first access, which imports their module.
"""

from .exact import (
    Rational,
    bits_to_digits,
    cbrt_bounds,
    format_decimal,
    pi_bounds,
    pochhammer,
    sqrt_bounds,
)
from .polynomial import RatPoly, poly_interpolate

# The module of each public name that is imported on first access.
_LAZY = {
    **dict.fromkeys((
        "PolyMatrix",
        "RatMatrix",
        "build_boundary",
        "build_legendre_hook",
        "build_mass",
        "build_mass_1d",
        "build_parity_block",
        "build_pencil",
        "build_stiffness",
        "build_stiffness_1d",
        "index_split",
        "kronecker",
        "parity_permutation",
        "split_parity_blocks",
    ), "matrices"),
    **dict.fromkeys((
        "DetReport",
        "boundary_factor_roots",
        "cauchy_matrix",
        "det_hook_pencil",
        "det_parity_block",
        "det_poly",
        "det_rational",
        "max_boundary_eigenvalue",
        "verify_boundary",
        "verify_cauchy",
        "verify_corollary_full",
        "verify_kron_factorization",
        "verify_legendre_hooks",
        "verify_thm31",
    ), "determinants"),
    **dict.fromkeys((
        "CharPoly",
        "char_coeff",
        "char_poly",
        "char_poly_by_summation",
        "det_prefactor",
        "inverse_column",
        "recurrence_residual",
        "verify_inverse_identity",
        "verify_recurrence",
    ), "charpoly"),
    **dict.fromkeys(("Enclosure", "RootIsolationError", "root_offset_bounds"), "roots"),
    **dict.fromkeys((
        "AsymptoticRow",
        "BoundReport",
        "FloatCrossReport",
        "MonotoneReport",
        "QuadraticSurd",
        "all_roots",
        "asymptotic_table",
        "bound_lower",
        "bound_report",
        "bound_upper",
        "bound_upper_radical",
        "check_monotone",
        "comparison_check",
        "cubic_bound_poly",
        "float_eigen_crosscheck",
        "inverse_constant",
        "max_root",
        "smallest_root_of_index",
    ), "spectra"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
