"""crystalcalc: exact truncated p-adic cohomology computations over Z/p^N.

The package is organized bottom-up:

* ``ring``       -- the coefficient context Z/p^N with valuations.
* ``linalg``     -- Howell normal forms, kernels, subquotient invariants and
                    block matrix assembly.
* ``series``     -- truncated multivariate series with optional divided powers.
* ``simplicial`` -- the simplicial interval rings, their structure maps,
                    boundary restriction, regularity checks and fillers.
* ``smoothlift`` -- presentations of smooth algebras, Newton lifting,
                    homotopies and mapping-space fillers.
* ``derham``     -- divided-power de Rham complexes, the integration
                    contraction, the Poincare and base-change checks.
* ``localized``  -- Zariski localizations of the affine line and Cech
                    descent along a cover.
* ``crystal``    -- the simplicial de Rham double complex, totalization,
                    and comparison against direct de Rham cohomology.
* ``cli``        -- command line front end and report files.

All values are pure (immutable after construction) and every operation is a
deterministic function of its inputs, so results are safe to share across
threads and runs reproduce byte for byte.
"""

from .crystal import (
    CohomologyReport,
    DoubleComplex,
    compare_dr_cris,
    cris,
    known_values_check,
)
from .derham import (
    DeRhamComplex,
    base_change_check,
    graded_cells,
    poincare_check,
)
from .linalg import (
    ElementaryDivisors,
    HowellBasis,
    Matrix,
    complex_cohomology,
    kernel,
    subquotient,
)
from .localized import cech_descent_check
from .ring import ZpN
from .series import GeomVar, PDSeries, VarSpec, gamma_of_series, pd_substitute
from .simplicial import (
    LevelTower,
    SimplexMap,
    boundary_restriction,
    check_regular_sequence,
    fill_boundary,
    verify_boundary_kernel,
    verify_simplicial_identities,
)
from .smoothlift import (
    Homotopy,
    Morphism,
    Presentation,
    build_homotopy,
    catalog,
    fill_mapping_boundary,
    lift_algebra,
    lift_morphism,
)

__all__ = [
    "ZpN",
    "Matrix", "ElementaryDivisors", "HowellBasis", "kernel", "subquotient",
    "complex_cohomology",
    "GeomVar", "VarSpec", "PDSeries", "gamma_of_series", "pd_substitute",
    "SimplexMap", "LevelTower", "verify_simplicial_identities",
    "boundary_restriction", "verify_boundary_kernel", "check_regular_sequence",
    "fill_boundary",
    "Presentation", "Morphism", "Homotopy", "catalog", "lift_algebra",
    "lift_morphism", "build_homotopy", "fill_mapping_boundary",
    "DeRhamComplex", "graded_cells",
    "poincare_check", "base_change_check", "cech_descent_check",
    "DoubleComplex", "CohomologyReport",
    "cris", "compare_dr_cris", "known_values_check",
]

__version__ = "0.1.0"
