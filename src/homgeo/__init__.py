"""Classification and curvature of reductive homogeneous spaces.

The package works from raw structure constants: build a Lie algebra,
split it into isotropy and tangent parts, put an invariant metric on
the tangent part, and interrogate the geometry: canonical connection
data, the structure tensor with its three-type decomposition, cyclic
and naturally reductive classification, curvature by several mutually
checking routes, and the constraint solver for cyclic block metrics.
"""

from .config import DEFAULT_SEED, DEFAULT_TOL
from .errors import (
    ConsistencyError,
    DegenerateKillingForm,
    DegeneratePlane,
    HomgeoError,
    IndexOutOfRange,
    InvalidMetric,
    JacobiViolation,
    NoWitness,
    NotADerivation,
    NotAutomorphism,
    NotCyclic,
    NotOrder3,
    NotReductive,
    ParamOutOfRange,
    ParseError,
    SlotSymmetryViolation,
    UnimodularInput,
    UnknownEntry,
    ValidationError,
)
from .lie import (
    Derivation,
    LieAlgebra,
    ad_matrix,
    build_lie_algebra,
    change_basis,
    derivation,
    from_tensor,
    killing_form,
    semidirect_sum,
    trace_vector,
    unimodular_kernel,
)
from .reductive import (
    FoliationData,
    Frame,
    InvariantMetric,
    ReductiveDecomposition,
    closedness_residual,
)
from .structure import (
    ClassificationReport,
    StructureTensor,
    TorsionTensor,
    TypeDecomposition,
    classify,
    cyclic_sum,
    decompose,
    structure_to_torsion,
    torsion_to_structure,
    trace_form,
)
from .curvature import (
    EinsteinReport,
    XiCurvatureReport,
    curvature_diagonal_general,
    curvature_tensor,
    cyclic_curvature_diagonal,
    einstein_check,
    ricci_routes,
    sectional_curvature,
    xi_curvatures,
)
from .spectrum import (
    BlockGrading,
    CyclicSolutionFamily,
    Order3Split,
    active_triples,
    cyclic_metric,
    flat_section_witness,
    grading_decomposition,
    solve_cyclic,
    theta_split,
)
from .catalog import CatalogEntry, ExpectedClass, build, default_entries, list_entries
from .io import load_algebra, load_grading, load_space, space_to_dict
from .verify import VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
