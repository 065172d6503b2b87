"""ringlattice: intermediate-ring lattices of finite commutative ring extensions."""

from .finring import (
    FiniteRing, RingError, SizeCapError, InconsistentRelationsError,
    zmod, gf, product_ring, idealization, quotient_by_relations,
    quotient_ring, quotient_of_subring, residue_field, maximal_ideals,
    primitive_idempotents, LocalFactorDecomposition, is_field,
    rings_isomorphic, resolve_relation, DEFAULT_SIZE_CAP,
)
from .extension import (
    Extension, TheoremViolation, MinimalType, CanonicalDecomposition,
    SupportProfile, ExtensionFlags,
    prime_subring, generated_subring, enumerate_interval,
    conductor, support_profile, quotient_extension, localize_at, fibers,
    classify_minimal, extension_flags, canonical_decomposition, splitter,
    is_pinched_at, complements,
)
from .lattice import ExtensionLattice, LatticeVerdict, LatticeError
from .dsl import parse_spec, pretty, build, build_extension, DslError, InstanceSpec
from .catalog import CATALOG, CatalogInstance, Expectation
from .verify import (
    CheckResult, Report, run_check, run_catalog,
    generate_random_instances, CHECKS,
)

__version__ = "0.1.0"
