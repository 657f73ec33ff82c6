"""proxlat: finite proximity lattices, canonical extensions, and spectra."""

from .canext import (
    CanonicalExtension,
    ComparisonReport,
    ConceptLattice,
    ExtensionReport,
    Polarity,
    check_uniqueness,
    concept_lattice,
    galois_maps,
    pi_extension,
    pi_sigma_comparison,
    sigma_extension,
    verify_extension,
)
from .errors import ProxlatError
from .lattice import (
    FiniteLattice,
    LatticeMap,
    find_isomorphism,
    is_distributive,
    is_homomorphism,
    lattice_from_order,
    opposite,
)
from .morphext import (
    ExtendedMap,
    PreservationReport,
    check_preservation,
    compare_with_dual,
    extend_pi,
    extend_sigma,
)
from .proximity import (
    AxiomReport,
    MorphismReport,
    ProximityLattice,
    ProximityMorphism,
    RoundIdealLattice,
    RoundSubset,
    all_j_morphisms,
    all_proximity_morphisms,
    hom_as_morphism,
    ideal_lattice_hom,
    identity_morphism,
    increasing_presentation,
    morph_compose,
    order_proximity,
    proximity_lattice,
    proximity_morphism,
    round_ideal_lattice,
    round_subsets,
    transpose_to_hom,
    transpose_to_morphism,
    verify_axioms,
    verify_morphism,
)
from .relations import Relation, compose, order_relation, relation_from_pairs
from .spectra import (
    DualMap,
    DualityResult,
    FiniteSpace,
    SpectralCaseReport,
    SpectralProximitySpace,
    SpectrumResult,
    canext_via_duality,
    co_compact_dual,
    compsat_basis_presentation,
    dual_map,
    finite_space,
    karoubi_check,
    open_basis_presentation,
    pairs_presentation,
    prime_filter_between,
    prime_round_filters,
    retract_image,
    saturated_lattice,
    spectral_case_check,
    spectral_proximity_space,
    spectrum,
    spectrum_roundtrip,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
