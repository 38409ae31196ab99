"""gpdcov: finite groupoids, covering projections and their Galois lattice."""

from .errors import NonFreeActionError, TheoremViolation
from .groups import (FiniteGroup, Subgroup, all_homomorphisms,
                     find_isomorphism, generating_set, is_isomorphic)
from .groupoid import (FiniteGroupoid, Partition, Star, ValidationReport,
                       VertexGroup, Violation, codiscrete_groupoid,
                       component_subgroupoid, components, disjoint_union,
                       generators, group_groupoid, is_connected, opposite,
                       partition, star, subgroupoid, trivial_groupoid,
                       validate, vertex_group)
from .covering import (Covering, CoveringFailure, EquivalencePair, Fiber,
                       FiberTransport, GroupoidMorphism, MonodromyAction,
                       all_morphisms, check_covering, compose_morphisms,
                       covering_morphisms, equivalent_coverings, fiber,
                       fiber_transport, find_covering_isomorphism,
                       find_groupoid_isomorphism, fold,
                       groupoid_isomorphisms, is_weak_equivalence,
                       lift_arrow, lift_morphism, monodromy,
                       pushforward_vertex, require_covering,
                       verified_covering)
from .transform import (CovGroup, NormalizerIso, cov_normalizer_iso,
                        covering_transformations, induced_f_sharp,
                        is_regular, principal_action_check)
from .construct import (GroupAction, OrbitGroupoid, QuotientComparison,
                        covering_from_subgroup, orbit_groupoid,
                        quotient_comparison, quotient_covering,
                        universal_cover)
from .classify import (CoveringClass, FiberedProduct, GaloisLattice,
                       PullbackCovering, PushoutResult, build_lattice,
                       classify_covering, fibered_product, meet_covering,
                       pullback_covering, pushout_covering)
from .topos import (AdjunctionWitness, ExponentialCovering, Omega, Presheaf,
                    SubobjectLattice, adjunction_check,
                    characteristic_morphism, classifies,
                    covering_to_presheaf, exponential,
                    group_action_on_exponential, is_monic, omega,
                    presheaf_to_covering, subobjects)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
