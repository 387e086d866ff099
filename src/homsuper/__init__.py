"""Exact-arithmetic computations with finite-dimensional Hom-Lie superalgebras:
axiom validation, structural invariants, factor sets and central extensions,
and isoclinism verification and decision."""

from .core import (EvenLinearMap, Failure, GradedSubspace, HomLieSuperalgebra,
                   SuperSpace, ValidationReport, abelian, center,
                   check_axioms, check_graded_skew, check_hom_jacobi,
                   check_homomorphism, check_multiplicative, check_parity,
                   check_regular, derived, direct_sum,
                   direct_sum_with_embeddings, is_hom_ideal, is_isomorphism,
                   is_stem, quotient, subalgebra_on)
from .errors import (FormatError, HomSuperError, PreconditionError,
                     SearchInconclusive)
from .factorset import (ComplementSplitting, Extension, FactorSet,
                        check_multiplicative_factor_set, extend,
                        factor_set_from_complement, validate_factor_set)
from .isoclinism import (DEFAULT_BUDGET, IsoclinismWitness, StemDecomposition,
                         central_quotient, derived_algebra, fingerprint,
                         identity_witness, iso_search, isoclinic_decide,
                         stem_decompose, verify_isoclinism,
                         witness_from_surjection)
from .linalg import GF, QQ, Field, Matrix, Subspace

__version__ = "0.1.0"
