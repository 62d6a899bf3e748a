"""qshift: exact symbolic computation for BV quantisations of derived
critical loci, operator-identity verification, and vanishing-cycle
cohomology dimensions."""

from .coefficients import HSeries
from .cohomology import (koszul_dims_at_hbar_zero, milnor_number,
                         twisted_derham_dims)
from .derham import (DRWord, canonical_symplectic, check_chain_identity,
                     check_compatibility, cup, dr_d, dr_of, dr_total_d, mu, nu)
from .diffops import (Operator, Polyvector, op_commutator, op_compose,
                      op_order, schouten, symbol)
from .duality import is_self_dual, solve_sign_profile, star, transpose
from .gca import (CritLocus, Element, apply_koszul_delta, gmul,
                  make_crit_locus)
from .quantise import (Quantisation, TangentElement, Verdict,
                       bv_quantisation, centre_differential, filtration_dims,
                       koszul_operator, mc_residual, nu_eigen_analysis,
                       sigma_tangent)

__version__ = "0.1.0"
