"""The windowed eigen check, for the tests only: the block of nu(omega, pi)
on every arity-p symbol monomial of y-degree <= ydeg_cap, read as the hbar^1
coefficients of the images inside that window, and certified as a scalar
column by column.  Its work grows with the window.  The engine checks one
block of y-degree 0 instead and proves the scalar at every y-degree; the
tests check that the two reports agree."""

from qshift.coefficients import codec
from qshift.derham import _nu_apply, _nu_slots, canonical_symplectic
from qshift.diffops import _banded_images
from qshift.errors import NotCertified
from qshift.quantise import bv_quantisation

from conftest import arity_keys


def windowed_eigen_analysis(X, p, k, ydeg_cap=2):
    """The report of ``nu_eigen_analysis`` from the window |a| <= ydeg_cap:
    image terms outside the window's hbar^1 part are not looked at."""
    if k < 1 or p < 0:
        raise ValueError("need p >= 0 and k >= 1")
    basis = arity_keys(X, p, ydeg_cap)
    slots, _ = _nu_slots(canonical_symplectic(X), bv_quantisation(X))
    lefts = [key for _, left, _ in slots for key, _ in left]
    rights = [key for _, _, right in slots for key, _ in right]
    index = {key + codec(X.m).hbar: i for i, key in enumerate(basis)}
    images = _banded_images(X.m, basis, lambda rho: _nu_apply(slots, rho),
                            lefts, rights)
    for c, image in enumerate(images):
        col = {index[key]: v for key, v in image.items() if key in index}
        if c == 0:
            lam0 = col.get(0, 0)
        if col != ({c: lam0} if lam0 else {}):
            raise NotCertified(
                f"the block of nu is not a scalar (column {c} of "
                f"{len(basis)}); only a scalar block is certified")
    shifted = lam0 + 1 - p - k
    return {"p": p, "k": k, "block_dim": len(basis), "eigenvalues": [lam0],
            "combined_scalar": shifted, "invertible": shifted != 0,
            "diagonalisable": True}
