"""Dense linear-algebra kernels used by the analytics.

Four operations, on numpy alone: the matrix exponential (Higham's 2005
scaling and squaring with a Pade approximant of degree 3 to 13), the
Gram-type integral

    D_t = int_0^t exp(s B) D exp(s B^T) ds,

eigenvalues sorted by (real, imaginary) part, and the controllability
(Kalman) rank test for degenerate diffusions.  The Gram integral is computed
exactly (up to expm accuracy) through the block-matrix exponential

    exp(t [[B, D], [0, -B^T]]) = [[F11, F12], [0, F22]],  D_t = F12 @ F11^T,

combined with the doubling identity D_{2t} = e^{tB} D_t e^{tB^T} + D_t so
long horizons stay well conditioned.  Quadrature never enters the main path;
the test suite keeps an adaptive-quadrature oracle for cross-checking.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, MatrixOverflow, NonSPDMatrix, ShapeMismatch

# controllability rank threshold, relative to the largest singular value
RANK_RTOL = 1e-10

# Pade numerator coefficients b_0..b_m of degree m = 3, 5, 7, 9 and 13, each
# with the largest 1-norm theta_m at which the approximant reaches double
# precision (Higham 2005, Table 2.3)
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
      2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (5.371920351148152,
     (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ShapeMismatch(f"{name} has non-finite entries")
    return M


def check_psd(D, name: str = "D", tol: float = 1e-10) -> np.ndarray:
    """Validate symmetric positive semidefiniteness; returns the symmetrized matrix."""
    D = _as_square(D, name)
    if np.max(np.abs(D - D.T)) > tol * max(1.0, float(np.max(np.abs(D)))):
        raise NonSPDMatrix(f"{name} is not symmetric")
    D = 0.5 * (D + D.T)
    w = np.linalg.eigvalsh(D)
    if w[0] < -tol * max(1.0, float(w[-1])):
        raise NonSPDMatrix(f"{name} has negative eigenvalue {w[0]}")
    return D


def psd_sqrt(D: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (tiny negatives clipped)."""
    D = check_psd(D)
    w, V = np.linalg.eigh(D)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def expm(M) -> np.ndarray:
    """Matrix exponential e^M by scaling and squaring with a Pade approximant.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179: the degree m (3, 5,
    7, 9 or 13) is the lowest whose bound theta_m covers the 1-norm of M;
    above theta_13, M is scaled by 2^-s and the approximant squared s times.
    e^0 = I exactly.  Raises :class:`MatrixOverflow` when the result leaves
    floating range.
    """
    M = _as_square(M, "M")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(M, 1))
        if not math.isfinite(norm):
            raise MatrixOverflow("matrix 1-norm overflowed floating-point range")
        for theta, b in _PADE:
            if norm <= theta:
                break
        s = 0 if norm <= theta else math.ceil(math.log2(norm / theta))
        A = np.ldexp(M, -s)
        # r(A) = (V - U)^-1 (V + U), U and V the odd and even parts of sum_k b_k A^k
        A2 = A @ A
        powers = [np.eye(A.shape[0]), A2]  # A^0, A^2, A^4, ...
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(c * P for c, P in zip(b[1::2], powers))
        V = sum(c * P for c, P in zip(b[0::2], powers))
        E = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise MatrixOverflow("matrix exponential overflowed floating-point range")
    return E


def gram_integral(B, D, t: float) -> np.ndarray:
    """Integrated noise propagation int_0^t e^{sB} D e^{sB^T} ds.

    D must be symmetric PSD and 0 <= t < inf; the result is symmetric PSD up to
    rounding.  For ||tB|| beyond order one the integral is assembled by
    interval doubling, which keeps stable drifts accurate at large t.
    """
    B = _as_square(B, "B")
    D = check_psd(D, "D")
    if B.shape != D.shape:
        raise ShapeMismatch(f"B and D must have equal shapes, got {B.shape} vs {D.shape}")
    if not 0 <= t < np.inf:
        raise ShapeMismatch(f"t must be finite and nonnegative, got {t}")
    n = B.shape[0]
    if t == 0.0:
        return np.zeros((n, n))

    # choose 2^k subdivisions so the block exponential stays well scaled
    norm = float(np.linalg.norm(B, 2))
    k = max(0, int(np.ceil(np.log2(max(norm * t, 1e-300))))) if norm * t > 1.0 else 0
    s = t / (1 << k)

    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = B
    H[:n, n:] = D
    H[n:, n:] = -B.T
    F = expm(s * H)
    G = F[:n, n:] @ F[:n, :n].T
    G = 0.5 * (G + G.T)
    E = F[:n, :n]  # e^{sB}
    for _ in range(k):
        G = E @ G @ E.T + G
        G = 0.5 * (G + G.T)
        E = E @ E
    return G


def eig(M) -> np.ndarray:
    """Eigenvalues of M (with multiplicity), sorted by (real, imaginary) part."""
    M = _as_square(M, "M")
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # QR iteration hit its cap
        raise ConvergenceFailure(str(exc)) from exc
    return sort_complex(w)


def sort_complex(w: np.ndarray) -> np.ndarray:
    """``w`` sorted by real part, ties by imaginary part; equal values keep their order."""
    return w[np.lexsort((w.imag, w.real))]


def kalman_rank(B, D, rtol: float = RANK_RTOL) -> tuple[int, bool]:
    """Rank of the controllability matrix [D^1/2, B D^1/2, ..., B^{n-1} D^1/2].

    Returns ``(rank, hypoelliptic)`` where ``hypoelliptic`` means full rank:
    the noise directions, pushed around by the drift, span the whole space.
    The rank is read off a singular value decomposition with threshold
    ``rtol`` relative to the largest singular value.
    """
    B = _as_square(B, "B")
    S = psd_sqrt(D)
    if B.shape != S.shape:
        raise ShapeMismatch(f"B and D must have equal shapes, got {B.shape} vs {S.shape}")
    n = B.shape[0]
    blocks = [S]
    for _ in range(n - 1):
        blocks.append(B @ blocks[-1])
    C = np.hstack(blocks)
    sv = np.linalg.svd(C, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, n == 0
    rank = int(np.sum(sv > rtol * sv[0]))
    return rank, rank == n
