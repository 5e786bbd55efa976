"""Dense gate algebra for the mass/path two-qudit sorter circuit.

Basis convention (the single binding convention of the package): the
composite basis is mass-major, flat index = N*k + s for mass index k and
path index s, both in [0, N).  The N-port coupler uses the Fourier kernel
omega = exp(+2*pi*i/N).  All gates are dense complex128 arrays: they are
the circuit picture of the paper and the reference that tests compare
against, for the ideal sorter and for one with phase errors.  Exit
probabilities are computed without them, by one FFT per mass row
(leakage.exit_probabilities), since the dense sorter costs O(N**6) to
build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .design import ideal_phases

if TYPE_CHECKING:
    import numpy as np

UNITARITY_TOL = 1e-12


class InvalidDimensionError(ValueError):
    """Gate or qudit dimension is not a positive integer."""


def _check_dim(n: int) -> None:
    import numpy as np

    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")


def flat_index(n: int, k: int, s: int) -> int:
    """Composite index of |k>_mass |s>_path in the mass-major ordering."""
    _check_dim(n)
    if not (0 <= k < n and 0 <= s < n):
        raise ValueError(f"indices (k={k}, s={s}) out of range for n={n}")
    return n * k + s


def split_index(n: int, flat: int) -> tuple[int, int]:
    """Inverse of flat_index: flat -> (mass index, path index)."""
    _check_dim(n)
    if not 0 <= flat < n * n:
        raise ValueError(f"flat index {flat} out of range for n={n}")
    return divmod(flat, n)


def dft_matrix(n: int) -> np.ndarray:
    """N-port coupler unitary: entry (j, k) = omega**(k*j) / sqrt(N)."""
    import numpy as np

    _check_dim(n)
    return np.exp(1j * ideal_phases(n)) / np.sqrt(n)


def controlled_z(n: int) -> np.ndarray:
    """Mass-controlled phase gate: |k,s> -> omega**(s*k) |k,s>, dim N**2."""
    import numpy as np

    _check_dim(n)
    return np.diag(np.exp(1j * ideal_phases(n)).ravel())


def _fourier_conjugate(n: int, gate: np.ndarray) -> np.ndarray:
    """(I (x) F^dag) gate (I (x) F): the coupler on either side of a phase gate."""
    import numpy as np

    big_f = np.kron(np.eye(n), dft_matrix(n))
    return big_f.conj().T @ gate @ big_f


def controlled_x(n: int) -> np.ndarray:
    """Mass-controlled path shift |k,s> -> |k, (s+k) mod N>, dim N**2.

    Built through the Fourier conjugation identity
    (I (x) F^dag) CZ (I (x) F) rather than as a raw permutation.
    """
    return _fourier_conjugate(n, controlled_z(n))


def controlled_z_err(errs) -> np.ndarray:
    """Imperfect phase gate: |k,s> -> exp(i*dphi_{k,s}) * omega**(s*k) |k,s>.

    `errs` is a leakage.PhaseErrorVector, or anything with its `n` and
    `phase_matrix()`.
    """
    import numpy as np

    return np.diag(np.exp(1j * (ideal_phases(errs.n) + errs.phase_matrix())).ravel())


def controlled_x_err(errs) -> np.ndarray:
    """Imperfect sorter (I (x) F^dag) CZ_err (I (x) F); block-diagonal in mass."""
    return _fourier_conjugate(errs.n, controlled_z_err(errs))


def leakage_amplitudes(errs) -> np.ndarray:
    """Amplitudes c_{k,s} = <k,s| sorter |k,0> as an (n, n) complex array.

    Read off the dense N**2 x N**2 sorter: the reference picture and the
    test oracle for leakage.exit_probabilities, not a hot path.
    """
    import numpy as np

    n = errs.n
    cols = controlled_x_err(errs).reshape(n, n, n, n)  # [k_out, s_out, k_in, s_in]
    return np.stack([cols[k, :, k, 0] for k in range(n)])


def apply(gate: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a gate to a normalized state vector."""
    import numpy as np

    gate = np.asarray(gate)
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1 or gate.shape != (state.size, state.size):
        raise ValueError(
            f"dimension mismatch: gate {gate.shape} vs state length {state.size}"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"input state must be normalized, |state| = {norm!r}")
    return gate @ state


def is_unitary(gate: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    import numpy as np

    gate = np.asarray(gate)
    if gate.ndim != 2 or gate.shape[0] != gate.shape[1]:
        return False
    dev = gate.conj().T @ gate - np.eye(gate.shape[0])
    return float(np.abs(dev).max()) <= tol
