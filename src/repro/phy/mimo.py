"""MIMO channel estimation and SDM detection (the paper's heaviest kernels).

* ``estimate_channel`` — per-carrier 2x2 channel from the two
  orthogonally-mapped HT-LTF symbols (P-matrix ``[[1,1],[1,-1]]``);
  this feeds the ``equalize coeff. calc.`` kernel;
* ``equalizer_coefficients`` — per-carrier ZF (or MMSE) 2x2 matrix
  inversion; the scalar reciprocal is what the two hardwired 24-bit
  dividers accelerate on the real processor;
* ``sdm_detect`` — applying the equaliser to each received carrier
  vector (the ``SDM processing`` kernel, run 2x for two symbols).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class IllConditionedChannelError(ValueError):
    """A per-carrier channel matrix is too ill-conditioned to invert.

    Raised by :func:`equalizer_coefficients` in ``strict`` mode; in the
    default flagging mode the offending carriers are zeroed in the
    returned coefficients and reported through ``return_info``.
    """

    def __init__(self, carriers: Sequence[int], max_condition: float) -> None:
        self.carriers = list(carriers)
        self.max_condition = max_condition
        super().__init__(
            "channel condition number exceeds %.3g on carriers %s"
            % (max_condition, self.carriers)
        )


def estimate_channel(
    ltf_rx: np.ndarray, ltf_ref: np.ndarray, carriers: Sequence[int]
) -> np.ndarray:
    """Per-carrier MIMO channel estimate from orthogonal training symbols.

    Parameters
    ----------
    ltf_rx:
        Received frequency-domain training: shape (2, n_rx, n_fft) — two
        HT-LTF symbols per receive antenna.
    ltf_ref:
        The known training sequence per carrier (n_fft,).
    carriers:
        Bins to estimate.

    Returns
    -------
    np.ndarray
        (n_fft, n_rx, n_tx) channel matrices (zeros on unused bins).

    With the P-matrix mapping (stream0: +L,+L; stream1: +L,-L):
    ``Y1 = H0*L + H1*L``, ``Y2 = H0*L - H1*L`` per receive antenna, so
    ``H0 = (Y1+Y2) / (2L)`` and ``H1 = (Y1-Y2) / (2L)``.
    """
    n_sym, n_rx, n_fft = ltf_rx.shape
    if n_sym != 2:
        raise ValueError("need exactly 2 training symbols for 2 streams")
    h = np.zeros((n_fft, n_rx, 2), dtype=np.complex128)
    for k in carriers:
        ref = ltf_ref[k]
        if ref == 0:
            continue
        for r in range(n_rx):
            y1, y2 = ltf_rx[0, r, k], ltf_rx[1, r, k]
            h[k, r, 0] = (y1 + y2) / (2.0 * ref)
            h[k, r, 1] = (y1 - y2) / (2.0 * ref)
    return h


#: Gram-matrix condition number beyond which a carrier is treated as
#: uninvertible.  ZF on such a carrier multiplies the noise by the
#: condition number — at 64-QAM that silently converts one deep fade
#: into a burst of hard symbol errors, which is why flagging (or
#: raising) beats inverting anyway.
DEFAULT_MAX_CONDITION = 1e8


def equalizer_coefficients(
    h: np.ndarray,
    carriers: Sequence[int],
    noise_var: float = 0.0,
    max_condition: float = DEFAULT_MAX_CONDITION,
    strict: bool = False,
    return_info: bool = False,
):
    """Per-carrier 2x2 ZF (``noise_var == 0``) or MMSE equaliser.

    ZF: ``W = (H^H H)^-1 H^H``; MMSE adds ``noise_var * I`` inside the
    inverse.  Implemented with the explicit 2x2 adjugate/determinant
    formula — the division by the determinant is the operation the
    hardware's 24-bit dividers serve.

    Carriers whose regularised Gram matrix has a condition number above
    *max_condition* (or a vanishing determinant) are not silently
    inverted: in ``strict`` mode an :class:`IllConditionedChannelError`
    is raised, otherwise their coefficients stay zero and the carrier is
    reported in the info dict.  With ``return_info=True`` the return
    value is ``(w, info)`` where ``info["ill_conditioned"]`` lists the
    flagged carriers and ``info["condition"]`` maps carrier -> condition
    number.
    """
    n_fft = h.shape[0]
    w = np.zeros((n_fft, 2, 2), dtype=np.complex128)
    condition = {}
    flagged = []
    for k in carriers:
        hk = h[k]
        a = hk.conj().T @ hk + noise_var * np.eye(2)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        # 2x2 Hermitian PSD condition number from the eigenvalue pair
        # (trace/det give both roots); infinite when singular.
        tr = float(np.real(a[0, 0] + a[1, 1]))
        disc = max(tr * tr - 4.0 * float(np.real(det)), 0.0)
        lam_max = (tr + np.sqrt(disc)) / 2.0
        lam_min = (tr - np.sqrt(disc)) / 2.0
        cond = lam_max / lam_min if lam_min > 0 else np.inf
        condition[int(k)] = float(cond)
        if abs(det) < 1e-12 or cond > max_condition:
            flagged.append(int(k))
            continue
        inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
        w[k] = inv @ hk.conj().T
    if flagged and strict:
        raise IllConditionedChannelError(flagged, max_condition)
    if return_info:
        return w, {"ill_conditioned": flagged, "condition": condition}
    return w


def sdm_detect(
    y: np.ndarray, w: np.ndarray, carriers: Sequence[int]
) -> np.ndarray:
    """Apply the per-carrier equaliser: ``x_hat[k] = W[k] @ y[k]``.

    *y* has shape (n_rx, n_fft); returns (n_tx, n_fft) with zeros on
    unused carriers.  Raises ``ValueError`` on mismatched shapes or
    non-finite coefficients instead of propagating garbage symbols into
    the demapper.
    """
    y = np.asarray(y)
    w = np.asarray(w)
    if y.ndim != 2:
        raise ValueError("y must be (n_rx, n_fft), got shape %s" % (y.shape,))
    if w.ndim != 3 or w.shape[0] != y.shape[1] or w.shape[2] != y.shape[0]:
        raise ValueError(
            "equaliser shape %s incompatible with y shape %s: expected "
            "(n_fft, n_tx, n_rx) = (%d, *, %d)"
            % (w.shape, y.shape, y.shape[1], y.shape[0])
        )
    n_rx, n_fft = y.shape
    out = np.zeros((w.shape[1], n_fft), dtype=np.complex128)
    for k in carriers:
        if not (0 <= k < n_fft):
            raise ValueError("carrier index %d outside 0..%d" % (k, n_fft - 1))
        wk = w[k]
        if not np.all(np.isfinite(wk.view(np.float64))):
            raise ValueError("non-finite equaliser coefficients on carrier %d" % k)
        out[:, k] = wk @ y[:, k]
    return out


def stream_snr(h: np.ndarray, carriers: Sequence[int], noise_var: float) -> np.ndarray:
    """Post-detection SNR per stream (ZF noise enhancement included)."""
    snrs = []
    for k in carriers:
        hk = h[k]
        gram = hk.conj().T @ hk
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            continue
        snrs.append([1.0 / (noise_var * np.real(inv[i, i])) for i in range(hk.shape[1])])
    if not snrs:
        return np.zeros(h.shape[2])
    return np.mean(np.array(snrs), axis=0)
