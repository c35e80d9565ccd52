"""Direct evaluation of the assembled order-4 forms, for tests only.

a4(x, y) = 1/2 x' Hxx x + sum_i x_i (y' C[i] y) + B(y, y, y, y) and its
gradient, batched over rows, from the fields of a critpoint._QuarticForms.
The library decides the sign of a4 through the reduced form mu in
critpoint._kernel_search; these evaluators keep the full (x, y) form
checkable against the exact jet oracle critpoint._a4_eval.
"""

import numpy as np


def kernel_terms(forms, ys: np.ndarray):
    """Per row y: c(y) = (y' C[i] y)_i, shape (b, n), and B(y, y, y, .),
    shape (b, m)."""
    b, m = ys.shape
    yy = (ys[:, :, None] * ys[:, None, :]).reshape(b, m * m)
    byy = (yy @ forms.B.reshape(m * m, m * m)).reshape(b, m, m)
    return yy @ forms.C.reshape(-1, m * m).T, np.einsum("bij,bj->bi", byy, ys)


def value_batch(forms, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """a4 at each row pair (x, y)."""
    c, b3 = kernel_terms(forms, ys)
    return np.sum((0.5 * xs @ forms.Hxx + c) * xs, axis=1) + np.sum(b3 * ys, axis=1)


def grad_batch(forms, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (x, y)-gradient of a4 at each row pair, shape (b, n + m)."""
    c, b3 = kernel_terms(forms, ys)
    b, m = ys.shape
    wc = (xs @ forms.C.reshape(-1, m * m)).reshape(b, m, m)
    mixed = 2.0 * np.einsum("bjk,bk->bj", wc, ys)     # y-gradient of x . c(y)
    return np.hstack([xs @ forms.Hxx.T + c, mixed + 4.0 * b3])
