"""Delta-method limit law of the public fits, independent of the ASV formulas.

A fit is a smooth function gamma_hat = g(S_0, S_1, ..., S_K) of the
symmetrized lag matrices, so sqrt(T) vec(gamma_hat - gamma) tends to
N(0, J C J'): J is the Jacobian of g at the population matrices and C the
limiting covariance of sqrt(T) times their distinct entries.  With the
sources in estimator order and identity mixing, S_0 = I and S_k =
diag(lambda_k).  For normal innovations C pairs entry (i, j) of S_l only with
entry (i, j) of S_m, with covariance D_lm[i, j] (``AsymptoticModel.d``), so
diag(J C J') is a sum over the pairs i <= j of one (K + 1)-square block each.
"""

import numpy as np

from sobikit import AutocovSet

EPS = 1e-5


def _aligned(gamma):
    """gamma with its rows permuted and signed to put each column's largest
    entry, made positive, on the diagonal."""
    g = gamma[np.argmax(np.abs(gamma), axis=0)]
    return g * np.sign(np.diag(g))[:, None]


def delta_asv(model, fit):
    """diag(J C J') as a p x p table, entry (j, i) the limiting variance of
    sqrt(T) gamma_hat[j, i], where ``fit`` maps an AutocovSet to an
    UnmixingResult.  J is the central difference, step ``EPS``, of the aligned
    gamma at ``model``'s population matrices."""
    p = model.lam.shape[1]
    s = np.concatenate([np.eye(p)[None], model.lam[:, :, None] * np.eye(p)])
    var = np.zeros((p, p))
    for i, j in zip(*np.triu_indices(p)):
        cols = []
        for a in range(len(s)):  # the column of J for entry (i, j) of S_a
            step = np.zeros_like(s)
            step[a, i, j] = step[a, j, i] = EPS
            plus, minus = (_aligned(fit(AutocovSet(m[0], m[1:], model.lags)).gamma)
                           for m in (s + step, s - step))
            cols.append((plus - minus) / (2 * EPS))
        jac = np.stack(cols, axis=-1)
        var += np.einsum("jia,ab,jib->ji", jac, model.d[:, :, i, j], jac)
    return var
