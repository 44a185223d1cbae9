"""Independent test-side oracles.

Everything here is deliberately separate from the library code paths it
checks: counting recurrences, a standalone recursive path enumerator,
the moment transfer evaluation, the path/paving pair model that the
merge identities are stated against, a plain dict-of-Fraction
three-term recurrence for the oracle's expansions and moments, and the
classical closed-form linearizations of He_n, U_n, monic Legendre P_n,
physicists' Hermite H_n and Chebyshev T_n, the last two with their norms,
and the moments of the shipped Chebyshev-like and Hermite-like systems.
"""

from fractions import Fraction
from math import comb, factorial


def motzkin_numbers(count):
    """M[0..count] via M[k] = M[k-1] + sum_i M[i] * M[k-2-i]."""
    ms = [1]
    for k in range(1, count + 1):
        total = ms[k - 1]
        for i in range(k - 1):
            total += ms[i] * ms[k - 2 - i]
        ms.append(total)
    return ms


def paving_counts(count):
    """f[0..count] via f(k) = 2 f(k-1) + f(k-2), f(0) = 1, f(1) = 2."""
    fs = [1, 2]
    for _ in range(2, count + 1):
        fs.append(2 * fs[-1] + fs[-2])
    return fs[: count + 1]


def brute_step_sequences(m, n, k, allow_hh=False):
    """Plain recursive enumeration of step tuples (0,m) -> (k,n), no pruning
    tricks shared with the library."""
    if k == 0:
        return [()] if m == n else []
    out = []
    if m + 1 >= 0:
        out += [("U",) + rest for rest in brute_step_sequences(m + 1, n, k - 1, allow_hh)]
    if m - 1 >= 0:
        out += [("D",) + rest for rest in brute_step_sequences(m - 1, n, k - 1, allow_hh)]
    out += [("H",) + rest for rest in brute_step_sequences(m, n, k - 1, allow_hh)]
    if allow_hh and k >= 2:
        out += [("HH",) + rest for rest in brute_step_sequences(m, n, k - 2, allow_hh)]
    return out


def moment_transfer(n, sys):
    """mu_n as the weighted count of closed walks on the levels: from level j,
    up costs alpha[j+1], across beta[j], down gamma[j-1]."""

    def walk(level, remaining):
        if remaining == 0:
            return Fraction(1) if level == 0 else Fraction(0)
        total = walk(level + 1, remaining - 1) * sys.alpha.at(level + 1)
        total += walk(level, remaining - 1) * sys.beta.at(level)
        if level >= 1:
            total += walk(level - 1, remaining - 1) * sys.gamma.at(level - 1)
        return total

    return walk(0, n)


def pair_weight_monic(path, paving, b, lam):
    """The path/paving pair model for the monic expansion: in the path, U
    costs 1, D at level j costs lam[j], H at level j costs b[j]; a monomino
    {i} costs -b[i-1] and a domino {i, i+1} costs -lam[i]."""
    w = 1
    for _, j, step in path.edges():
        if step == "D":
            w = w * lam.at(j)
        elif step == "H":
            w = w * b.at(j)
    for block in paving.blocks:
        if len(block) == 1:
            w = w * (-b.at(block[0] - 1))
        else:
            w = w * (-lam.at(block[0]))
    return w


def pair_weight_mixed(path, paving, sys, sys_prime):
    """The pair model for the two-family expansion: U costs gamma[j], D
    alpha[j], H beta[j]; a monomino {i} costs -beta'[i-1] and a domino
    {i, i+1} costs -gamma'[i-1] * alpha'[i] (the common 1/alpha' factor of
    the pavings is carried by the prefactor instead)."""
    w = 1
    for _, j, step in path.edges():
        if step == "U":
            w = w * sys.gamma_at(j)
        elif step == "D":
            w = w * sys.alpha_at(j)
        else:
            w = w * sys.beta_at(j)
    for block in paving.blocks:
        if len(block) == 1:
            w = w * (-sys_prime.beta.at(block[0] - 1))
        else:
            w = w * (-(sys_prime.gamma.at(block[0] - 1) * sys_prime.alpha.at(block[0])))
    return w


def _times_x(vec, sys):
    """x * vec in the p-basis of sys, as dict-of-Fraction arithmetic."""
    out = {}
    for t, c in vec.items():
        out[t + 1] = out.get(t + 1, 0) + c * sys.alpha.at(t + 1)
        out[t] = out.get(t, 0) + c * sys.beta.at(t)
        if t >= 1:
            out[t - 1] = out.get(t - 1, 0) + c * sys.gamma.at(t - 1)
    return {t: c for t, c in out.items() if c != 0}


def recurrence_products(m, top, sys, sys_prime):
    """[p_m * q_j for j = 0..top] in the p-basis of sys, where q runs the
    three-term recurrence of sys_prime:
    alpha'[j+1] q_{j+1} = (x - beta'[j]) q_j - gamma'[j-1] q_{j-1}."""
    vecs = [{m: Fraction(1)}]
    for j in range(top):
        nxt = _times_x(vecs[-1], sys)
        for t, c in vecs[-1].items():
            nxt[t] = nxt.get(t, 0) - sys_prime.beta.at(j) * c
        if j >= 1:
            for t, c in vecs[-2].items():
                nxt[t] = nxt.get(t, 0) - sys_prime.gamma.at(j - 1) * c
        lead = Fraction(sys_prime.alpha.at(j + 1))
        vecs.append({t: c / lead for t, c in nxt.items() if c != 0})
    return vecs


def recurrence_moments(count, sys):
    """[mu_0, ..., mu_count]: the coefficient of p_0 in x^n * p_0."""
    vec, mus = {0: Fraction(1)}, [Fraction(1)]
    for _ in range(count):
        vec = _times_x(vec, sys)
        mus.append(vec.get(0, Fraction(0)))
    return mus


def chebyshev_like_moment(n):
    """mu_n of alpha = gamma = 1, beta = 0 (monic U_n at x/2): the Catalan
    number C_{n/2} for even n, 0 for odd n."""
    return 0 if n % 2 else comb(n, n // 2) // (n // 2 + 1)


def hermite_like_moment(n):
    """mu_n of alpha = 1, beta = 0, gamma[j] = j + 1 (monic He_n): the double
    factorial (n - 1)!! = 1 * 3 * ... * (n - 1) for even n, 0 for odd n."""
    if n % 2:
        return 0
    out = 1
    for odd in range(1, n, 2):
        out *= odd
    return out


def hermite_linearization(m, n):
    """He_m * He_n = sum over j of C(m,j) C(n,j) j! He_{m+n-2j}, as
    {index: coefficient}."""
    return {m + n - 2 * j: comb(m, j) * comb(n, j) * factorial(j) for j in range(min(m, n) + 1)}


def chebyshev_u_linearization(m, n):
    """U_m * U_n = sum over j <= min(m, n) of U_{m+n-2j}, as {index: coefficient}."""
    return {m + n - 2 * j: 1 for j in range(min(m, n) + 1)}


def hermite_h_linearization(m, n):
    """Physicists' Hermite: H_m * H_n = sum over j <= min(m, n) of
    C(m,j) C(n,j) 2^j j! H_{m+n-2j}, as {index: coefficient}."""
    return {m + n - 2 * j: comb(m, j) * comb(n, j) * 2 ** j * factorial(j)
            for j in range(min(m, n) + 1)}


def hermite_h_norm(k):
    """L(H_k^2) = 2^k k! under the moment functional with mu_0 = 1."""
    return 2 ** k * factorial(k)


def chebyshev_t_linearization(m, n):
    """T_m * T_n = (T_{m+n} + T_{|m-n|}) / 2, as {index: coefficient}."""
    out = {m + n: Fraction(1, 2)}
    out[abs(m - n)] = out.get(abs(m - n), 0) + Fraction(1, 2)
    return out


def chebyshev_t_norm(k):
    """L(T_0^2) = 1 and L(T_k^2) = 1/2 for k >= 1, with mu_0 = 1."""
    return Fraction(1) if k == 0 else Fraction(1, 2)


def legendre_lambda(n):
    """lam_n = n^2 / (4n^2 - 1) of monic Legendre: x p_n = p_{n+1} + lam_n p_{n-1}."""
    return Fraction(n * n, 4 * n * n - 1)


def legendre_linearization(m, n):
    """Adams' formula for monic Legendre, as {index: coefficient}:
    P_m P_n = sum over j <= min(m, n) of
    A_j A_{m-j} A_{n-j} / A_{m+n-j} * (2t+1)/(2m+2n-2j+1) * P_t, t = m+n-2j,
    with A_j = (1/2)_j / j! = C(2j, j) / 4^j; P_n's leading coefficient is
    k_n = (2n)! / (2^n n!^2), so monic p_t enters with k_t / (k_m k_n)."""
    def a(j):
        return Fraction(comb(2 * j, j), 4 ** j)

    def lead(i):
        return Fraction(factorial(2 * i), 2 ** i * factorial(i) ** 2)

    out = {}
    for j in range(min(m, n) + 1):
        t = m + n - 2 * j
        out[t] = (a(j) * a(m - j) * a(n - j) / a(m + n - j)
                  * Fraction(2 * t + 1, 2 * m + 2 * n - 2 * j + 1)
                  * lead(t) / (lead(m) * lead(n)))
    return out
