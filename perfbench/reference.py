"""200-bit mpmath evaluation of the six-step schedule, for output checks.

Independent of soqd's closed form: each step propagator is ``mpmath.expm``
of the 2x2 mode Hamiltonian H = [[alpha1, beta], [beta, alpha2]] times
-i*duration (no half-angle formula), and the six are multiplied in
schedule order, step 1 acting first.  Float inputs convert to mpf exactly.
"""

import mpmath as mp

PREC = 200


def _rows(p: dict, t, t_prime):
    w1, w2, de, dg = p["omega1"], p["omega2"], p["d_e"], p["d_g"]
    return (
        (w1, w2, de + dg, t),
        (-w1, -w2, -de, t),
        (w1, w2, de, t_prime),
        (-w1, -w2, -dg, t_prime),
        (w1, w2, dg, t),
        (-w1, -w2, -de - dg, t),
    )


def _step(a1, a2, b, d):
    h = mp.matrix([[a1, b], [b, a2]])
    return mp.expm(h * (-1j * d))


class Reference:
    """Factor F and correlation G at (t, tau) for one parameter set."""

    def __init__(self, params: dict):
        self.params = {k: mp.mpf(v) for k, v in params.items()}
        self._t_steps = {}

    def transform(self, t: float, tau: float):
        with mp.workprec(PREC):
            t = mp.mpf(t)
            t_prime = t + mp.mpf(tau)
            rows = _rows(self.params, t, t_prime)
            if t not in self._t_steps:
                self._t_steps[t] = [_step(*rows[k]) for k in (0, 1, 4, 5)]
            m1, m2, m5, m6 = self._t_steps[t]
            return m6 * m5 * _step(*rows[3]) * _step(*rows[2]) * m2 * m1

    def factor(self, state: dict, t: float, tau: float):
        """F for ``{"kind": "fock", "n": n}`` or ``{"kind": "coherent", "n": x}``.

        Number state: F = m22**n.  Coherent (0, beta0), beta0 = sqrt(x):
        F = <0, beta0 | M (0, beta0)> = exp(-|a6|^2/2 - (x + |b6|^2)/2
        + beta0*b6) with a6 = m12*beta0, b6 = m22*beta0.
        """
        m = self.transform(t, tau)
        with mp.workprec(PREC):
            if state["kind"] == "fock":
                return m[1, 1] ** state["n"]
            x = mp.mpf(state["n"])
            beta0 = mp.sqrt(x)
            a6, b6 = m[0, 1] * beta0, m[1, 1] * beta0
            return mp.exp(-abs(a6) ** 2 / 2 - (x + abs(b6) ** 2) / 2 + beta0 * b6)

    def g2(self, f, t: float, tau: float) -> float:
        """G = 1/2 + Re[exp(i*omega_e*(t - t')) F]/2 with t' = t + tau."""
        with mp.workprec(PREC):
            phase = mp.expj(-self.params["omega_e"] * mp.mpf(tau))
            return 0.5 + 0.5 * (phase * f).real
