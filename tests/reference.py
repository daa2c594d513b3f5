"""The closed-form cycle ledger and states in stdlib `decimal` at 50 significant digits.

A third evaluation of the engine's energy bookkeeping that shares no
rounding with either float path: P = gamma * (1 - e^-b), the thermal ground
population 1/(1 + e^-b) and tanh(b/2) = (1 - e^-b)/(1 + e^-b) are all formed
here from the exact binary value of each float input.  Energies are in
units of the bare level spacing, with the sign conventions of
`measengine.engine`; entropies are in units of ln 2 (bits).
"""

from __future__ import annotations

from decimal import Context, Decimal

DIGITS = 50
LEDGER = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta")
STATES = ("ground_qmi", "excited_qmi", "entropy_tp", "entropy_qmi", "entropy_qmii")
LN2 = Context(prec=DIGITS).ln(2)


def reference_ledger(b: float, gamma: float, r: float = 1.0) -> dict[str, Decimal]:
    """q_in, q_out, w_api, w_apii, delta, w_ext and eta of the cycle at (b, gamma, r).

    Three-stroke is the r = 1 case: its adiabatic works are exactly 0.
    """
    ctx = Context(prec=DIGITS)
    b, gamma, r = Decimal(b), Decimal(gamma), Decimal(r)  # exact: no rounding yet
    x = ctx.exp(ctx.minus(b))  # every operation rounds in ctx, none in the default context
    ground = ctx.divide(1, ctx.add(1, x))  # thermal ground population
    th = ctx.multiply(ctx.subtract(1, x), ground)  # tanh(b/2): ground minus excited population
    pumped = ctx.multiply(ctx.multiply(gamma, ctx.subtract(1, x)), ground)  # P * ground
    half, stretch = Decimal("0.5"), ctx.subtract(r, 1)
    q_in = ctx.multiply(r, pumped)
    q_out = ctx.subtract(pumped, th)
    w_ext = ctx.add(q_in, q_out)
    return {
        "q_in": q_in,
        "q_out": q_out,
        "w_api": ctx.multiply(ctx.multiply(half, stretch), th),
        "w_apii": ctx.multiply(stretch, ctx.subtract(ctx.multiply(half, th), pumped)),
        "delta": ctx.multiply(r, ctx.subtract(ctx.multiply(2, pumped), th)),
        "w_ext": w_ext,
        "eta": ctx.divide(w_ext, q_in),
    }


def reference_states(b: float, gamma: float) -> dict[str, Decimal]:
    """The post-QMI populations and the TP, QMI and QMII entropies (in units of ln 2) at (b, gamma).

    The adiabats relabel the gap only, so none of these depends on r.
    QMII swaps the post-QMI populations, so its entropy is QMI's exactly.
    """
    ctx = Context(prec=DIGITS)
    b, gamma = Decimal(b), Decimal(gamma)
    x = ctx.exp(ctx.minus(b))
    ground = ctx.divide(1, ctx.add(1, x))
    excited = ctx.multiply(x, ground)
    pumped = ctx.multiply(ctx.multiply(gamma, ctx.subtract(1, x)), ground)  # P * ground
    # ground - pumped, formed without cancellation: at gamma = 1 it is x * ground, which the
    # 50-digit difference rounds to 0 once x < 1e-50 (b > 115), where ln(0) is undefined.
    ground_qmi = ctx.multiply(ctx.add(ctx.subtract(1, gamma), ctx.multiply(gamma, x)), ground)
    excited_qmi = ctx.add(excited, pumped)

    def bits(p0: Decimal, p1: Decimal) -> Decimal:
        nats = ctx.add(ctx.multiply(p0, ctx.ln(p0)), ctx.multiply(p1, ctx.ln(p1)))
        return ctx.divide(ctx.minus(nats), LN2)

    entropy_qmi = bits(ground_qmi, excited_qmi)
    return {
        "ground_qmi": ground_qmi,
        "excited_qmi": excited_qmi,
        "entropy_tp": bits(ground, excited),
        "entropy_qmi": entropy_qmi,
        "entropy_qmii": entropy_qmi,
    }
