"""Interaction potentials for laser-dressed and bare Rydberg atoms.

Single source of truth for units: lengths in micrometers (um), times in
microseconds (us), energies and rates as angular frequencies in rad/us
(hbar = 1). Van der Waals coefficients are in rad/us * um^6 and always
enter through configuration input; this package ships no C6 tables.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    SingularityError,
    UnsupportedRegimeError,
    ValidityWarning,
)

__all__ = [
    "PotentialKind",
    "DressingParams",
    "InteractionPotential",
    "derive_potential",
    "evaluate_V",
    "blockade_number",
]

# |epsilon| above this is no longer a weak admixture; derive_potential warns.
DRESSING_FRACTION_WARN = 0.3


class PotentialKind(enum.Enum):
    """Which interaction law a potential follows."""

    SOFT_CORE = "soft_core"
    BARE_VDW = "bare_vdw"


@dataclass(frozen=True)
class DressingParams:
    """Parameters of the off-resonant drive admixing the Rydberg state.

    Attributes
    ----------
    rabi : float
        Effective Rabi frequency of the dressing transition, rad/us.
    detuning : float
        Signed detuning from the Rydberg state, rad/us.
    c6 : float
        Signed van der Waals coefficient of the bare Rydberg pair
        interaction, rad/us * um^6.
    """

    rabi: float
    detuning: float
    c6: float

    @property
    def epsilon(self) -> float:
        """Admixture fraction rabi / (2 * detuning)."""
        if self.detuning == 0.0:
            raise ParameterError("admixture fraction undefined at zero detuning")
        return self.rabi / (2.0 * self.detuning)


@dataclass(frozen=True)
class InteractionPotential:
    """A pair potential V(r), either soft-core (dressed) or bare 1/r^6.

    Attributes
    ----------
    kind : PotentialKind
    epsilon : float
        Admixture fraction; 1 in bare mode.
    r_c : float
        Soft-core radius, um; 0 in bare mode.
    v0 : float
        Core height, rad/us. Signed (inherits the detuning's sign); 0 in
        bare mode, which has no core scale.
    c6 : float
        Effective tail coefficient, rad/us * um^6, defined so that
        V(r) -> epsilon^4 * c6 / r^6 at large r. In soft-core mode this
        equals 2 * detuning * r_c^6, which carries the detuning's sign and
        makes V(0) = v0 an exact identity; it is therefore the NEGATED
        input c6 for the attractive-tail inputs this mode requires. In
        bare mode it is the input c6 unchanged.
    """

    kind: PotentialKind
    epsilon: float
    r_c: float
    v0: float
    c6: float


def derive_potential(p: DressingParams, kind: PotentialKind) -> InteractionPotential:
    """Build an :class:`InteractionPotential` from drive parameters.

    Parameters
    ----------
    p : DressingParams
    kind : PotentialKind
        SOFT_CORE requires detuning != 0 and detuning/c6 < 0;
        BARE_VDW requires c6 != 0 (rabi and detuning are ignored).

    Returns
    -------
    InteractionPotential
        Satisfying r_c = |c6/(2 detuning)|^(1/6) and v0 = epsilon^4 *
        (2 detuning) in soft-core mode, with the detuning's sign preserved;
        epsilon = 1, r_c = 0 in bare mode.

    Raises
    ------
    ParameterError
        Zero detuning in soft-core mode, or zero c6 in bare mode; in
        soft-core mode also an epsilon, r_c, v0 or tail c6 that overflows
        float64 (the message names which).
    UnsupportedRegimeError
        detuning/c6 >= 0 in soft-core mode (a repulsive-tail sign
        combination produces no soft core).
    """
    if kind is PotentialKind.BARE_VDW:
        if p.c6 == 0.0:
            raise ParameterError("bare van der Waals potential needs c6 != 0")
        return InteractionPotential(kind=kind, epsilon=1.0, r_c=0.0, v0=0.0, c6=p.c6)

    if p.detuning == 0.0:
        raise ParameterError("soft-core potential needs a nonzero detuning")
    if p.detuning * p.c6 >= 0.0:
        raise UnsupportedRegimeError(
            "soft-core mode requires detuning/c6 < 0; got detuning="
            f"{p.detuning!r} rad/us, c6={p.c6!r} rad um^6/us"
        )
    def finite(name, compute):
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ParameterError(
                f"soft-core {name} is not finite for rabi={p.rabi!r} rad/us, "
                f"detuning={p.detuning!r} rad/us, c6={p.c6!r} rad um^6/us"
            )
        return value

    eps = finite("epsilon", lambda: p.epsilon)
    r_c = finite("r_c", lambda: abs(p.c6 / (2.0 * p.detuning)) ** (1.0 / 6.0))
    v0 = finite("V0", lambda: eps**4 * (2.0 * p.detuning))
    # Tail coefficient chosen so V(0) = v0 holds exactly; see class docstring.
    c6_tail = finite("tail c6", lambda: 2.0 * p.detuning * r_c**6)
    if abs(eps) > DRESSING_FRACTION_WARN:
        warnings.warn(
            f"dressing fraction |epsilon| = {abs(eps):.3g} is not small; "
            "the projected spin model loses accuracy",
            ValidityWarning,
            stacklevel=2,
        )
    return InteractionPotential(kind=kind, epsilon=eps, r_c=r_c, v0=v0, c6=c6_tail)


def evaluate_V(pot: InteractionPotential, r):
    """Pair interaction V(r) in rad/us at distance(s) r (um).

    Soft-core: V = v0 / (1 + (r/r_c)^6), which is algebraically
    epsilon^4 * c6 / (r_c^6 + r^6) and satisfies V(0) = v0 and
    V(r_c) = v0/2 exactly. Bare: V = c6 / r^6. The sixth power is
    q * q * q from q = (r/r_c)^2 (soft core) or q = r^2 (bare), built in
    place, which is cheaper than a float power and agrees with it to
    about 1e-15 relative.

    Parameters
    ----------
    pot : InteractionPotential
    r : float or ndarray
        Distance(s), um; r >= 0, and r > 0 in bare mode.

    Raises
    ------
    ParameterError
        Negative distance.
    SingularityError
        r = 0 in bare mode.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ParameterError("distances must be non-negative")
    scalar = r.ndim == 0
    out = _v_of_q(pot, _q_of_r(pot, np.atleast_1d(r)))
    return float(out[0]) if scalar else out


def _q_of_r(pot: InteractionPotential, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """q = (r/r_c)^2 (soft core) or q = r^2 (bare) from distances r >= 0,
    the argument of :func:`_v_of_q`.

    Written into out when given, which may be r itself (the coupling
    matrix builds q in place on its copy of the distances), else into a
    new array; the bits are the same either way.

    Raises SingularityError at r = 0 in bare mode, and ParameterError
    for a soft core with r_c = 0.
    """
    if pot.kind is PotentialKind.BARE_VDW:
        if np.any(r == 0):
            raise SingularityError("bare 1/r^6 potential diverges at r = 0")
        return np.multiply(r, r, out=out)
    if pot.r_c == 0.0:
        # epsilon = 0 with c6_tail = 0 would hit 0/0; only reachable by
        # hand-built instances, not via derive_potential.
        raise ParameterError("soft-core potential needs r_c > 0")
    q = np.divide(r, pot.r_c, out=out)
    q *= q
    return q


def _v_of_q(pot: InteractionPotential, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """V from q = (r/r_c)^2 (soft core) or q = r^2 (bare), unchecked:
    v0 / (1 + q^3) or c6 / q^3, with q^3 built as q * q * q.

    Written into out (a float array of q's shape, not q itself) when given,
    else into a new array. :func:`evaluate_V` and the Monte Carlo sampler,
    which builds q from squared distances, both take V from here.
    """
    out = np.multiply(q, q, out=out)
    out *= q
    if pot.kind is PotentialKind.SOFT_CORE:
        out += 1.0
        return np.divide(pot.v0, out, out=out)
    return np.divide(pot.c6, out, out=out)


def blockade_number(density: float, pot: InteractionPotential) -> float:
    """Mean atom count inside a soft-core radius, 4 pi density r_c^3 / 3.

    Returns 0 for the bare potential (r_c = 0). density in um^-3.
    """
    if density < 0:
        raise ParameterError("density must be non-negative")
    return 4.0 * math.pi * density * pot.r_c**3 / 3.0
