import math

import numpy as np
import pytest

from rydramsey.errors import (
    ParameterError,
    SingularityError,
    UnsupportedRegimeError,
    ValidityWarning,
)
from rydramsey.potential import (
    DressingParams,
    PotentialKind,
    _v_of_q,
    blockade_number,
    derive_potential,
    evaluate_V,
)


def sr_params():
    # Omega = 1000, Delta = 5000 rad/us, C6 = -1e4 rad um^6/us
    return DressingParams(rabi=1000.0, detuning=5000.0, c6=-1.0e4)


def test_dressing_fraction():
    assert sr_params().epsilon == pytest.approx(0.1, abs=0.0)


def test_derived_scales_reference_point():
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    assert pot.r_c == pytest.approx(1.0, rel=1e-12)
    assert pot.v0 == pytest.approx(1.0, rel=1e-12)
    assert pot.epsilon == pytest.approx(0.1, rel=1e-12)
    # tail coefficient equals 2 Delta r_c^6 = -C6
    assert pot.c6 == pytest.approx(1.0e4, rel=1e-12)


def test_plateau_and_half_height():
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    assert evaluate_V(pot, 0.0) == pytest.approx(pot.v0, rel=1e-14)
    assert evaluate_V(pot, pot.r_c) == pytest.approx(pot.v0 / 2.0, rel=1e-14)


def test_tail_matches_dressed_vdw_coefficient():
    # dressed tail: V(r) r^6 -> eps^4 * C6 for r >> r_c (within 0.1% at 10 r_c)
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    r = 10.0 * pot.r_c
    assert evaluate_V(pot, r) * r**6 == pytest.approx(
        pot.epsilon**4 * pot.c6, rel=1e-3
    )


def test_vectorized_evaluation():
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    r = np.array([0.0, 0.5, 1.0, 4.0])
    v = evaluate_V(pot, r)
    assert v.shape == r.shape
    assert np.all(np.diff(v) < 0)  # monotone decreasing


@pytest.mark.parametrize("kind", ["soft_core", "bare"])
def test_sixth_power_matches_the_float_power_form(kind):
    # evaluate_V builds r^6 as q q q from q = (r/r_c)^2 or q = r^2; that
    # agrees with v0 / (1 + (r/r_c)**6) and c6 / r**6 to 1e-15 relative
    soft = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    r = soft.r_c * np.logspace(-3.0, 3.0, 20001)
    if kind == "soft_core":
        pot = soft
        want = pot.v0 / (1.0 + (r / pot.r_c) ** 6)
    else:
        pot = derive_potential(DressingParams(0.0, 0.0, -1.32e4), PotentialKind.BARE_VDW)
        want = pot.c6 / r**6
    got = evaluate_V(pot, r)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    assert evaluate_V(soft, 0.0) == soft.v0
    assert evaluate_V(soft, np.zeros(3)).tolist() == [soft.v0] * 3


@pytest.mark.parametrize("kind", ["soft_core", "bare"])
def test_evaluate_V_is_v_of_q_bit_for_bit(kind):
    # evaluate_V and the Monte Carlo sampler share one V(q), from
    # q = (r/r_c)^2 (soft core) or r^2 (bare); evaluate_V's bits stay those
    # of its own q, into a new array or into a caller's buffer
    if kind == "soft_core":
        pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
        r = pot.r_c * np.logspace(-3.0, 3.0, 2001)
        q = r / pot.r_c
        q *= q
    else:
        pot = derive_potential(DressingParams(0.0, 0.0, -1.32e4), PotentialKind.BARE_VDW)
        r = np.logspace(-3.0, 3.0, 2001)
        q = r * r
    want = evaluate_V(pot, r)
    assert np.array_equal(_v_of_q(pot, q), want)
    out = np.empty_like(q)
    assert _v_of_q(pot, q, out=out) is out
    assert np.array_equal(out, want)
    assert evaluate_V(pot, r[7]) == want[7]


def test_detuning_sign_must_oppose_c6():
    with pytest.raises(UnsupportedRegimeError):
        derive_potential(DressingParams(1000.0, -5000.0, -1e4), PotentialKind.SOFT_CORE)
    with pytest.raises(UnsupportedRegimeError):
        derive_potential(DressingParams(1000.0, 5000.0, +1e4), PotentialKind.SOFT_CORE)


def test_strong_dressing_warns():
    with pytest.warns(ValidityWarning):
        derive_potential(DressingParams(4000.0, 5000.0, -1e4), PotentialKind.SOFT_CORE)


def test_zero_detuning_rejected():
    with pytest.raises(ParameterError):
        derive_potential(DressingParams(1000.0, 0.0, -1e4), PotentialKind.SOFT_CORE)


def test_bare_tail():
    pot = derive_potential(DressingParams(0.0, 0.0, -1.32e4), PotentialKind.BARE_VDW)
    assert pot.r_c == 0.0
    assert pot.v0 == 0.0
    assert pot.epsilon == 1.0
    assert evaluate_V(pot, 2.0) == pytest.approx(-1.32e4 / 64.0, rel=1e-14)


def test_bare_origin_is_singular():
    pot = derive_potential(DressingParams(0.0, 0.0, 8.0), PotentialKind.BARE_VDW)
    with pytest.raises(SingularityError):
        evaluate_V(pot, 0.0)
    with pytest.raises(SingularityError):
        evaluate_V(pot, np.array([1.0, 0.0]))


def test_blockade_number():
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    assert blockade_number(1.0, pot) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
    assert blockade_number(0.0, pot) == 0.0
    with pytest.raises(ParameterError):
        blockade_number(-1.0, pot)


def test_negative_distance_rejected():
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    with pytest.raises(ParameterError):
        evaluate_V(pot, -0.5)


def test_nan_fails_the_sign_checks():
    # evaluate_V and blockade_number returned nan, with no warning
    pot = derive_potential(sr_params(), PotentialKind.SOFT_CORE)
    for r in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ParameterError, match="distances must be non-negative"):
            evaluate_V(pot, r)
    with pytest.raises(ParameterError, match="density must be non-negative"):
        blockade_number(math.nan, pot)


@pytest.mark.parametrize(
    "detuning, quantity",
    [(1e-150, "V0"), (1e-320, "epsilon")],
)
def test_soft_core_values_that_overflow_are_named(detuning, quantity):
    # epsilon^4 overflows (a Python OverflowError), or epsilon itself is inf
    p = DressingParams(rabi=1000.0, detuning=detuning, c6=-1.0e4)
    with pytest.raises(ParameterError, match=f"soft-core {quantity} is not finite"):
        derive_potential(p, PotentialKind.SOFT_CORE)
