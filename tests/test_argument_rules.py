"""One rule for integer arguments and one for real parameters.

Every count, index and dimension of the library goes through
`qcore.integer` (Python's index rule), and every real parameter through
`qcore.real`.  A hostile value meets the rule before any range check, so
it ends in one `InvalidInputError` that names the argument: never a
builtin `TypeError`, `ValueError` or `UFuncTypeError`, and never a
result computed from a truncated value.
"""

import fractions
import math

import numpy as np
import pytest

from lccsim import gates, protocol, qcore
from lccsim import tomography as tm
from lccsim.qcore import InvalidInputError, SX, basis_state, integer, real

RHO = np.eye(2) / 2


def _chi():
    return tm.ideal_chi(SX)


def _dataset():
    return tm.simulate_dataset(_chi(), 10, None, analytic=True)


def _spec_input():
    return gates.combination_spec("U2"), basis_state((2,), (0,))


def _rng():
    return np.random.default_rng(0)


# (site, the message's start, call with the value in place)
INTEGER_SITES = [
    ("run_session rounds", "rounds must be an integer",
     lambda v: protocol.run_session(
         *_spec_input(), protocol.SendPolicy(1.0, 0.5, RHO),
         protocol.ServerBehavior(), v, _rng())),
    ("empirical_server_average samples", "samples must be an integer",
     lambda v: protocol.empirical_server_average(
         protocol.SendPolicy(1.0, 0.5, RHO), v, _rng())),
    ("monte_carlo_success trials", "trials must be an integer",
     lambda v: protocol.monte_carlo_success(*_spec_input(), v, _rng())),
    ("simulate_dataset shots analytic", "shots must be an integer",
     lambda v: tm.simulate_dataset(_chi(), v, None, analytic=True)),
    ("simulate_dataset shots sampled", "shots must be an integer",
     lambda v: tm.simulate_dataset(_chi(), v, _rng())),
    ("bootstrap_fidelity resamples", "resamples must be an integer",
     lambda v: tm.bootstrap_fidelity(_dataset(), _chi(), v, _rng())),
    ("reconstruct_mle max_iter", "max_iter must be an integer",
     lambda v: tm.reconstruct_mle(_dataset(), max_iter=v)),
    ("haar_random_unitary dim", "dim must be an integer",
     lambda v: qcore.haar_random_unitary(v, _rng())),
    ("make_decoy n", "n must be an integer",
     lambda v: protocol.make_decoy(RHO, v, 0.5)),
    ("QuantumState dims", "dims must be integers",
     lambda v: qcore.QuantumState((v,), [1, 0])),
    ("basis_state dims", "dimension must be an integer",
     lambda v: basis_state((v,), (0,))),
    ("basis_state labels", "label must be an integer",
     lambda v: basis_state((2,), (v,))),
    ("measure_postselect targets", "target must be an integer",
     lambda v: qcore.measure_postselect(basis_state((2, 2), (0, 1)), [v],
                                        [0])),
    ("measure_postselect outcome", "outcome label must be an integer",
     lambda v: qcore.measure_postselect(basis_state((2, 2), (0, 1)), [0],
                                        [v])),
    ("apply_to_subsystems targets", "target must be an integer",
     lambda v: qcore.apply_to_subsystems(basis_state((2, 2), (0, 1)), SX,
                                         [v])),
]

REAL_SITES = [
    ("SendPolicy epsilon", "epsilon must be a real number",
     lambda v: protocol.SendPolicy(v, 0.5, RHO)),
    ("SendPolicy tau", "tau must be a real number",
     lambda v: protocol.SendPolicy(0.5, v, RHO)),
    ("make_decoy epsilon", "epsilon must be a real number",
     lambda v: protocol.make_decoy(RHO, 2, v)),
    ("make_decoy epsilon n=1", "epsilon must be a real number",
     lambda v: protocol.make_decoy(np.eye(1), 1, v)),
    ("verify_decoy_identity epsilon", "epsilon must be a real number",
     lambda v: protocol.verify_decoy_identity(RHO, v)),
    ("verify_decoy_identity tau", "tau must be a real number",
     lambda v: protocol.verify_decoy_identity(RHO, 0.5, v)),
    ("ServerBehavior intercept_fraction",
     "intercept_fraction must be a real number",
     lambda v: protocol.ServerBehavior("intercept", v)),
    ("depolarize_chi p", "p must be a real number",
     lambda v: tm.depolarize_chi(_chi(), v)),
    ("is_unitary atol", "atol must be a real number",
     lambda v: qcore.is_unitary(np.eye(2), atol=v)),
]

CASES = (
    [pytest.param(call, fragment, value, id=f"{site}-{value!r}")
     for site, fragment, call in INTEGER_SITES
     for value in (2.5, "3", None, math.inf)]
    + [pytest.param(call, fragment, value, id=f"{site}-{value!r}")
       for site, fragment, call in REAL_SITES
       for value in ("x", None, 1j)
       # None is the documented "no tau" of verify_decoy_identity
       if not (value is None and site == "verify_decoy_identity tau")])


@pytest.mark.parametrize("call, fragment, value", CASES)
def test_hostile_argument_is_refused_by_name(call, fragment, value):
    # InvalidInputError is a ValueError; any other ValueError, and any
    # TypeError (UFuncTypeError is one), fails the test as it propagates
    with pytest.raises(InvalidInputError) as info:
        call(value)
    assert str(info.value).startswith(fragment)


@pytest.mark.parametrize("value, expected", [
    (3, 3), (np.int64(3), 3), (np.uint8(3), 3), (True, 1)])
def test_integer_takes_python_index_rule(value, expected):
    out = integer(value, "count")
    assert type(out) is int and out == expected


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), 1, True,
                                   fractions.Fraction(1, 2)])
def test_real_takes_every_real_number(value):
    out = real(value, "x")
    assert type(out) is float and out == float(value)


def test_real_lets_nan_through_to_the_range_check():
    assert math.isnan(real(math.nan, "tau"))
    with pytest.raises(InvalidInputError, match=r"tau must lie in \(0,1\)"):
        protocol.SendPolicy(0.5, math.nan, RHO)


def test_real_refuses_an_integer_beyond_float_range():
    with pytest.raises(InvalidInputError,
                       match="intercept_fraction must lie within float range"):
        protocol.ServerBehavior("intercept", 10 ** 400)


def test_messages_are_bounded():
    with pytest.raises(InvalidInputError) as info:
        integer("9" * 100_000, "rounds")
    assert len(str(info.value)) < 100
