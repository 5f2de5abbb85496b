"""One rule for integer arguments, one for real parameters and one for
arrays.

Every count, index and dimension of the library goes through
`qcore.integer` (Python's index rule), every real parameter through
`qcore.real`, and every matrix, vector and amplitude through
`qcore.array`.  A hostile value meets the rule before any range or shape
check, so it ends in one `InvalidInputError` that names the argument:
never a builtin `TypeError`, `ValueError` or `UFuncTypeError`, and never
a result computed from a truncated value or from strings.
"""

import fractions
import math

import numpy as np
import pytest

from lccsim import gates, kak, protocol, qcore
from lccsim import tomography as tm
from lccsim.gates import A_GATE, B_GATE
from lccsim.lcc import LinearCombinationSpec
from lccsim.qcore import (InvalidInputError, SX, array, basis_state, integer,
                          real)

RHO = np.eye(2) / 2
R2 = 1 / math.sqrt(2)


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

def _phi():
    return qcore.statevector([1.0, 0.0])


# (site, the argument's name, call with the value in place)
ARRAY_SITES = [
    ("QuantumState data", "data", lambda v: qcore.QuantumState((2,), v)),
    ("statevector amplitudes", "amplitudes", lambda v: qcore.statevector(v)),
    ("apply_to_subsystems op", "op",
     lambda v: qcore.apply_to_subsystems(basis_state((2,), (0,)), v, [0])),
    ("phase_aligned_distance a", "a",
     lambda v: qcore.phase_aligned_distance(v, np.eye(2))),
    ("phase_aligned_distance b", "b",
     lambda v: qcore.phase_aligned_distance(np.eye(2), v)),
    ("vector_phase_distance a", "a",
     lambda v: qcore.vector_phase_distance(v, np.ones(2))),
    ("vector_phase_distance b", "b",
     lambda v: qcore.vector_phase_distance(np.ones(2), v)),
    ("pauli_coefficients op", "op", lambda v: qcore.pauli_coefficients(v)),
    ("is_unitary m", "m", lambda v: qcore.is_unitary(v)),
    ("format_matrix m", "m", lambda v: qcore.format_matrix(v)),
    ("LinearCombinationSpec coefficients", "coefficients",
     lambda v: LinearCombinationSpec(v, (SX,))),
    ("LinearCombinationSpec gates", "gates",
     lambda v: LinearCombinationSpec((1.0,), (v,))),
    ("kak_decompose u", "u", lambda v: kak.kak_decompose(v)),
    ("simultaneous_svd u_real", "u_real",
     lambda v: kak.simultaneous_svd(v, np.zeros((4, 4)))),
    ("simultaneous_svd u_imag", "u_imag",
     lambda v: kak.simultaneous_svd(np.eye(4), v)),
    ("SendPolicy control_rho", "control_rho",
     lambda v: protocol.SendPolicy(0.5, 0.5, v)),
    ("make_decoy rho", "rho", lambda v: protocol.make_decoy(v, 2, 0.5)),
    ("verify_decoy_identity rho", "rho",
     lambda v: protocol.verify_decoy_identity(v, 0.5)),
    ("cheating_server_state a_gate", "a_gate",
     lambda v: protocol.cheating_server_state(v, B_GATE, _phi(), R2, R2)),
    ("cheating_server_state b_gate", "b_gate",
     lambda v: protocol.cheating_server_state(A_GATE, v, _phi(), R2, R2)),
    ("cheating_server_state alpha", "alpha",
     lambda v: protocol.cheating_server_state(A_GATE, B_GATE, _phi(), v, R2)),
    ("cheating_server_state beta", "beta",
     lambda v: protocol.cheating_server_state(A_GATE, B_GATE, _phi(), R2, v)),
    ("no_cloning_witness a_gate", "a_gate",
     lambda v: protocol.no_cloning_witness(v, B_GATE, _phi(), [1, 0], [0, 1])),
    ("no_cloning_witness b_gate", "b_gate",
     lambda v: protocol.no_cloning_witness(A_GATE, v, _phi(), [1, 0], [0, 1])),
    ("no_cloning_witness control_1", "control_1",
     lambda v: protocol.no_cloning_witness(A_GATE, B_GATE, _phi(), v, [0, 1])),
    ("no_cloning_witness control_2", "control_2",
     lambda v: protocol.no_cloning_witness(A_GATE, B_GATE, _phi(), [1, 0], v)),
    ("ChiMatrix data", "data", lambda v: tm.ChiMatrix(v)),
    ("ideal_chi op", "op", lambda v: tm.ideal_chi(v)),
    ("reconstruct_mle initial", "initial",
     lambda v: tm.reconstruct_mle(_dataset(), initial=v)),
]

CASES = (
    [pytest.param(call, fragment, value, id=f"{site}-{value!r}")
     for site, fragment, call in INTEGER_SITES
     for value in (2.5, "3", None, math.inf)]
    + [pytest.param(call, fragment, value, id=f"{site}-{value!r}")
       for site, fragment, call in REAL_SITES
       for value in ("x", None, 1j)
       # None is the documented "no tau" of verify_decoy_identity
       if not (value is None and site == "verify_decoy_identity tau")]
    + [pytest.param(call, f"{name} must be an array of numbers, got ", value,
                    id=f"{site}-{value!r}")
       for site, name, call in ARRAY_SITES
       for value in ("x", ["1", "0"], [[1, 2], [3]], None)
       # None is the documented "linear inversion" start
       if not (value is None and name == "initial")])


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


@pytest.mark.parametrize("value", [
    True, 3, np.uint8(3), 2.5, 1 - 2j, [True, False], [[1, 2], [3, 4]],
    np.arange(3, dtype=np.int8), np.ones(2, dtype=np.float32)])
def test_array_takes_every_array_of_numbers_as_complex(value):
    out = array(value, "m")
    assert out.dtype == complex
    np.testing.assert_array_equal(out, np.asarray(value))


def test_array_takes_a_zero_dimensional_number():
    out = array(np.float64(0.5), "alpha")
    assert out.shape == () and out == 0.5


def test_array_returns_a_complex_ndarray_uncopied():
    m = np.eye(2, dtype=complex)
    assert array(m, "m") is m


@pytest.mark.parametrize("value", [object(), {"a": 1}, [1, None],
                                   np.array(["1"]), np.datetime64(0, "s")])
def test_array_refuses_what_is_not_numbers(value):
    with pytest.raises(InvalidInputError,
                       match="^m must be an array of numbers, got "):
        array(value, "m")


def test_messages_are_bounded():
    with pytest.raises(InvalidInputError) as info:
        integer("9" * 100_000, "rounds")
    assert len(str(info.value)) < 100
    with pytest.raises(InvalidInputError) as info:
        array(["9"] * 100_000, "data")
    assert len(str(info.value)) < 100
