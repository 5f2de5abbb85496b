import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (cu_linear_spec, random_unitary_combination_spec,
                      random_statevector)
from lccsim import gates, lcc, qcore
from lccsim.lcc import (LinearCombinationSpec, lcc_success_probability,
                        run_lcc, run_lcc_controlled_form, spec_from_json,
                        spec_to_json)
from lccsim.qcore import (DimensionMismatchError, HADAMARD, ID2,
                          InvalidInputError, SX, SZ, basis_state,
                          haar_random_unitary, pauli_coefficients, statevector,
                          vector_phase_distance)

R2 = 1.0 / math.sqrt(2)


# -- dense references for the extended circuit ---------------------------------

def build_control_state(spec):
    """k-qubit control state with amplitude alpha_j on basis |j>."""
    return statevector(spec.coefficients, dims=(2,) * spec.k or (1,))


def subspace_swap(j, d, n):
    """Permutation X^(0,j) exchanging subspaces 0 and j of an (n*d)-dim target."""
    if not 1 <= j <= n - 1:
        raise InvalidInputError(f"subspace index {j} out of range 1..{n - 1}")
    labels = np.arange(n)
    labels[[0, j]] = j, 0
    perm = (labels[:, None] * d + np.arange(d)).reshape(-1)
    return np.eye(n * d, dtype=complex)[perm]


def sum_operation(spec):
    """Block-diagonal operator with V_j acting on subspace j."""
    n, d = spec.n, spec.d
    out = np.zeros((n * d, n * d), dtype=complex)
    for j, g in enumerate(spec.gates):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = g
    return out


def embed_input(spec, input_state):
    """Extended target state: input amplitudes on subspace 0, zeros elsewhere."""
    ext = np.zeros(spec.n * spec.d, dtype=complex)
    ext[: spec.d] = input_state.data
    return statevector(ext, dims=(spec.n * spec.d,))


class TestSpecValidation:
    def test_normalization_enforced(self):
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((0.5, 0.5), (ID2, SX))

    def test_power_of_two_terms(self):
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((1.0, 0.0, 0.0),
                                  (ID2, SX, SZ))

    def test_gates_of_unequal_shape(self):
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((R2, R2), (ID2, np.eye(3)))

    def test_non_square_gate(self):
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((R2, R2), (np.ones((2, 3)), np.ones((2, 3))))
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((R2, R2), (np.ones(2), np.ones(2)))

    def test_gate_count_must_match_coefficients(self):
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((R2, R2), (ID2,))
        with pytest.raises(InvalidInputError):
            LinearCombinationSpec((R2, R2), (ID2, SX, SZ))

    def test_gates_are_read_only_views_of_one_stack(self):
        spec = LinearCombinationSpec((R2, R2), (ID2, SX))
        with pytest.raises(ValueError):
            spec.gates[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            spec.coefficients[0] = 1.0
        assert spec.gate_stack.shape == (2, 2, 2)
        for g, s in zip(spec.gates, spec.gate_stack):
            assert np.shares_memory(g, spec.gate_stack)
            assert np.array_equal(g, s)

    @pytest.mark.parametrize("coefficients, gate", [
        ((math.nan, R2), ID2), ((R2, R2), np.diag([math.inf, 1.0])),
        ((R2, R2), np.diag([1.0, complex(0.0, -math.inf)]))])
    def test_non_finite_values_rejected(self, coefficients, gate):
        with pytest.raises(InvalidInputError, match="finite"):
            LinearCombinationSpec(coefficients, (ID2, gate))

    def test_caller_arrays_copied(self):
        alpha = np.array([R2, R2], dtype=complex)
        x = SX.copy()
        spec = LinearCombinationSpec(alpha, (ID2, x))
        x[0, 0] = 5.0
        alpha[0] = 1.0
        assert np.array_equal(spec.gates[1], SX)
        assert np.array_equal(spec.gate_stack[1], SX)
        assert np.array_equal(spec.coefficients, [R2, R2])

    def test_unitarity_flag(self):
        assert LinearCombinationSpec((R2, R2), (ID2, SX)).all_unitary
        assert not LinearCombinationSpec((R2, R2), (ID2, np.diag([1.0, 0.0]))
                                         ).all_unitary


class TestBuildControlState:
    def test_single_term(self):
        st = build_control_state(LinearCombinationSpec((1.0, 0.0), (ID2, SX)))
        assert np.allclose(st.data, [1, 0])

    def test_equal_superposition(self):
        spec = gates.combination_spec("U2")
        st = build_control_state(spec)
        assert np.allclose(st.data, [R2, R2])

    def test_waveplate_control(self):
        spec = gates.combination_spec("U1")
        st = build_control_state(spec)
        assert np.allclose(st.data, [math.cos(math.pi / 8),
                                     math.sin(math.pi / 8)])
        assert abs(st.data[0] - 0.9239) < 1e-4
        assert abs(st.data[1] - 0.3827) < 1e-4


class TestSubspaceSwap:
    def test_d1_n2_is_x(self):
        assert np.allclose(subspace_swap(1, d=1, n=2), SX)

    def test_involution(self):
        x = subspace_swap(1, d=2, n=4)
        assert np.allclose(x @ x, np.eye(8))

    def test_moves_subspace_zero(self):
        rng = np.random.default_rng(0)
        psi = random_statevector(2, rng)
        spec = LinearCombinationSpec((R2, 0, R2, 0), (ID2, SX, SZ, HADAMARD))
        ext = embed_input(spec, statevector(psi))
        moved = subspace_swap(2, d=2, n=4) @ ext.data
        assert np.allclose(moved[4:6], psi)
        assert np.allclose(moved[:4], 0)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            subspace_swap(0, d=2, n=2)
        with pytest.raises(InvalidInputError):
            subspace_swap(2, d=2, n=2)


class TestSumOperation:
    def test_identity_x_blocks_give_cnot(self):
        spec = LinearCombinationSpec((R2, R2), (ID2, SX))
        cnot = np.eye(4)[[0, 1, 3, 2]]
        assert np.allclose(sum_operation(spec), cnot)

    def test_blocks_recoverable(self):
        a, b = gates.A_GATE, gates.B_GATE
        spec = LinearCombinationSpec((R2, R2), (a, b))
        s = sum_operation(spec)
        assert np.array_equal(s[:2, :2], a)
        assert np.array_equal(s[2:, 2:], b)
        assert np.allclose(s[:2, 2:], 0)

    def test_acts_as_first_block_on_subspace_zero(self):
        rng = np.random.default_rng(1)
        psi = random_statevector(2, rng)
        spec = LinearCombinationSpec((R2, R2), (gates.A_GATE, gates.B_GATE))
        ext = embed_input(spec, statevector(psi))
        out = sum_operation(spec) @ ext.data
        assert np.allclose(out[:2], gates.A_GATE @ psi)


class TestEmbedInput:
    def test_unused_subspaces_zero(self):
        rng = np.random.default_rng(2)
        psi = random_statevector(4, rng)
        spec = random_unitary_combination_spec(4, 4, rng)
        ext = embed_input(spec, statevector(psi))
        assert np.allclose(ext.data[:4], psi)
        assert np.array_equal(ext.data[4:], np.zeros(12))


class TestRunLcc:
    def test_trivial_single_term(self):
        rng = np.random.default_rng(3)
        psi = random_statevector(2, rng)
        spec = LinearCombinationSpec((1.0, 0.0), (ID2, haar_random_unitary(2, rng)))
        res = run_lcc(spec, statevector(psi))
        assert res.success
        assert abs(res.success_probability - 0.5) < 1e-12
        assert vector_phase_distance(res.output_state.data, psi) < 1e-10

    def test_u2_combination(self):
        spec = gates.combination_spec("U2")
        res = run_lcc(spec, basis_state((2,), (0,)))
        want = (gates.A_GATE + gates.B_GATE) @ np.array([1, 0]) / math.sqrt(2)
        want = want / np.linalg.norm(want)
        assert vector_phase_distance(res.output_state.data, want) < 1e-10
        assert abs(res.success_probability - 0.5) < 1e-12

    def test_four_term_pauli_spec_for_su2(self):
        rng = np.random.default_rng(4)
        u = haar_random_unitary(2, rng)
        alphas = pauli_coefficients(u / np.sqrt(np.linalg.det(u)))
        spec = LinearCombinationSpec(tuple(alphas),
                                     (ID2, SX, 1j * SX @ SZ, SZ))
        psi = random_statevector(2, rng)
        res = run_lcc(spec, statevector(psi))
        want = u @ psi
        want = want / np.linalg.norm(want)
        assert abs(res.success_probability - 0.25) < 1e-12
        assert vector_phase_distance(res.output_state.data, want) < 1e-10

    def test_degenerate_combination(self):
        spec = LinearCombinationSpec((R2, -R2), (ID2, ID2))
        res = run_lcc(spec, basis_state((2,), (0,)))
        assert not res.success
        assert res.success_probability == 0.0

    @pytest.mark.parametrize("form", [run_lcc, run_lcc_controlled_form])
    def test_overflowing_probability_rejected(self, form):
        spec = LinearCombinationSpec((R2, R2), (1e308 * ID2, 1e308 * ID2))
        with pytest.raises(InvalidInputError, match="overflows"):
            form(spec, basis_state((2,), (0,)))

    def test_success_probability_one_over_n(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8):
            for d in (2, 4):
                spec = random_unitary_combination_spec(n, d, rng)
                psi = statevector(random_statevector(d, rng))
                res = run_lcc(spec, psi)
                assert abs(res.success_probability - 1.0 / n) < 1e-12
                direct = spec.combination() @ psi.data
                direct = direct / np.linalg.norm(direct)
                assert vector_phase_distance(res.output_state.data,
                                             direct) < 1e-10


def hadamard_power(k):
    """H^(x)k as the k-fold np.kron of the single-qubit Hadamard."""
    return functools.reduce(np.kron, [HADAMARD] * k, np.ones((1, 1)))


def dense_run_lcc(spec, psi):
    """Reference extended circuit with dense controlled-swap matrices.

    Returns the pre-measurement amplitudes, the all-zero branch
    probability and the normalized subspace-0 output.
    """
    n, k, d = spec.n, spec.k, spec.d
    joint = np.kron(spec.coefficients, embed_input(spec, statevector(psi)).data)
    cswap = sum(np.kron(np.diag(np.eye(n)[j]),
                        np.eye(n * d) if j == 0 else subspace_swap(j, d, n))
                for j in range(n))
    circuit = (np.kron(hadamard_power(k), np.eye(n * d)) @ cswap
               @ np.kron(np.eye(n), sum_operation(spec)) @ cswap)
    pre = circuit @ joint
    branch = pre[:n * d]
    p = float(np.vdot(branch, branch).real)
    assert np.abs(branch[d:]).max(initial=0.0) < 1e-12
    return pre, p, branch[:d] / np.linalg.norm(branch[:d])


def dense_run_controlled_form(spec, psi):
    """Reference controlled-gate circuit (H^(x)k (x) I)(sum_j |j><j| (x) V_j)
    applied to alpha (x) psi, with the same returns as dense_run_lcc."""
    n, k, d = spec.n, spec.k, spec.d
    joint = np.kron(spec.coefficients, psi)
    select = sum(np.kron(np.diag(np.eye(n)[j]), g)
                 for j, g in enumerate(spec.gates))
    pre = np.kron(hadamard_power(k), np.eye(d)) @ select @ joint
    branch = pre[:d]
    return pre, float(np.vdot(branch, branch).real), branch / np.linalg.norm(branch)


# (I - I)/sqrt(2): every branch cancels on the all-zero control outcome
VANISHING = LinearCombinationSpec((R2, -R2), (ID2, ID2))


def check_vanishing(form, dense):
    psi = random_statevector(2, np.random.default_rng(14))
    pre, p, _ = dense(VANISHING, psi)
    res = form(VANISHING, statevector(psi))
    assert p < 1e-24
    assert not res.success
    assert res.success_probability == 0.0
    assert res.output_state is None
    assert np.abs(res.pre_measurement_state.data - pre).max() < 1e-12


class TestRunLccMatchesDenseCircuit:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_spec(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = LinearCombinationSpec(
            alpha / np.linalg.norm(alpha),
            tuple(haar_random_unitary(d, rng) for _ in range(n)))
        psi = random_statevector(d, rng)
        pre, p, out = dense_run_lcc(spec, psi)
        res = run_lcc(spec, statevector(psi))
        assert (res.pre_measurement_state.dims
                == build_control_state(spec).dims + (n * d,))
        assert np.abs(res.pre_measurement_state.data - pre).max() < 1e-12
        assert res.success
        assert abs(res.success_probability - p) < 1e-12
        assert np.abs(res.output_state.data - out).max() < 1e-12

    def test_vanishing_combination(self):
        check_vanishing(run_lcc, dense_run_lcc)

    @pytest.mark.parametrize("n", [1, 2, 8, 128])
    def test_only_subspace_zero_is_nonzero(self, n):
        # the exact zeros make sqrt(p) the norm of the postselected branch
        rng = np.random.default_rng(400 + n)
        d = 3
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = LinearCombinationSpec(
            alpha / np.linalg.norm(alpha),
            tuple(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))))
        res = run_lcc(spec, statevector(random_statevector(d, rng)))
        amps = res.pre_measurement_state.data.reshape(n, n, d)
        assert np.all(amps[:, 1:] == 0.0)
        assert np.all(amps[:, 0] != 0.0)
        assert res.success_probability == float(
            np.vdot(amps[0, 0], amps[0, 0]).real)


class TestControlledFormMatchesDenseCircuit:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_spec(self, n, d):
        rng = np.random.default_rng(200 * n + d)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = LinearCombinationSpec(
            alpha / np.linalg.norm(alpha),
            tuple(haar_random_unitary(d, rng) for _ in range(n)))
        psi = random_statevector(d, rng)
        pre, p, out = dense_run_controlled_form(spec, psi)
        res = run_lcc_controlled_form(spec, statevector(psi))
        assert (res.pre_measurement_state.dims
                == build_control_state(spec).dims + (d,))
        assert np.abs(res.pre_measurement_state.data - pre).max() < 1e-12
        assert res.success
        assert abs(res.success_probability - p) < 1e-12
        assert np.abs(res.output_state.data - out).max() < 1e-12

    def test_vanishing_combination(self):
        check_vanishing(run_lcc_controlled_form, dense_run_controlled_form)


class TestArrayPath:
    def test_circuits_skip_per_qubit_apply_and_postselect(self, monkeypatch):
        def per_qubit_path(*args, **kwargs):
            raise AssertionError("the per-qubit qcore path was taken")

        for module in (lcc, qcore):
            monkeypatch.setattr(module, "apply_to_subsystems", per_qubit_path)
            monkeypatch.setattr(module, "measure_postselect", per_qubit_path)
        rng = np.random.default_rng(15)
        spec = random_unitary_combination_spec(8, 2, rng)
        psi = statevector(random_statevector(2, rng))
        direct = spec.combination() @ psi.data
        for form in (run_lcc, run_lcc_controlled_form):
            res = form(spec, psi)
            assert res.success
            assert abs(res.success_probability - 1.0 / 8) < 1e-12
            assert vector_phase_distance(res.output_state.data,
                                         direct / np.linalg.norm(direct)) < 1e-10


class TestRunLccAtScale:
    def test_n64_d8_without_dense_matrices(self):
        rng = np.random.default_rng(12)
        n, d = 64, 8
        spec = random_unitary_combination_spec(n, d, rng)
        psi = statevector(random_statevector(d, rng))
        tracemalloc.start()
        try:
            res = run_lcc(spec, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense (n^2 d)^2 controlled swap would need about 17 GB; the
        # state itself is 512 kB, and the circuit holds one of it
        assert peak < 2 * res.pre_measurement_state.data.nbytes
        direct = sum(a * g for a, g in zip(spec.coefficients, spec.gates)) @ psi.data
        assert abs(res.success_probability - 1.0 / n) < 1e-12
        assert abs(res.success_probability
                   - float(np.vdot(direct, direct).real) / n) < 1e-12
        assert vector_phase_distance(res.output_state.data,
                                     direct / np.linalg.norm(direct)) < 1e-10

    def test_n128_d8_allocates_rows_not_register(self):
        rng = np.random.default_rng(16)
        n, d = 128, 8
        spec = random_unitary_combination_spec(n, d, rng)
        psi = random_statevector(d, rng)
        # the spec's build filled the Sylvester-matrix cache; an untraced
        # first run keeps any first-call allocation out of the peak
        run_lcc(spec, statevector(psi))
        tracemalloc.start()
        try:
            res = run_lcc(spec, statevector(psi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, n*d) register alone is n^2 d * 16 bytes = 2 MiB
        assert peak < 8 * n * d * 16
        state = res.pre_measurement_state
        assert res.pre_measurement_state is state
        pre, _, _ = blockwise_reference(spec, psi, extended=True)
        assert np.abs(state.data - pre).max() < 1e-12


def blockwise_reference(spec, psi, extended):
    """Both circuit forms from the dense ``subspace_swap`` and
    ``sum_operation`` (extended) or the gates (controlled), one control
    row at a time, then H^(x)k as a dense matrix on the control rows; no
    full-register matrix, so n = 128 fits.  Same returns as dense_run_lcc.
    """
    n, d = spec.n, spec.d
    if extended:
        ext = embed_input(spec, statevector(psi)).data
        blocks = sum_operation(spec)
        # one dense swap at a time, applied to vectors, so n*d = 1024 fits
        swaps = (subspace_swap(c, d, n) if c else np.eye(n * d)
                 for c in range(n))
        rows = [a * (x @ (blocks @ (x @ ext)))
                for a, x in zip(spec.coefficients, swaps)]
    else:
        rows = [a * (g @ psi) for a, g in zip(spec.coefficients, spec.gates)]
    pre = hadamard_power(spec.k) @ np.array(rows)
    branch = pre[0]
    assert np.abs(branch[d:]).max(initial=0.0) < 1e-12
    return (pre.reshape(-1), float(np.vdot(branch, branch).real),
            branch[:d] / np.linalg.norm(branch[:d]))


class TestKernels:
    @pytest.mark.parametrize("k", range(8))
    def test_hadamard_matrix_is_kron_power(self, k):
        h = lcc._hadamard_matrix(2 ** k)
        assert h.dtype == np.float64
        assert np.abs(h - hadamard_power(k)).max() < 1e-15
        with pytest.raises(ValueError):
            h[0, 0] = 0.0

    @pytest.mark.parametrize("n, d, unitary", [
        (1, 2, True), (1, 3, False), (2, 2, False), (8, 3, False),
        (128, 2, True), (128, 2, False)])
    def test_forms_match_blockwise_reference(self, n, d, unitary):
        rng = np.random.default_rng(300 * n + d)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        terms = (tuple(haar_random_unitary(d, rng) for _ in range(n))
                 if unitary else
                 tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                       for _ in range(n)))
        spec = LinearCombinationSpec(alpha / np.linalg.norm(alpha), terms)
        psi = random_statevector(d, rng)
        for form, extended in ((run_lcc, True), (run_lcc_controlled_form, False)):
            pre, p, out = blockwise_reference(spec, psi, extended)
            res = form(spec, statevector(psi))
            assert np.abs(res.pre_measurement_state.data - pre).max() < 1e-12
            assert abs(res.success_probability - p) < 1e-12
            assert np.abs(res.output_state.data - out).max() < 1e-12

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the spec's compiling matmul and the run's matvec go through
        # BLAS; large enough shapes that a threaded BLAS splits them
        script = (
            "import hashlib, numpy as np\n"
            "from lccsim import lcc\n"
            "rng = np.random.default_rng(5)\n"
            "h = hashlib.sha256()\n"
            "for n, d in ((2, 2), (16, 4), (64, 8), (128, 8)):\n"
            "    a = rng.normal(size=n) + 1j * rng.normal(size=n)\n"
            "    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))\n"
            "    spec = lcc.LinearCombinationSpec(a / np.linalg.norm(a), tuple(g))\n"
            "    psi = lcc.statevector(np.eye(d)[0])\n"
            "    for form in (lcc.run_lcc, lcc.run_lcc_controlled_form):\n"
            "        res = form(spec, psi)\n"
            "        h.update(res.pre_measurement_state.data.tobytes())\n"
            "        h.update(repr(res.success_probability).encode())\n"
            "print(h.hexdigest())\n")
        src = Path(__file__).resolve().parent.parent / "src"
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1


class TestCircuitMatrix:
    @staticmethod
    def random_spec(n, d, unitary, rng):
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        terms = (tuple(haar_random_unitary(d, rng) for _ in range(n))
                 if unitary else
                 tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                       for _ in range(n)))
        return LinearCombinationSpec(alpha / np.linalg.norm(alpha), terms)

    def test_read_only_and_shaped_n_d_by_d(self):
        spec = self.random_spec(8, 3, False, np.random.default_rng(40))
        matrix = spec.circuit_matrix
        assert matrix.shape == (24, 3)
        assert matrix.dtype == complex
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (8, 3), (32, 2), (128, 2)])
    def test_is_hadamard_mixed_stack_of_weighted_terms(self, n, d, unitary):
        spec = self.random_spec(n, d, unitary,
                                np.random.default_rng(500 * n + d))
        weighted = np.vstack([a * g for a, g in zip(spec.coefficients,
                                                    spec.gates)])
        want = np.kron(hadamard_power(spec.k), np.eye(d)) @ weighted
        assert np.abs(spec.circuit_matrix - want).max() < 1e-14

    # 1e308 gates overflow only in the run's |row 0|^2; the complex
    # 1.5e308 (1 + i) gates overflow already in the matrix's H^(x)k sum
    @pytest.mark.parametrize("alpha, gate, finite", [
        ((R2, R2), 1e308 * ID2, True),
        ((0.5 + 0.5j, 0.5 + 0.5j), 1.5e308 * (1 + 1j) * ID2, False)])
    def test_overflow_builds_quietly_and_the_run_raises(self, alpha, gate,
                                                        finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = LinearCombinationSpec(alpha, (gate, gate))
        assert np.isfinite(spec.circuit_matrix).all() == finite
        for form in (run_lcc, run_lcc_controlled_form):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="overflows"):
                    form(spec, basis_state((2,), (0,)))

    def test_runs_do_not_rebuild_it(self, monkeypatch):
        rng = np.random.default_rng(41)
        spec = random_unitary_combination_spec(8, 2, rng)
        psi = random_statevector(2, rng)

        def rebuilt(n):
            raise AssertionError("a run rebuilt the Sylvester matrix")

        monkeypatch.setattr(lcc, "_hadamard_matrix", rebuilt)
        for form, extended in ((run_lcc, True), (run_lcc_controlled_form, False)):
            pre, p, out = blockwise_reference(spec, psi, extended)
            res = form(spec, statevector(psi))
            assert np.abs(res.pre_measurement_state.data - pre).max() < 1e-12
            assert abs(res.success_probability - p) < 1e-12


class TestControlledForm:
    def test_matches_extended_circuit(self):
        rng = np.random.default_rng(6)
        for n, d in ((2, 2), (4, 2), (2, 4), (8, 2)):
            spec = random_unitary_combination_spec(n, d, rng)
            psi = statevector(random_statevector(d, rng))
            a = run_lcc(spec, psi)
            b = run_lcc_controlled_form(spec, psi)
            assert abs(a.success_probability - b.success_probability) < 1e-12
            assert vector_phase_distance(a.output_state.data,
                                         b.output_state.data) < 1e-12

    def test_selects_first_gate(self):
        rng = np.random.default_rng(7)
        u = haar_random_unitary(2, rng)
        spec = LinearCombinationSpec((1.0, 0.0, 0.0, 0.0),
                                     (u, SX, SZ, HADAMARD))
        psi = random_statevector(2, rng)
        res = run_lcc_controlled_form(spec, statevector(psi))
        assert abs(res.success_probability - 0.25) < 1e-12
        want = u @ psi
        assert vector_phase_distance(res.output_state.data,
                                     want / np.linalg.norm(want)) < 1e-10


class TestCuLinearSpec:
    def test_identity(self):
        spec = cu_linear_spec(ID2)
        assert np.abs(spec.combination() - np.eye(4)).max() < 1e-12

    def test_x_gives_cnot(self):
        spec = cu_linear_spec(SX)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        assert np.abs(spec.combination() - cnot).max() < 1e-12

    def test_one_control_qubit(self):
        rng = np.random.default_rng(8)
        u = haar_random_unitary(4, rng)
        spec = cu_linear_spec(u)
        assert spec.n == 2
        assert spec.k == 1

    def test_runs_through_circuit(self):
        rng = np.random.default_rng(9)
        u = haar_random_unitary(2, rng)
        spec = cu_linear_spec(u)
        psi = random_statevector(4, rng)
        res = run_lcc(spec, statevector(psi))
        want = spec.combination() @ psi
        want = want / np.linalg.norm(want)
        assert vector_phase_distance(res.output_state.data, want) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            cu_linear_spec(np.diag([1.0, 0.0]))


class TestSuccessProbabilityHelper:
    def test_matches_simulation(self):
        rng = np.random.default_rng(10)
        spec = gates.combination_spec("U12")  # non-unitary combination
        psi = statevector(random_statevector(2, rng))
        res = run_lcc(spec, psi)
        assert abs(lcc_success_probability(spec, psi)
                   - res.success_probability) < 1e-12

    def test_checks_its_input_like_the_circuits(self):
        spec = gates.combination_spec("U2")
        # a norm of 2 would read as a probability near 2
        for form in (lcc_success_probability, run_lcc):
            with pytest.raises(InvalidInputError, match="normalized"):
                form(spec, statevector([2.0, 0.0]))
            with pytest.raises(DimensionMismatchError):
                form(spec, basis_state((3,), (0,)))

    def test_overflow_raises_like_the_circuits(self):
        # |sum alpha_j V_j psi|^2 = 2e616 overflows to inf, which both
        # circuit forms reject
        spec = LinearCombinationSpec((R2, R2), (1e308 * ID2, 1e308 * ID2))
        for form in (lcc_success_probability, run_lcc, run_lcc_controlled_form):
            with pytest.raises(InvalidInputError,
                               match="the success probability overflows"):
                form(spec, basis_state((2,), (0,)))


class TestJsonFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        spec = random_unitary_combination_spec(4, 2, rng)
        psi = statevector(random_statevector(2, rng))
        text = spec_to_json(spec, psi)
        back, state = spec_from_json(text)
        assert np.abs(np.array(back.coefficients)
                      - np.array(spec.coefficients)).max() < 1e-12
        for g1, g2 in zip(back.gates, spec.gates):
            assert np.abs(g1 - g2).max() < 1e-12
        assert np.abs(state.data - psi.data).max() < 1e-12

    def test_named_gates(self):
        doc = {"coefficients": [[R2, 0.0], [R2, 0.0]], "gates": ["A", "B"]}
        spec, _ = spec_from_json(json.dumps(doc), gate_registry=gates.GATES)
        assert np.abs(spec.combination() - gates.gate("U2")).max() < 1e-12

    def test_unknown_name_rejected(self):
        doc = {"coefficients": [[1.0, 0.0], [0.0, 0.0]], "gates": ["A", "NOPE"]}
        with pytest.raises(InvalidInputError):
            spec_from_json(json.dumps(doc), gate_registry=gates.GATES)

    @pytest.mark.parametrize("registry", [gates.GATES, None])
    def test_unknown_name_has_its_own_type(self, registry):
        # the CLI tells exit 5 from exit 3 by this type
        doc = {"coefficients": [[R2, 0.0], [R2, 0.0]], "gates": ["A", "NOPE"]}
        with pytest.raises(qcore.UnknownNameError, match="unknown gate name"):
            spec_from_json(json.dumps(doc), gate_registry=registry)
