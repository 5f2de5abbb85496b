import ast
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cu_linear_spec, random_statevector,
                      random_unitary_combination_spec)
from lccsim import gates, protocol
from lccsim.gates import A_GATE, B_GATE
from lccsim.lcc import LinearCombinationSpec
from lccsim.qcore import (ID2, InvalidInputError, SX, SZ,
                          basis_state, haar_random_unitary,
                          statevector, tensor)

R2 = 1.0 / math.sqrt(2)


def qubit_with_epr(vec):
    return tensor(statevector(vec, dims=(2,)), protocol.epr_pair())


def pure_policy(coeffs, epsilon=1.0, tau=0.5):
    c = np.asarray(coeffs, dtype=complex)
    return protocol.SendPolicy(epsilon=epsilon, tau=tau,
                               control_rho=np.outer(c, c.conj()))


def reference_session(spec, input_state, policy, behavior, rounds, rng):
    """The per-round session loop `run_session` replaced: one RoundRecord
    per round, from the same draws in the same order, with each round's
    numbers taken from `_teleport_stage`.  One draw picks a round's sent
    state e and server outcome: none, with probability send_probs[e]
    (1 - f), or outcome m of its measurement in the basis B, with
    probability send_probs[e] f |<B_m|sent_e>|^2.  A server that skips
    its measurement measures every control in the z basis (f = 1) and
    intercepts none."""
    skip = behavior.mode == "skip_measurement"
    f = (1.0 if skip else behavior.intercept_fraction
         if behavior.mode == "intercept" else 0.0)
    entries, send_probs = policy.outcome_table()
    sent = np.array([vec for _, vec in entries])
    single = (np.eye(2) if skip or behavior.intercept_basis == "z"
              else protocol.HADAMARD)
    basis_vecs = np.eye(1, dtype=complex)
    for _ in range(spec.k):
        basis_vecs = np.kron(basis_vecs, single)
    p_lcc, expected, outputs, p_complete = protocol._teleport_stage(
        spec, input_state, np.concatenate([sent, basis_vecs.T]))
    target = spec.combination() @ input_state.data
    target = target / np.linalg.norm(target) if np.linalg.norm(target) > 1e-300 else None

    # (kind, verify index, intercepted, output row) per pair
    pairs, pair_probs = [], []
    for e, (label, vec) in enumerate(entries):
        kind = label if isinstance(label, str) else label[0]
        verify_index = label[1] if kind == "verify" else None
        pairs.append((kind, verify_index, False, e))
        pair_probs.append(send_probs[e] * (1.0 - f))
        for m in range(spec.n):
            pairs.append((kind, verify_index, not skip, len(entries) + m))
            pair_probs.append(send_probs[e] * f
                              * abs(np.vdot(basis_vecs[:, m], vec)) ** 2)

    pair_arr = rng.choice(len(pairs), size=rounds, p=pair_probs)
    retries_arr = (rng.geometric(p_lcc, size=rounds) if p_lcc > 0
                   else np.zeros(rounds, dtype=int))
    u_complete = rng.random(rounds)
    u_detect = rng.random(rounds)

    records = []
    for r in range(rounds):
        kind, verify_index, intercepted, row = pairs[pair_arr[r]]
        out = outputs[row]
        completed = bool(p_lcc > 0 and out.any() and u_complete[r] < p_complete[row])

        fidelity = None
        detected = False
        if completed:
            # a fidelity is capped at 1, where rounding can carry it past
            if kind == "verify" and expected[verify_index].any():
                fidelity = min(1.0, float(abs(np.vdot(expected[verify_index], out)) ** 2))
                detected = bool(u_detect[r] > fidelity)
            elif kind == "compute" and target is not None:
                fidelity = min(1.0, float(abs(np.vdot(target, out)) ** 2))
        records.append(protocol.RoundRecord(
            r, kind, verify_index, intercepted, int(retries_arr[r]), completed,
            fidelity, detected))
    return records


def reference_summary(records):
    """Summary of `reference_session` records; the mean compute fidelity
    counts the completed compute rounds that have a fidelity."""
    total = len(records)
    kinds = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    completed = sum(r.completed for r in records)
    comp = [r for r in records if r.kind == "compute" and r.completed
            and r.fidelity is not None]
    return {
        "rounds": total,
        "completed": completed,
        "detections": sum(r.detected for r in records),
        "kind_counts": dict(sorted(kinds.items())),
        "empirical_completion": (completed / total) if total else 0.0,
        "mean_compute_fidelity": (
            sum(r.fidelity for r in comp) / len(comp) if comp else None),
    }


def reference_text(records):
    lines = []
    for r in records:
        vi = "-" if r.verify_index is None else str(r.verify_index)
        fid = "-" if r.fidelity is None else f"{r.fidelity:.12f}"
        lines.append(f"round={r.index} kind={r.kind} verify_index={vi} "
                     f"intercepted={int(r.intercepted)} lcc_retries={r.lcc_retries} "
                     f"completed={int(r.completed)} fidelity={fid} "
                     f"detected={int(r.detected)}")
    s = reference_summary(records)
    lines.append("# summary")
    for key in sorted(s):
        lines.append(f"# {key}={s[key]!r}")
    return "\n".join(lines) + "\n"


@st.composite
def session_cases(draw):
    """A spec, input, policy, behaviour, round count and seed: random
    n-term specs, a term that annihilates the input, terms that all
    annihilate it, and a combination that vanishes on it."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    case = draw(st.sampled_from(["random", "random", "annihilating",
                                 "all annihilating", "vanishing"]))
    if case == "random":
        n = draw(st.sampled_from([2, 4]))
        d = draw(st.sampled_from([2, 4]))
        spec = random_unitary_combination_spec(n, d, rng)
        psi = statevector(random_statevector(d, rng))
    elif case == "annihilating":
        spec, psi = cu_linear_spec(SX), basis_state((2, 2), (0, 0))
    elif case == "all annihilating":  # the LCC stage never succeeds
        p1 = np.diag([0.0, 1.0])
        spec = LinearCombinationSpec((R2, R2), (p1, p1))
        psi = basis_state((2,), (0,))
    else:
        n = draw(st.sampled_from([2, 4]))
        spec = LinearCombinationSpec(np.resize([1, -1], n) / math.sqrt(n),
                                     (ID2,) * n)
        psi = statevector(random_statevector(2, rng))
    control = draw(st.sampled_from(["coefficients", "pure", "mixed"]))
    if control == "coefficients":
        rho = np.outer(spec.coefficients, spec.coefficients.conj())
    elif control == "pure":
        v = random_statevector(spec.n, rng)
        rho = np.outer(v, v.conj())
    else:
        w = rng.random(spec.n)
        q = haar_random_unitary(spec.n, rng)
        rho = (q * (w / w.sum())) @ q.conj().T
    epsilon = draw(st.floats(0.05, 1.0)) / (spec.n - 1)
    policy = protocol.SendPolicy(epsilon=epsilon, tau=draw(st.floats(0.05, 0.95)),
                                 control_rho=rho)
    behavior = protocol.ServerBehavior(
        mode=draw(st.sampled_from(["honest", "intercept", "skip_measurement"])),
        intercept_fraction=draw(st.sampled_from([0.0, 1.0, rng.random()])),
        intercept_basis=draw(st.sampled_from(["x", "z"])))
    rounds = draw(st.sampled_from([0, 1, int(rng.integers(2, 3001))]))
    return spec, psi, policy, behavior, rounds, seed


class TestTeleportPostselected:
    def test_basis_state(self):
        out = protocol.teleport_postselected(qubit_with_epr([1, 0]), 0, (1, 2))
        assert abs(out.probability - 0.25) < 1e-12
        assert np.allclose(out.remainder.data, [1, 0])

    def test_all_bell_outcomes(self):
        rng = np.random.default_rng(0)
        v = random_statevector(2, rng)
        st = qubit_with_epr(v)
        st = protocol.apply_to_subsystems(st, protocol._CNOT, [0, 1])
        st = protocol.apply_to_subsystems(st, protocol.HADAMARD, [0])
        paulis = {(0, 0): ID2, (0, 1): SX, (1, 0): SZ, (1, 1): SZ @ SX}
        for outcome, frame in paulis.items():
            branch = protocol.measure_postselect(st, [0, 1], outcome)
            assert abs(branch.probability - 0.25) < 1e-12
            fixed = frame @ branch.remainder.data
            assert abs(abs(np.vdot(fixed, v)) - 1.0) < 1e-12

    def test_lcc_then_teleport_reproduces_combination(self):
        # one-control walkthrough: EPR-conditioned A/B on the register,
        # then the client teleports (alpha, beta) with (0,0) postselection
        alpha, beta = 0.6, 0.8j
        st = protocol.cheating_server_state(A_GATE, B_GATE,
                                            basis_state((2,), (0,)),
                                            alpha, beta)
        # server completes its measurement: Hadamard + postselect 0
        st = protocol.apply_to_subsystems(st, protocol.HADAMARD, [0])
        out = protocol.measure_postselect(st, [0], (0,))
        want = (alpha * A_GATE + beta * B_GATE) @ np.array([1, 0])
        want = want / np.linalg.norm(want)
        assert abs(abs(np.vdot(out.remainder.data, want)) - 1.0) < 1e-10


class TestMakeDecoy:
    def test_two_dim_example(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho_m = protocol.make_decoy(rho, 2, 1.0)
        assert np.abs(rho_m - np.diag([0.0, 1.0])).max() < 1e-12

    def test_mixture_identity(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 8):
            for eps in (1.0 / (n - 1), 0.5 / (n - 1)):
                v = random_statevector(n, rng)
                pure = np.outer(v, v.conj())
                w = rng.random(n)
                w /= w.sum()
                q = haar_random_unitary(n, rng)
                mixed = (q * w) @ q.conj().T
                for rho in (pure, mixed):
                    assert protocol.verify_decoy_identity(rho, eps) < 1e-12
                    for tau in (0.25, 0.5, 0.75):
                        assert protocol.verify_decoy_identity(
                            rho, eps, tau) < 1e-12

    def test_pure_state_eigenvalues(self):
        rng = np.random.default_rng(5)
        v = random_statevector(4, rng)
        rho_m = protocol.make_decoy(np.outer(v, v.conj()), 4, 1.0 / 3.0)
        evals = np.sort(np.linalg.eigvalsh(rho_m))
        assert np.abs(evals - np.array([0, 1 / 3, 1 / 3, 1 / 3])).max() < 1e-12

    def test_epsilon_range(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(InvalidInputError):
            protocol.make_decoy(rho, 4, 0.5)  # above 1/(n-1)
        with pytest.raises(InvalidInputError):
            protocol.make_decoy(rho, 4, 0.0)

    def test_one_term_control(self):
        # the decoy of a 1x1 control is [[1]] for every epsilon > 0
        rho = np.eye(1)
        for eps in (0.5, 1.0, 7.0):
            assert np.array_equal(protocol.make_decoy(rho, 1, eps), [[1.0]])
        assert protocol.verify_decoy_identity(rho, 0.5, 0.3) == 0
        for eps in (0.0, -1.0):
            with pytest.raises(InvalidInputError, match="positive"):
                protocol.make_decoy(rho, 1, eps)


class TestSendPolicy:
    def test_probability_split(self):
        pol = pure_policy([1, 0], epsilon=1.0, tau=0.5)
        assert abs(pol.p_control - 0.25) < 1e-12
        assert abs(pol.p_decoy - 0.25) < 1e-12
        assert abs(pol.p_basis - 0.25) < 1e-12
        total = pol.p_control + pol.p_decoy + pol.n * pol.p_basis
        assert abs(total - 1.0) < 1e-12

    def test_compute_probability_is_half_n(self):
        # tau = 1/2 and epsilon = 1/(n-1) give p_compute = 1/(2n)
        for n in (2, 4, 8):
            rng = np.random.default_rng(n)
            c = random_statevector(n, rng)
            pol = protocol.SendPolicy(epsilon=1.0 / (n - 1), tau=0.5,
                                      control_rho=np.outer(c, c.conj()))
            assert abs(pol.p_control - 1.0 / (2 * n)) < 1e-12

    def test_outcome_table_average(self):
        rng = np.random.default_rng(6)
        c = random_statevector(4, rng)
        pol = protocol.SendPolicy(epsilon=1.0 / 3.0, tau=0.5,
                                  control_rho=np.outer(c, c.conj()))
        entries, probs = pol.outcome_table()
        avg = sum(p * np.outer(v, v.conj()) for p, (_, v) in zip(probs, entries))
        assert np.abs(avg - np.eye(4) / 4.0).max() < 1e-12

    def test_no_state_at_rounding_noise_weight(self):
        # at epsilon = 1 a pure control's decoy weight on the control
        # itself is 0, which rounding can leave at 5.55e-17
        for name in gates.COMBINATIONS:
            pol = pure_policy(gates.combination_spec(name).coefficients,
                              epsilon=1.0)
            entries, probs = pol.outcome_table()
            assert [label for label, _ in entries] == [
                "compute", "decoy", ("verify", 0), ("verify", 1)], name
            assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("rho", [
        0.5 * np.diag([1.0, 0.0]),            # trace 1/2
        np.array([[0.5, 0.5], [0.5, 0.2]]),   # trace 0.7, eigenvalue -0.17
        np.array([[0.5, 0.5], [0.1, 0.5]]),   # not Hermitian
        np.array([[1.2, 0.0], [0.0, -0.2]]),  # trace 1, eigenvalue -0.2
    ])
    def test_control_must_be_a_density_matrix(self, rho):
        # the decoy identity holds for any rho, so it cannot catch these
        assert protocol.verify_decoy_identity(rho, 0.5) < 1e-12
        with pytest.raises(InvalidInputError):
            protocol.SendPolicy(epsilon=0.5, tau=0.5, control_rho=rho)

    def test_empirical_average(self):
        rng = np.random.default_rng(7)
        c = random_statevector(2, rng)
        pol = protocol.SendPolicy(epsilon=1.0, tau=0.5,
                                  control_rho=np.outer(c, c.conj()))
        avg = protocol.empirical_server_average(pol, 100000, rng)
        assert np.abs(avg - np.eye(2) / 2.0).max() < 0.01

    @pytest.mark.parametrize("samples", [0, -1])
    def test_empirical_average_needs_a_sample(self, samples):
        # no sample would divide zero by zero
        pol = pure_policy([R2, R2])
        with pytest.raises(InvalidInputError, match="samples"):
            protocol.empirical_server_average(pol, samples,
                                              np.random.default_rng(0))


class TestRunSession:
    def spec_and_input(self):
        spec = LinearCombinationSpec((R2, 1j * R2), (A_GATE, B_GATE))
        return spec, basis_state((2,), (0,))

    def test_one_term_session(self):
        spec = LinearCombinationSpec((1.0,), (SX,))
        pol = protocol.SendPolicy(0.5, 0.5, np.eye(1))
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
        tr = protocol.run_session(spec, basis_state((2,), (0,)), pol, beh, 20,
                                  np.random.default_rng(3))
        assert tr.completed_rounds == 20
        assert tr.detection_events == 0

    def test_honest_no_detections(self):
        spec, psi = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        tr = protocol.run_session(spec, psi, pol, protocol.ServerBehavior(),
                                  100, np.random.default_rng(8))
        assert tr.detection_events == 0
        for rec in tr.rounds:
            if rec.kind == "compute" and rec.completed:
                assert rec.fidelity > 1 - 1e-10

    def test_transcript_determinism(self):
        spec, psi = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=0.7)
        a = protocol.run_session(spec, psi, pol, beh, 300,
                                 np.random.default_rng(9)).to_text()
        b = protocol.run_session(spec, psi, pol, beh, 300,
                                 np.random.default_rng(9)).to_text()
        assert a == b

    def test_intercept_rate_matches_analytic(self):
        spec, psi = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
        rate = protocol.intercept_detection_rate(spec, psi, pol, beh)
        rounds = 60000
        tr = protocol.run_session(spec, psi, pol, beh, rounds,
                                  np.random.default_rng(10))
        emp = tr.detection_events / rounds
        sigma = math.sqrt(rate * (1 - rate) / rounds)
        assert abs(emp - rate) < 3 * sigma

    def test_rate_finite_when_a_term_annihilates_the_input(self):
        # a verify round whose V_i annihilates psi has no state to audit
        p0 = math.sqrt(2) * (ID2 + SZ) / 2
        cases = [(cu_linear_spec(SX), basis_state((2, 2), (0, 0)), 1.0),
                 (LinearCombinationSpec((0.5,) * 4, (ID2, SX, SZ, p0)),
                  basis_state((2,), (1,)), 1 / 3)]
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
        rounds = 40000
        for spec, psi, epsilon in cases:
            pol = pure_policy(spec.coefficients, epsilon=epsilon)
            rate = protocol.intercept_detection_rate(spec, psi, pol, beh)
            assert math.isfinite(rate)
            tr = protocol.run_session(spec, psi, pol, beh, rounds,
                                      np.random.default_rng(14))
            emp = tr.detection_events / rounds
            assert abs(emp - rate) <= 3 * math.sqrt(rate * (1 - rate) / rounds)

    def test_computational_basis_intercept_undetected(self):
        # verify states are computational-basis states, so a Z-basis
        # intercept is invisible
        spec, psi = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0,
                                      intercept_basis="z")
        assert protocol.intercept_detection_rate(spec, psi, pol, beh) < 1e-12

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    def test_z_basis_rate_not_negative(self, name):
        # the exact rate is 0; 1 - |<V_i psi|out_m>|^2 can round to -2e-16
        spec = gates.combination_spec(name)
        pol = pure_policy(spec.coefficients, epsilon=0.5, tau=0.6)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=0.7,
                                      intercept_basis="z")
        for amps in ([1, 0], [0, 1], [R2, 1j * R2]):
            rate = protocol.intercept_detection_rate(
                spec, statevector(amps), pol, beh)
            assert 0.0 <= rate < 1e-12, (name, amps, rate)

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    def test_fidelities_within_unit_interval(self, name):
        # rounding can carry |<ref|out>|^2 to 1.0000000000000002
        spec = gates.combination_spec(name)
        pol = pure_policy(spec.coefficients, epsilon=0.5, tau=0.6)
        for beh in (protocol.ServerBehavior(),
                    protocol.ServerBehavior(mode="intercept",
                                            intercept_fraction=0.7,
                                            intercept_basis="z")):
            tr = protocol.run_session(spec, basis_state((2,), (0,)), pol, beh,
                                      500, np.random.default_rng(7))
            fids = [r.fidelity for r in tr.rounds if r.fidelity is not None]
            assert fids and all(0.0 <= f <= 1.0 for f in fids), name
            assert 0.0 <= tr.summary()["mean_compute_fidelity"] <= 1.0, name

    @pytest.mark.parametrize("mode", ["honest", "skip_measurement"])
    def test_no_detection_rate_without_intercept(self, mode):
        spec, psi = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode=mode, intercept_fraction=0.8)
        assert protocol.intercept_detection_rate(spec, psi, pol, beh) == 0.0
        tr = protocol.run_session(spec, psi, pol, beh, 2000,
                                  np.random.default_rng(1))
        assert tr.detection_events == 0

    def test_terms_too_large_rejected(self):
        # 3 I and 3 X give S = 18, so the LCC stage would succeed with
        # probability S / n^2 = 4.5
        spec = LinearCombinationSpec((R2, R2), (3 * ID2, 3 * SX))
        psi = basis_state((2,), (0,))
        policy = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=0.5)
        with pytest.raises(InvalidInputError, match=r"S/n\^2 = 4\.5 > 1"):
            protocol.run_session(spec, psi, policy, beh, 10,
                                 np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match=r"S/n\^2 = 4\.5 > 1"):
            protocol.intercept_detection_rate(spec, psi, policy, beh)

    def test_overflowing_terms_rejected_without_warnings(self):
        # |1e308 psi|^2 overflows, so S / n^2 is inf: each caller of the
        # teleport stage raises, and numpy prints no RuntimeWarning
        spec = LinearCombinationSpec((R2, R2), (1e308 * ID2, 1e308 * ID2))
        psi, policy = basis_state((2,), (0,)), pure_policy((R2, R2))
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=0.5)
        for call in (lambda: protocol.run_session(spec, psi, policy, beh, 10,
                                                  np.random.default_rng(0)),
                     lambda: protocol.intercept_detection_rate(spec, psi,
                                                               policy, beh),
                     lambda: protocol.monte_carlo_success(
                         spec, psi, 10, np.random.default_rng(0))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError,
                                   match=r"S/n\^2 = inf > 1"):
                    call()

    def test_one_term_unitary_stage_succeeds_at_once(self):
        # |V psi|^2 of a unitary V often rounds to just past 1
        rng = np.random.default_rng(20)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=0.5)
        for _ in range(20):
            spec = LinearCombinationSpec((1.0,), (haar_random_unitary(2, rng),))
            psi = statevector(random_statevector(2, rng))
            tr = protocol.run_session(spec, psi, protocol.SendPolicy(
                0.5, 0.5, np.eye(1)), beh, 5, rng)
            assert tr.lcc_retries.tolist() == [1] * 5
            assert protocol.monte_carlo_success(spec, psi, 5, rng) == 1.0

    def test_dimension_mismatch(self):
        spec, _ = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        with pytest.raises(protocol.qcore.DimensionMismatchError):
            protocol.run_session(spec, basis_state((4,), (0,)), pol,
                                 protocol.ServerBehavior(), 10,
                                 np.random.default_rng(0))

    def test_policy_size_mismatch(self):
        spec, psi = self.spec_and_input()
        pol = pure_policy([0.5] * 4, epsilon=1 / 3)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
        with pytest.raises(protocol.qcore.DimensionMismatchError):
            protocol.intercept_detection_rate(spec, psi, pol, beh)
        with pytest.raises(protocol.qcore.DimensionMismatchError):
            protocol.run_session(spec, psi, pol, beh, 10,
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("amps", [[3, 0], [0.5, 0], [0, 0], [R2, 0.5]])
    def test_unnormalized_input_rejected(self, amps):
        # a norm of 3 makes p_lcc exceed 1, a norm of 0.5 shrinks it 4x,
        # and the zero vector completes no round
        spec, _ = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        psi = statevector(amps)
        for mode in ("honest", "intercept", "skip_measurement"):
            beh = protocol.ServerBehavior(mode=mode, intercept_fraction=1.0)
            with pytest.raises(InvalidInputError, match="normalized"):
                protocol.run_session(spec, psi, pol, beh, 10,
                                     np.random.default_rng(0))
            with pytest.raises(InvalidInputError, match="normalized"):
                protocol.intercept_detection_rate(spec, psi, pol, beh)

    def test_norm_within_tolerance_accepted(self):
        spec, _ = self.spec_and_input()
        pol = pure_policy(spec.coefficients)
        beh = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
        psi = statevector([1 + 5e-10, 0])
        tr = protocol.run_session(spec, psi, pol, beh, 10,
                                  np.random.default_rng(0))
        assert len(tr.rounds) == 10
        assert protocol.intercept_detection_rate(spec, psi, pol, beh) > 0

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    @pytest.mark.parametrize("basis", [None, "x", "z"])
    def test_counts_match_the_law(self, name, basis):
        # every count of one session is binomial with p = sum of its
        # cells' q (times p_complete, times 1 - F); 4 sigma, because 180
        # checks at 3 sigma would expect a chance miss
        spec, psi, policy, behavior = registry_case(name, basis)
        rounds = 20000
        seed = [int(name[1:]), [None, "x", "z"].index(basis)]
        tr = protocol.run_session(spec, psi, policy, behavior, rounds,
                                  np.random.default_rng(seed))
        cells = tr.cells
        expected = {kind: sum(c.q for c in cells if c.kind == kind)
                    for kind in ("compute", "decoy", "verify")}
        expected["completed"] = sum(c.q * c.p_complete for c in cells)
        expected["detections"] = sum(
            c.q * c.p_complete * (1.0 - c.fidelity) for c in cells
            if c.kind == "verify" and c.fidelity is not None)
        s = tr.summary()
        counts = {kind: s["kind_counts"].get(kind, 0)
                  for kind in ("compute", "decoy", "verify")}
        counts["completed"] = s["completed"]
        counts["detections"] = s["detections"]
        for key, p in expected.items():
            sigma = math.sqrt(rounds * p * max(1.0 - p, 0.0))
            assert abs(counts[key] - rounds * p) <= 4 * sigma, (key, p)
        assert abs(tr.analytic_detection_rate - expected["detections"]) < 1e-15


def registry_case(name, basis):
    """A registry operation's spec, a fixed input and policy, and an
    honest server (basis None) or one that intercepts 70% of rounds in
    the x or z basis."""
    spec = gates.combination_spec(name)
    psi = statevector([math.cos(0.3), np.exp(0.7j) * math.sin(0.3)])
    policy = pure_policy(spec.coefficients, epsilon=0.5, tau=0.6)
    behavior = (protocol.ServerBehavior() if basis is None else
                protocol.ServerBehavior(mode="intercept", intercept_fraction=0.7,
                                        intercept_basis=basis))
    return spec, psi, policy, behavior


def round_case(n, d, unitary, seed=None):
    """A random n-term spec on a d-dim register, unitary terms or not,
    a random input, and a pure policy on the coefficients."""
    # non-unitary terms have S = sum_j |V_j psi|^2 != n, where a
    # completion of |w|^2 / n^2 is off by n / S
    rng = np.random.default_rng(100 * n + 10 * d + unitary if seed is None
                                else seed)
    terms = []
    for _ in range(n):
        if unitary:
            terms.append(haar_random_unitary(d, rng))
        else:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            terms.append(g / np.linalg.norm(g, 2) * rng.uniform(0.3, 1.0))
    spec = LinearCombinationSpec(random_statevector(n, rng), terms)
    psi = statevector(random_statevector(d, rng))
    policy = pure_policy(spec.coefficients,
                         epsilon=0.5 / max(n - 1, 1), tau=0.5)
    return spec, psi, policy


def intercepted_control(control, basis, m):
    """The server measures the k control qubits one by one in the x or z
    basis.  Returns the probability of outcome m (its bits, first qubit
    most significant) and the control state that outcome leaves."""
    k = len(control).bit_length() - 1
    bits = [(m >> (k - 1 - q)) & 1 for q in range(k)]
    st = statevector(control, dims=(2,) * k)
    post = basis_state((2,) * k, bits)
    if basis == "x":  # rotate the x basis onto the z basis and back
        for q in range(k):
            st = protocol.apply_to_subsystems(st, protocol.HADAMARD, [q])
            post = protocol.apply_to_subsystems(post, protocol.HADAMARD, [q])
    return protocol.measure_postselect(st, range(k), bits).probability, post.data


def state_level_round(spec, psi, control):
    """One honest round on the full register: the client's control
    qubits c, EPR pairs (a, b) between client and server, and the
    server's register.  The server applies V_j conditioned on its halves
    b = j, Hadamards them and postselects all zeros; then the client
    Bell-measures each c against its a with postselection.  Returns the
    LCC stage's probability, the teleports' probability given it, and
    the register's state."""
    n, d, k = spec.n, spec.d, spec.k
    st = tensor(statevector(control, dims=(2,) * k),
                *[protocol.epr_pair()] * k, psi)
    halves, register = [k + 2 * q + 1 for q in range(k)], 3 * k
    select = np.zeros((n * d, n * d), dtype=complex)
    for j, g in enumerate(spec.gates):
        select[j * d:(j + 1) * d, j * d:(j + 1) * d] = g
    st = protocol.apply_to_subsystems(st, select, halves + [register])
    for b in halves:
        st = protocol.apply_to_subsystems(st, protocol.HADAMARD, [b])
    lcc = protocol.measure_postselect(st, halves, (0,) * k)
    st, p_teleport = lcc.remainder, 1.0
    for q in range(k):
        # c_q is now subsystem 0 and a_q subsystem k - q; b_q is measured
        # already, so the register, subsystem 2(k - q), receives c_q
        out = protocol.teleport_postselected(st, 0, (k - q, 2 * (k - q)))
        st, p_teleport = out.remainder, p_teleport * out.probability
    return lcc.probability, p_teleport, st.data


class TestStateLevelRound:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("unitary", [True, False])
    def test_honest_round_matches_circuit(self, n, d, unitary):
        spec, psi, policy = round_case(n, d, unitary)
        entries, _ = policy.outcome_table()
        assert {label if isinstance(label, str) else label[0]
                for label, _ in entries} == {"compute", "decoy", "verify"}
        sent = np.array([vec for _, vec in entries])
        p_lcc, _, outputs, p_complete = protocol._teleport_stage(spec, psi, sent)
        cells = protocol.run_session(spec, psi, policy,
                                     protocol.ServerBehavior(), 0,
                                     np.random.default_rng(0)).cells
        for e, (label, vec) in enumerate(entries):
            p_lcc_circuit, p_teleport, out = state_level_round(spec, psi, vec)
            assert abs(p_lcc_circuit - p_lcc) < 1e-12
            assert abs(p_teleport - p_complete[e]) < 1e-12
            assert abs(abs(np.vdot(outputs[e], out)) ** 2 - 1.0) < 1e-12
            if label == "compute":
                want = spec.combination() @ psi.data
            elif label == "decoy":
                assert cells[e * (n + 1)].fidelity is None
                continue
            else:
                want = spec.gates[label[1]] @ psi.data
            fidelity = abs(np.vdot(want / np.linalg.norm(want), out)) ** 2
            assert abs(cells[e * (n + 1)].fidelity - fidelity) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("unitary", [True, False])
    @pytest.mark.parametrize("basis", ["x", "z"])
    def test_intercepted_round_matches_circuit(self, n, d, unitary, basis):
        # the server measures the control before use, so the round runs
        # with the outcome's basis state in place of the sent control
        spec, psi, policy = round_case(n, d, unitary)
        f = 0.7
        behavior = protocol.ServerBehavior(mode="intercept",
                                           intercept_fraction=f,
                                           intercept_basis=basis)
        entries, send_probs = policy.outcome_table()
        cells = protocol.run_session(spec, psi, policy, behavior, 0,
                                     np.random.default_rng(0)).cells
        assert len(cells) == len(entries) * (n + 1)
        for e, (label, vec) in enumerate(entries):
            kind = label if isinstance(label, str) else label[0]
            assert not cells[e * (n + 1)].intercepted
            assert abs(cells[e * (n + 1)].q - send_probs[e] * (1 - f)) < 1e-12
            for m in range(n):
                cell = cells[e * (n + 1) + 1 + m]
                assert cell.intercepted and cell.kind == kind
                p_outcome, control = intercepted_control(vec, basis, m)
                assert abs(cell.q - send_probs[e] * f * p_outcome) < 1e-12
                _, p_teleport, out = state_level_round(spec, psi, control)
                assert abs(cell.p_complete - p_teleport) < 1e-12
                if kind == "decoy":
                    assert cell.fidelity is None
                    continue
                want = (spec.combination() @ psi.data if kind == "compute"
                        else spec.gates[label[1]] @ psi.data)
                fidelity = abs(np.vdot(want / np.linalg.norm(want), out)) ** 2
                assert abs(cell.fidelity - fidelity) < 1e-12

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    @pytest.mark.parametrize("basis", [None, "x", "z"])
    def test_cell_probabilities_sum_to_one(self, name, basis):
        cells = protocol._session_law(*registry_case(name, basis))[1]
        assert abs(sum(c.q for c in cells) - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3]),
           st.booleans(),
           st.sampled_from([("honest", "x"), ("intercept", "x"),
                            ("intercept", "z"), ("skip_measurement", "x")]),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_analytic_completion_is_one_over_n_squared(self, n, d, unitary,
                                                       server, f, seed):
        # the controls average to I/n, and so do their outcomes in any
        # measured basis: a round completes with E|w|^2 / (n S), where
        # E|w|^2 = S / n
        spec, psi, policy = round_case(n, d, unitary, seed)
        behavior = protocol.ServerBehavior(mode=server[0], intercept_fraction=f,
                                           intercept_basis=server[1])
        tr = protocol.run_session(spec, psi, policy, behavior, 0,
                                  np.random.default_rng(0))
        assert abs(tr.analytic_completion - 1.0 / n ** 2) < 1e-12

    @pytest.mark.parametrize("name", sorted(gates.COMBINATIONS))
    def test_skip_measurement_law_matches_cheating_server(self, name):
        # a server that skips its measurement holds
        # alpha |0> A psi + beta |1> B psi: its register alone is what a
        # z-basis measurement of the control leaves, so the completed
        # compute rounds' mean fidelity is <t|rho|t>
        spec, psi, policy, _ = registry_case(name, None)
        cells = protocol._session_law(
            spec, psi, policy, protocol.ServerBehavior("skip_measurement"))[1]
        compute = [c for c in cells if c.kind == "compute"]
        mean = (sum(c.q * c.p_complete * c.fidelity for c in compute)
                / sum(c.q * c.p_complete for c in compute))
        held = protocol.cheating_server_state(*spec.gates, psi,
                                              *spec.coefficients)
        h = held.data.reshape(2, spec.d)
        rho = h.T @ h.conj()  # the server's qubit traced out
        t = spec.combination() @ psi.data
        t /= np.linalg.norm(t)
        assert abs(mean - (t.conj() @ rho @ t).real) < 1e-12
        assert not any(c.intercepted for c in cells)


class TestColumnarTranscript:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(session_cases())
    def test_matches_reference_session(self, case):
        spec, psi, policy, behavior, rounds, seed = case
        tr = protocol.run_session(spec, psi, policy, behavior, rounds,
                                  np.random.default_rng(seed))
        records = reference_session(spec, psi, policy, behavior, rounds,
                                    np.random.default_rng(seed))
        assert tr.to_text() == reference_text(records)
        assert repr(tr.summary()) == repr(reference_summary(records))
        assert list(tr.rounds) == records

    SPEC = LinearCombinationSpec((R2, 1j * R2), (A_GATE, B_GATE))

    def session(self, rounds, reference=False):
        args = (self.SPEC, basis_state((2,), (0,)),
                pure_policy(self.SPEC.coefficients),
                protocol.ServerBehavior(mode="intercept",
                                        intercept_fraction=0.5), rounds)
        tr = protocol.run_session(*args, np.random.default_rng(16))
        if reference:
            return tr, reference_session(*args, np.random.default_rng(16))
        return tr

    @pytest.mark.parametrize("lengths", [(700, 50, 5000), (5000, 50, 700)])
    def test_lengths_in_either_order(self, lengths):
        # no transcript's text depends on one rendered before it
        for rounds in lengths:
            tr, records = self.session(rounds, reference=True)
            assert tr.to_text() == reference_text(records)

    def test_summary_returns_a_fresh_dict(self):
        tr = self.session(300)
        text = tr.to_text()
        first = tr.summary()
        want = repr(first)
        first["kind_counts"]["compute"] = -1
        first["rounds"] = -1
        del first["detections"]
        assert repr(tr.summary()) == want
        assert tr.to_text() == text

    def test_zero_rounds_prints_only_the_summary(self):
        assert self.session(0).to_text() == (
            "# summary\n# completed=0\n# detections=0\n"
            "# empirical_completion=0.0\n# kind_counts={}\n"
            "# mean_compute_fidelity=None\n# rounds=0\n")

    def test_length_and_text_build_no_records(self, monkeypatch):
        def no_records(*args):
            raise AssertionError("a RoundRecord was built")

        monkeypatch.setattr(protocol, "RoundRecord", no_records)
        tr = self.session(700)
        assert len(tr.rounds) == 700
        assert tr.to_text().count("\n") == 700 + 7
        assert tr.summary()["rounds"] == 700

    def test_huge_retry_counts(self):
        # p_lcc = 5e-7, so the LCC stage takes about 10^7 attempts a round;
        # the text must not build a table as long as the largest count.
        # S = 2e-6 as well, so a round then completes with |w|^2 / (n S),
        # a quarter here
        spec = LinearCombinationSpec((R2, R2), (1e-3 * ID2, 1e-3 * SX))
        psi, policy = basis_state((2,), (0,)), pure_policy(spec.coefficients)
        behavior = protocol.ServerBehavior()
        tr = protocol.run_session(spec, psi, policy, behavior, 50,
                                  np.random.default_rng(1))
        assert tr.lcc_retries.max() > 5_000_000
        assert tr.completed_rounds > 0
        tracemalloc.start()
        try:
            text = tr.to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        records = reference_session(spec, psi, policy, behavior, 50,
                                    np.random.default_rng(1))
        assert text == reference_text(records)

    def test_records_hold_plain_python_values(self):
        tr = self.session(400)
        records = list(tr.rounds)
        assert [rec.index for rec in records] == list(range(400))
        types = {field: set() for field in vars(records[0])}
        for rec in records:
            for field, value in vars(rec).items():
                types[field].add(type(value))
                assert ast.literal_eval(repr(value)) == value
        assert types["index"] == types["lcc_retries"] == {int}
        assert types["intercepted"] == types["completed"] == {bool}
        assert types["detected"] == {bool}
        assert types["fidelity"] == {float, type(None)}
        assert types["verify_index"] == {int, type(None)}


class TestCheatingServer:
    def test_bell_like_state(self):
        alpha, beta = 0.6, 0.8
        st = protocol.cheating_server_state(ID2, SX, basis_state((2,), (0,)),
                                            alpha, beta)
        want = np.array([alpha, 0, 0, beta])
        assert np.abs(st.data - want).max() < 1e-12
        assert protocol.schmidt_rank(st) == 2

    def test_alpha_one_product_state(self):
        rng = np.random.default_rng(11)
        phi = statevector(random_statevector(2, rng))
        st = protocol.cheating_server_state(A_GATE, B_GATE, phi, 1.0, 0.0)
        assert protocol.schmidt_rank(st) == 1
        assert np.abs(st.data[:2] - A_GATE @ phi.data).max() < 1e-12
        assert np.abs(st.data[2:]).max() < 1e-12

    def test_generic_schmidt_rank_two(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = haar_random_unitary(2, rng)
            b = haar_random_unitary(2, rng)
            phi = statevector(random_statevector(2, rng))
            c = random_statevector(2, rng)
            st = protocol.cheating_server_state(a, b, phi, c[0], c[1])
            assert protocol.schmidt_rank(st) == 2


class TestNoCloningWitness:
    def test_worked_example(self):
        w = protocol.no_cloning_witness(ID2, SX, basis_state((2,), (0,)),
                                        (1, 0), (R2, R2))
        assert abs(w.observed_overlap - R2) < 1e-12
        assert abs(w.expected_overlap - 0.5) < 1e-12
        assert w.difference > 1e-6
        assert not w.vacuous

    def test_equal_controls(self):
        w = protocol.no_cloning_witness(ID2, SX, basis_state((2,), (0,)),
                                        (R2, R2), (R2, R2))
        assert abs(w.observed_overlap - 1.0) < 1e-12
        assert abs(w.expected_overlap - 1.0) < 1e-12
        assert w.difference < 1e-12

    def test_orthogonal_flagged_vacuous(self):
        w = protocol.no_cloning_witness(ID2, SX, basis_state((2,), (0,)),
                                        (1, 0), (0, 1))
        assert w.vacuous

    def test_vacuous_is_a_plain_bool(self):
        for c2 in ((0, 1), (R2, R2)):
            w = protocol.no_cloning_witness(ID2, SX, basis_state((2,), (0,)),
                                            (1, 0), c2)
            assert type(w.vacuous) is bool

    def test_vanishing_combination_rejected(self):
        # (I - I) |0> / sqrt(2) = 0: no state to require
        with pytest.raises(InvalidInputError, match="vanishes"):
            protocol.no_cloning_witness(ID2, -ID2, basis_state((2,), (0,)),
                                        (1, 0), (R2, R2))


class TestSuccessAccounting:
    def test_analytic_values(self):
        spec2 = LinearCombinationSpec((R2, 1j * R2), (A_GATE, B_GATE))
        assert protocol.success_probability_account(spec2) == pytest.approx(1 / 8)
        assert protocol.success_probability_account(
            spec2, include_input_teleport=True) == pytest.approx(1 / 32)

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(13)
        trials = 100000
        for n, d in ((2, 2), (4, 2)):
            spec = random_unitary_combination_spec(n, d, rng)
            psi = statevector(random_statevector(d, rng))
            p = protocol.success_probability_account(spec)
            est = protocol.monte_carlo_success(spec, psi, trials, rng)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(est - p) < 3 * sigma

    def test_monte_carlo_checks_its_input(self):
        # a norm of 0.5 shrinks the success rate 16-fold, and a norm of 3
        # drives it to 1
        spec = LinearCombinationSpec((R2, 1j * R2), (A_GATE, B_GATE))
        rng = np.random.default_rng(0)
        for amps in ([0.5, 0], [3, 0]):
            with pytest.raises(InvalidInputError, match="normalized"):
                protocol.monte_carlo_success(spec, statevector(amps), 1000, rng)
        with pytest.raises(protocol.qcore.DimensionMismatchError):
            protocol.monte_carlo_success(spec, basis_state((4,), (0,)), 1000,
                                         rng)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_monte_carlo_needs_a_trial(self, trials):
        # no trial would leave the mean of an empty sample
        spec = LinearCombinationSpec((R2, 1j * R2), (A_GATE, B_GATE))
        with pytest.raises(InvalidInputError, match="trials"):
            protocol.monte_carlo_success(spec, basis_state((2,), (0,)), trials,
                                         np.random.default_rng(0))

    def test_monte_carlo_rejects_terms_too_large(self):
        # S / n^2 = 4.5 is no probability; it used to pass every LCC stage
        spec = LinearCombinationSpec((R2, R2), (3 * ID2, 3 * SX))
        with pytest.raises(InvalidInputError, match=r"S/n\^2 = 4\.5 > 1"):
            protocol.monte_carlo_success(spec, basis_state((2,), (0,)), 1000,
                                         np.random.default_rng(0))

    def test_monte_carlo_input_teleport_qutrit(self):
        # the input teleport succeeds with 1/d^2 also when d is not a
        # power of two
        rng = np.random.default_rng(18)
        trials = 100000
        spec = random_unitary_combination_spec(2, 3, rng)
        psi = statevector(random_statevector(3, rng))
        p = protocol.success_probability_account(spec,
                                                 include_input_teleport=True)
        est = protocol.monte_carlo_success(spec, psi, trials, rng,
                                           include_input_teleport=True)
        assert abs(est - p) < 3 * math.sqrt(p * (1 - p) / trials)

