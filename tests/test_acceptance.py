"""Acceptance suite: one test per top-level criterion.

Each test prints a single `ACCEPTANCE n: PASS/FAIL` line so the whole
gate can be read off the pytest -v output directly.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_statevector, random_unitary_combination_spec
from lccsim import cli, gates, protocol, qcore
from lccsim import tomography as tm
from lccsim.kak import (alphas_from_core, alphas_from_k, kak_decompose,
                        lcu_spec_from_kak)
from lccsim.lcc import LinearCombinationSpec, run_lcc, spec_to_json
from lccsim.qcore import (ID2, SX, basis_state, haar_random_unitary,
                          phase_aligned_distance, statevector,
                          vector_phase_distance)


def report(num: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


def test_criterion_1_lcc_correctness():
    """200 random unitary-combination specs: output matches the direct
    combination (<= 1e-10) and success probability is 1/n (<= 1e-12)."""
    rng = np.random.default_rng(1001)
    cases = [(n, d) for n in (2, 4, 8) for d in (2, 4)]
    start = time.time()
    worst_dist = 0.0
    worst_prob = 0.0
    for i in range(200):
        n, d = cases[i % len(cases)]
        spec = random_unitary_combination_spec(n, d, rng)
        psi = statevector(random_statevector(d, rng))
        res = run_lcc(spec, psi)
        direct = spec.combination() @ psi.data
        direct = direct / np.linalg.norm(direct)
        worst_dist = max(worst_dist,
                         vector_phase_distance(res.output_state.data, direct))
        worst_prob = max(worst_prob, abs(res.success_probability - 1.0 / n))
    elapsed = time.time() - start
    ok = worst_dist <= 1e-10 and worst_prob <= 1e-12 and elapsed < 10.0
    report(1, ok, f"(max distance {worst_dist:.2e}, max |p-1/n| "
                  f"{worst_prob:.2e}, {elapsed:.1f}s)")


def test_criterion_2_paper_operations():
    """U1..U12 built through the circuit reproduce their combination
    matrices within 1e-10."""
    worst = 0.0
    for name in [f"U{i}" for i in range(1, 13)]:
        spec = gates.combination_spec(name)
        matrix = np.zeros((2, 2), dtype=complex)
        for col in range(2):
            res = run_lcc(spec, basis_state((2,), (col,)))
            # un-normalize the postselected branch to recover the column
            matrix[:, col] = res.output_state.data * math.sqrt(
                spec.n * res.success_probability)
        dev = phase_aligned_distance(matrix, gates.gate(name))
        worst = max(worst, dev)
    report(2, worst <= 1e-10, f"(max deviation {worst:.2e})")


def test_criterion_3_kak_round_trip():
    """1000 Haar SU(4) round trips <= 1e-9; trig-formula alphas match
    trace-projection alphas <= 1e-10; runtime < 30 s."""
    rng = np.random.default_rng(1003)
    start = time.time()
    worst_dist = 0.0
    worst_alpha = 0.0
    for _ in range(1000):
        u = haar_random_unitary(4, rng)
        dec = kak_decompose(u)
        worst_dist = max(worst_dist,
                         phase_aligned_distance(dec.reconstruct(), u))
        diff = np.abs(alphas_from_k(dec.k_vector)
                      - alphas_from_core(dec.nonlocal_core())).max()
        worst_alpha = max(worst_alpha, diff)
    elapsed = time.time() - start
    ok = worst_dist <= 1e-9 and worst_alpha <= 1e-10 and elapsed < 30.0
    report(3, ok, f"(max residual {worst_dist:.2e}, max alpha diff "
                  f"{worst_alpha:.2e}, {elapsed:.1f}s)")


def test_criterion_4_end_to_end_lcu():
    """50 random SU(4) targets through kak -> spec -> circuit match U|psi>
    on 10 random inputs each (<= 1e-9)."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        u = haar_random_unitary(4, rng)
        spec = lcu_spec_from_kak(kak_decompose(u))
        for _ in range(10):
            psi = random_statevector(4, rng)
            res = run_lcc(spec, statevector(psi))
            want = u @ psi
            want = want / np.linalg.norm(want)
            worst = max(worst,
                        vector_phase_distance(res.output_state.data, want))
    report(4, worst <= 1e-9, f"(max distance {worst:.2e})")


def test_criterion_5_decoy_identities():
    """Decoy and verify mixtures equal I/n exactly across the parameter
    grid; empirical server-side average within 3 sigma in trace distance."""
    rng = np.random.default_rng(1005)
    worst_identity = 0.0
    for n in (2, 4, 8):
        v = random_statevector(n, rng)
        pure = np.outer(v, v.conj())
        w = rng.random(n)
        w /= w.sum()
        q = haar_random_unitary(n, rng)
        mixed = (q * w) @ q.conj().T
        for rho in (pure, mixed):
            for eps in (1.0 / (n - 1), 0.5 / (n - 1)):
                for tau in (0.25, 0.5, 0.75):
                    worst_identity = max(
                        worst_identity,
                        protocol.verify_decoy_identity(rho, eps),
                        protocol.verify_decoy_identity(rho, eps, tau))

    # empirical check on one representative policy
    n, samples = 4, 100000
    c = random_statevector(n, rng)
    policy = protocol.SendPolicy(epsilon=1.0 / (n - 1), tau=0.5,
                                 control_rho=np.outer(c, c.conj()))
    avg = protocol.empirical_server_average(policy, samples, rng)
    diff = avg - np.eye(n) / n
    trace_dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    entries, probs = policy.outcome_table()
    spread = sum(p * np.linalg.norm(np.outer(vec, vec.conj())
                                    - np.eye(n) / n) ** 2
                 for p, (_, vec) in zip(probs, entries))
    sigma = 0.5 * math.sqrt(n) * math.sqrt(spread / samples)
    ok = worst_identity <= 1e-12 and trace_dist <= 3 * sigma
    report(5, ok, f"(max identity dev {worst_identity:.2e}, empirical "
                  f"trace distance {trace_dist:.2e} vs 3sigma {3 * sigma:.2e})")


def test_criterion_6_cheating_server_witness():
    """The skip-measurement state is alpha|00> + beta|11> exactly, has
    Schmidt rank 2, and the inner-product witness is nonzero for 100
    generic random instances."""
    rng = np.random.default_rng(1006)
    alpha, beta = 0.6, 0.8
    st = protocol.cheating_server_state(ID2, SX, basis_state((2,), (0,)),
                                        alpha, beta)
    exact = np.abs(st.data - np.array([alpha, 0, 0, beta])).max()
    rank_ok = protocol.schmidt_rank(st) == 2

    min_diff = np.inf
    for _ in range(100):
        a = haar_random_unitary(2, rng)
        b = haar_random_unitary(2, rng)
        phi = statevector(random_statevector(2, rng))
        c1 = random_statevector(2, rng)
        c2 = random_statevector(2, rng)
        if abs(np.vdot(c1, c2)) < 1e-3:
            continue  # skip near-orthogonal (vacuous) draws
        w = protocol.no_cloning_witness(a, b, phi, c1, c2)
        min_diff = min(min_diff, w.difference)
    ok = exact < 1e-12 and rank_ok and min_diff > 1e-6
    report(6, ok, f"(state deviation {exact:.2e}, min witness {min_diff:.2e})")


def test_criterion_7_intercept_detection():
    """Empirical non-detection decay rate over R in [10, 200] runs fits
    the analytically enumerated per-run detection rate within 10%."""
    theta = 0.5
    gate_b = math.cos(theta) * ID2 - 1j * math.sin(theta) * SX
    r2 = 1.0 / math.sqrt(2)
    spec = LinearCombinationSpec((r2, 1j * r2), (ID2, gate_b))
    psi = basis_state((2,), (0,))
    coeffs = np.array(spec.coefficients)
    policy = protocol.SendPolicy(epsilon=1.0, tau=0.5,
                                 control_rho=np.outer(coeffs, coeffs.conj()))
    behavior = protocol.ServerBehavior(mode="intercept", intercept_fraction=1.0)
    rate = protocol.intercept_detection_rate(spec, psi, policy, behavior)

    rounds = 240000
    transcript = protocol.run_session(spec, psi, policy, behavior, rounds,
                                      np.random.default_rng(17))
    detected = np.array([rec.detected for rec in transcript.rounds])
    grid = [10, 25, 50, 75, 100, 150, 200]
    xs, ys = [], []
    for r in grid:
        blocks = detected[:(rounds // r) * r].reshape(-1, r)
        survival = float(np.mean(~blocks.any(axis=1)))
        if survival > 0:
            xs.append(r)
            ys.append(math.log(survival))
    slope = np.polyfit(xs, ys, 1)[0]
    slope_true = math.log(1.0 - rate)
    rel = abs(slope / slope_true - 1.0)
    report(7, rel <= 0.10, f"(analytic rate {rate:.4f}, fitted rate "
                           f"{1.0 - math.exp(slope):.4f}, rel err {rel:.3f})")


def test_criterion_8_success_probability():
    """Monte Carlo over 1e5 trials matches 1/n x (1/4)^k x (1/d^2 when the
    input is teleported) within 3 sigma for (n,d) in {(2,2),(4,2),(2,4)}."""
    rng = np.random.default_rng(1008)
    trials = 100000
    details = []
    ok = True
    for n, d in ((2, 2), (4, 2), (2, 4)):
        spec = random_unitary_combination_spec(n, d, rng)
        psi = statevector(random_statevector(d, rng))
        p = protocol.success_probability_account(spec,
                                                 include_input_teleport=True)
        est = protocol.monte_carlo_success(spec, psi, trials, rng,
                                           include_input_teleport=True)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        ok = ok and abs(est - p) <= 3 * sigma
        details.append(f"n={n},d={d}: {est:.5f} vs {p:.5f}")
    report(8, ok, "(" + "; ".join(details) + ")")


def test_criterion_9_tomography():
    """Analytic reconstruction >= 0.999 for U1..U12 with PSD/trace-1
    output; gradient matches finite differences < 1e-4; depolarizing
    p=0.05 @ 1000 shots drops below 0.999 with positive bootstrap std."""
    rng = np.random.default_rng(1009)
    min_fid = 1.0
    physical = True
    for name in [f"U{i}" for i in range(1, 13)]:
        chi_true = tm.ideal_chi(gates.gate(name))
        dataset = tm.simulate_dataset(chi_true, 10000, None, analytic=True)
        res = tm.reconstruct_mle(dataset)
        min_fid = min(min_fid, tm.process_fidelity(res.chi, chi_true))
        evals = np.linalg.eigvalsh(res.chi.data)
        physical = physical and evals.min() > -1e-10 and abs(
            np.trace(res.chi.data).real - 1.0) < 1e-10

    # gradient in chi vs central finite differences at a generic interior
    # point, along the 16 real directions of a Hermitian basis
    noisy = tm.simulate_dataset(
        tm.depolarize_chi(tm.ideal_chi(gates.gate("U2")), 0.05), 1000, rng)
    terms = tm._likelihood_terms(noisy)
    a = np.random.default_rng(99).normal(size=(4, 4, 2)) @ [1.0, 1.0j]
    chi0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
    grad, _ = tm._chi_gradient(chi0, terms)
    directions = []
    for i in range(4):
        for j in range(i, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            directions.append(e + e.T)
            if j > i:
                directions.append(1j * (e - e.T))

    def ll(chi):
        return tm._chi_gradient(chi, terms)[1]

    h = 1e-5
    grad_ok = len(directions) == 16
    for delta in directions:
        numeric = (ll(chi0 + h * delta) - ll(chi0 - h * delta)) / (2 * h)
        exact = np.trace(grad @ delta).real
        grad_ok = grad_ok and abs(exact - numeric) / (abs(numeric) + 1e-9) < 1e-4

    noisy_res = tm.reconstruct_mle(noisy)
    noisy_fid = tm.process_fidelity(noisy_res.chi,
                                    tm.ideal_chi(gates.gate("U2")))
    _, std = tm.bootstrap_fidelity(noisy, tm.ideal_chi(gates.gate("U2")),
                                   15, rng, max_iter=1500)
    ok = (min_fid >= 0.999 and physical and grad_ok
          and noisy_fid < 0.999 and np.isfinite(std) and std > 0.0)
    report(9, ok, f"(min analytic fidelity {min_fid:.6f}, noisy fidelity "
                  f"{noisy_fid:.4f}, bootstrap std {std:.4f})")


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI subcommand rerun with the same seed yields byte-identical
    output files."""
    spec_file = tmp_path / "u2.json"
    spec_file.write_text(spec_to_json(gates.combination_spec("U2")))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"operation": "U2", "epsilon": 1.0,
                                    "tau": 0.5, "rounds": 500, "seed": 7}))
    ops = tmp_path / "ops.txt"
    ops.write_text("U1\nU2\n")
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    matrix = tmp_path / "cnot.txt"
    matrix.write_text(qcore.format_matrix(cnot))

    commands = [
        ["lcc", str(spec_file)],
        ["kak", str(matrix)],
        ["--seed", "3", "kak", "--random", "5"],
        ["protocol", str(scenario)],
        ["--seed", "5", "tomography", str(ops), "--noise", "0.05",
         "--shots", "500"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        a = tmp_path / f"out_{i}_a.txt"
        b = tmp_path / f"out_{i}_b.txt"
        ok = ok and cli.main(["--out", str(a)] + cmd) == 0
        ok = ok and cli.main(["--out", str(b)] + cmd) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(10, ok, f"({len(commands)} commands, both runs byte-identical)")
