import math

import numpy as np
import pytest

from lccsim import gates
from lccsim import tomography as tm
from lccsim.qcore import InvalidInputError, PAULIS, SX, SZ

ALL_OPS = [f"U{i}" for i in range(1, 13)]


class TestChiBasics:
    def test_ideal_chi_rank_one(self):
        for name in ("I", "H", "U2", "U12"):
            chi = tm.ideal_chi(gates.gate(name))
            evals = np.sort(np.linalg.eigvalsh(chi.data))
            assert evals[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.abs(evals[:-1]).max() < 1e-12

    def test_ideal_chi_applies_like_conjugation(self):
        rng = np.random.default_rng(0)
        u = gates.gate("U2")
        chi = tm.ideal_chi(u)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        assert np.abs(chi.apply(rho) - u @ rho @ u.conj().T).max() < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            tm.ChiMatrix(np.eye(4) * 0.5)  # trace 2
        with pytest.raises(InvalidInputError):
            tm.ChiMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    def test_measurement_matrices_hermitian(self):
        for cell in tm.CELLS:
            c = tm.measurement_matrix(*cell)
            assert np.abs(c - c.conj().T).max() < 1e-12, cell

    def test_measurement_table_matches_trace_loop(self):
        for prep, basis, o in tm.CELLS:
            rho = tm.prep_density(prep)
            proj = tm.basis_projectors(basis)[o]
            want = np.array([[np.trace(proj @ PAULIS[m] @ rho @ PAULIS[n])
                              for m in range(4)] for n in range(4)])
            assert np.array_equal(tm.measurement_matrix(prep, basis, o), want)
        assert len(set(tm.CELLS)) == 24
        with pytest.raises(ValueError):
            tm.measurement_matrix("0", "Z", 0)[0, 0] = 1.0
        with pytest.raises(InvalidInputError):
            tm.measurement_matrix("0", "W", 0)

    def test_probabilities_linear_in_chi(self):
        chi = tm.ideal_chi(gates.gate("H"))
        for prep in tm.PREP_LABELS:
            rho = tm.prep_density(prep)
            out = chi.apply(rho)
            for basis in tm.BASIS_LABELS:
                for o, proj in enumerate(tm.basis_projectors(basis)):
                    direct = np.trace(proj @ out).real
                    assert chi.probability(prep, basis, o) == pytest.approx(
                        direct, abs=1e-12)


class TestSimulateDataset:
    def test_analytic_counts_tp(self):
        chi = tm.ideal_chi(gates.gate("I"))
        ds = tm.simulate_dataset(chi, 1000, None, analytic=True)
        for (p, b) in ds.settings():
            tot = ds.counts[(p, b, 0)] + ds.counts[(p, b, 1)]
            assert tot == pytest.approx(1000.0, abs=1e-9)

    def test_postselected_rates_vary_by_prep(self):
        # (X+iZ)/sqrt(2) annihilates the -1 eigenstate of Y
        chi = tm.ideal_chi(gates.gate("U12"))
        ds = tm.simulate_dataset(chi, 1000, None, analytic=True)
        totals = {p: sum(ds.counts[(p, b, o)] for b in tm.BASIS_LABELS
                         for o in (0, 1)) / 3.0 for p in tm.PREP_LABELS}
        assert totals["+i"] == pytest.approx(2000.0, abs=1e-9)
        assert totals["0"] == pytest.approx(1000.0, abs=1e-9)

    def test_file_roundtrip(self):
        rng = np.random.default_rng(1)
        chi = tm.ideal_chi(gates.gate("U3"))
        ds = tm.simulate_dataset(chi, 500, rng)
        back = tm.TomographyDataset.from_text(ds.to_text())
        assert back.counts == ds.counts

    def test_parse_errors(self):
        with pytest.raises(InvalidInputError):
            tm.TomographyDataset.from_text("0 X 0\n")
        with pytest.raises(InvalidInputError):
            tm.TomographyDataset.from_text("0 W 0 10\n")
        with pytest.raises(InvalidInputError):
            tm.TomographyDataset.from_text("# only comments\n")


class TestLinearInversion:
    def test_exact_on_analytic_data(self):
        for name in ALL_OPS:
            chi = tm.ideal_chi(gates.gate(name))
            ds = tm.simulate_dataset(chi, 1, None, analytic=True)
            assert np.abs(tm.linear_inversion(ds) - chi.data).max() < 1e-10

    def test_matches_real_embedding_reference(self):
        # the same least-squares system written as a real block embedding
        def reference(ds):
            total = ds.total()
            rows = []
            for (p, b) in ds.settings():
                for o in (0, 1):
                    c = tm.measurement_matrix(p, b, o)
                    frac = ds.counts.get((p, b, o), 0.0) / total
                    rows.append(np.concatenate([c.T.reshape(-1), [-frac]]))
            rows.append(np.concatenate([np.eye(4).reshape(-1), [0.0]]))
            a = np.array(rows)
            rhs = np.zeros(2 * len(rows))
            rhs[len(rows) - 1] = 1.0
            big = np.block([[a.real, -a.imag], [a.imag, a.real]])
            sol = np.linalg.lstsq(big, rhs, rcond=None)[0]
            chi = (sol[:16] + 1j * sol[17:33]).reshape(4, 4)
            chi = (chi + chi.conj().T) / 2.0
            return chi / np.trace(chi).real

        rng = np.random.default_rng(6)
        for name in ("U1", "U12", "H"):
            chi = tm.depolarize_chi(tm.ideal_chi(gates.gate(name)), 0.1)
            ds = tm.simulate_dataset(chi, 300, rng)
            partial = tm.TomographyDataset(
                {k: v for k, v in ds.counts.items() if k[0] != "+"})
            for data in (ds, partial):
                got = tm.linear_inversion(data)
                assert np.abs(got - reference(data)).max() < 1e-12, name


class TestMle:
    def test_analytic_reconstruction_all_ops(self):
        for name in ALL_OPS:
            chi_true = tm.ideal_chi(gates.gate(name))
            ds = tm.simulate_dataset(chi_true, 10000, None, analytic=True)
            res = tm.reconstruct_mle(ds)
            assert tm.process_fidelity(res.chi, chi_true) >= 0.999, name

    def test_matches_linear_inversion_on_analytic_data(self):
        for name in ("U1", "U7", "U12"):
            chi_true = tm.ideal_chi(gates.gate(name))
            ds = tm.simulate_dataset(chi_true, 10000, None, analytic=True)
            res = tm.reconstruct_mle(ds)
            lin = tm.linear_inversion(ds)
            assert np.abs(res.chi.data - lin).max() < 1e-4, name

    def test_output_always_physical(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            counts = {k: float(rng.integers(0, 50)) for k in tm.CELLS}
            counts[("0", "Z", 0)] += 1.0  # never all-zero
            res = tm.reconstruct_mle(tm.TomographyDataset(counts),
                                     max_iter=500)
            evals = np.linalg.eigvalsh(res.chi.data)
            assert evals.min() > -1e-10
            assert abs(np.trace(res.chi.data).real - 1.0) < 1e-10

    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(3)
        chi = tm.depolarize_chi(tm.ideal_chi(gates.gate("U5")), 0.1)
        ds = tm.simulate_dataset(chi, 500, rng)
        terms = tm._likelihood_terms(ds)
        init = tm._project_psd_unit_trace(tm.linear_inversion(ds))
        t0 = np.linalg.cholesky(init)
        tau = np.trace(t0 @ t0.conj().T).real
        ll_init = tm._log_likelihood(t0 @ t0.conj().T / tau, terms)
        res = tm.reconstruct_mle(ds)
        assert res.log_likelihood >= ll_init - 1e-9

    def test_cholesky_layout(self):
        # diagonal first, then (Re, Im) of each strictly-lower entry by row
        x = np.random.default_rng(7).normal(size=16)
        t = tm._vector_to_t(x)
        want = [t[i, i].real for i in range(4)]
        for j in range(1, 4):
            for i in range(j):
                want.extend([t[j, i].real, t[j, i].imag])
        assert np.array_equal(tm._t_to_vector(t), x)
        assert np.array_equal(np.array(want), x)
        assert np.array_equal(t, np.tril(t))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        chi = tm.depolarize_chi(tm.ideal_chi(gates.gate("U2")), 0.1)
        ds = tm.simulate_dataset(chi, 2000, rng)
        terms = tm._likelihood_terms(ds)
        x0 = np.random.default_rng(5).normal(size=16)
        grad, _ = tm._gradient(tm._vector_to_t(x0), terms)

        def ll(x):
            t = tm._vector_to_t(x)
            tau = np.trace(t @ t.conj().T).real
            return tm._log_likelihood(t @ t.conj().T / tau, terms)

        h = 1e-5
        for i in range(16):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            numeric = (ll(xp) - ll(xm)) / (2 * h)
            assert abs(grad[i] - numeric) / (abs(numeric) + 1e-9) < 1e-4


class TestNoise:
    def test_depolarize_chi_limits(self):
        chi = tm.ideal_chi(gates.gate("U2"))
        assert np.abs(tm.depolarize_chi(chi, 0.0).data - chi.data).max() < 1e-12
        full = tm.depolarize_chi(chi, 1.0)
        assert np.abs(full.data - np.eye(4) / 4.0).max() < 1e-12

    def test_fidelity_monotone_in_noise(self):
        rng = np.random.default_rng(6)
        chi_true = tm.ideal_chi(gates.gate("U2"))
        fids = []
        for p in (0.0, 0.05, 0.1, 0.2):
            ds = tm.simulate_dataset(tm.depolarize_chi(chi_true, p), 4000, rng)
            res = tm.reconstruct_mle(ds)
            fids.append(tm.process_fidelity(res.chi, chi_true))
        assert fids[0] > 0.999
        for a, b in zip(fids, fids[1:]):
            assert b < a + 0.01  # monotone within sampling noise

    def test_noisy_fidelity_below_threshold(self):
        rng = np.random.default_rng(7)
        chi_true = tm.ideal_chi(gates.gate("U1"))
        ds = tm.simulate_dataset(tm.depolarize_chi(chi_true, 0.05), 1000, rng)
        res = tm.reconstruct_mle(ds)
        assert tm.process_fidelity(res.chi, chi_true) < 0.999


class TestBootstrap:
    def test_positive_spread(self):
        rng = np.random.default_rng(8)
        chi_true = tm.ideal_chi(gates.gate("U2"))
        ds = tm.simulate_dataset(tm.depolarize_chi(chi_true, 0.05), 1000, rng)
        mean, std = tm.bootstrap_fidelity(ds, chi_true, 15, rng, max_iter=1500)
        assert 0.8 < mean < 1.0
        assert std > 0.0
        assert np.isfinite(std)


class TestProcessFidelity:
    def test_identical(self):
        chi = tm.ideal_chi(gates.gate("U9"))
        assert tm.process_fidelity(chi, chi) == pytest.approx(1.0)

    def test_orthogonal_processes(self):
        chi_x = tm.ideal_chi(SX)
        chi_z = tm.ideal_chi(SZ)
        assert tm.process_fidelity(chi_x, chi_z) == pytest.approx(0.0, abs=1e-12)
