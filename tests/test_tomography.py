import math

import numpy as np
import pytest

from lccsim import gates
from lccsim import tomography as tm
from lccsim.qcore import InvalidInputError, PAULIS, SX, SZ

ALL_OPS = [f"U{i}" for i in range(1, 13)]

# Log-likelihood reached by the earlier Cholesky-factor gradient ascent
# (max_iter=3000) on each probe dataset below.
PROBE_PARENT_LL = {
    "I": -18156.748137215625, "X": -17415.608218245194,
    "Y": -18047.623982173725, "Z": -17947.08568407238,
    "H": -18364.453724636987, "A": -18196.632094371664,
    "B": -17753.008888498964, "U1": -17835.7303957986,
    "U2": -17755.3255269961, "U3": -18190.13585937351,
    "U4": -17673.68138387479, "U5": -18560.761822832323,
    "U6": -17656.477327811943, "U7": -17942.534278728555,
    "U8": -18225.39630294667,
}


def probe_datasets():
    """The first 15 registry gates, depolarized 0.05, 500 shots each."""
    rng = np.random.default_rng(2017)
    for name in list(gates.GATES)[:15]:
        chi = tm.depolarize_chi(tm.ideal_chi(gates.gate(name)), 0.05)
        yield name, tm.simulate_dataset(chi, 500, rng)


def measurement_matrix(prep, basis, outcome):
    """The table row C with Tr(chi C) = P(outcome | prep, basis)."""
    return tm._C_TABLE[tm._CELL_INDEX[(prep, basis, outcome)]]


def apply_chi(chi, rho):
    """The process sum_mn chi_mn s_m rho s_n applied to rho."""
    paulis = np.array(PAULIS)
    return np.einsum("mn,mab,bc,ncd->ad", chi.data, paulis, rho, paulis)


def likelihood_and_gradient(dataset, chi):
    """Log-likelihood of a full-grid dataset at chi and its gradient in
    chi, written out from the measurement matrices alone."""
    mats = [measurement_matrix(*cell) for cell in tm.CELLS]
    norm_mat = sum(mats)
    norm = np.trace(norm_mat @ chi).real
    total = dataset.total()
    ll = -total * math.log(norm)
    grad = -total / norm * norm_mat
    for cell, c in zip(tm.CELLS, mats):
        n = dataset.counts[cell]
        if n > 0:
            p = np.trace(c @ chi).real
            ll += n * math.log(p)
            grad = grad + n / p * c
    return ll, grad


def optimality_residual(dataset, chi):
    _, grad = likelihood_and_gradient(dataset, chi)
    return (np.linalg.eigvalsh(grad)[-1]
            - np.trace(grad @ chi).real) / dataset.total()


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
        assert np.abs(apply_chi(chi, rho) - u @ rho @ u.conj().T).max() < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            tm.ChiMatrix(np.eye(4) * 0.5)  # trace 2
        with pytest.raises(InvalidInputError):
            tm.ChiMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    def test_measurement_matrices_hermitian(self):
        for cell in tm.CELLS:
            c = measurement_matrix(*cell)
            assert np.abs(c - c.conj().T).max() < 1e-12, cell

    def test_measurement_table_matches_trace_loop(self):
        for prep, basis, o in tm.CELLS:
            rho = tm.prep_density(prep)
            proj = tm.basis_projectors(basis)[o]
            want = np.array([[np.trace(proj @ PAULIS[m] @ rho @ PAULIS[n])
                              for m in range(4)] for n in range(4)])
            assert np.array_equal(measurement_matrix(prep, basis, o), want)
        assert len(set(tm.CELLS)) == 24
        with pytest.raises(ValueError):
            measurement_matrix("0", "Z", 0)[0, 0] = 1.0

    def test_probabilities_linear_in_chi(self):
        chi = tm.ideal_chi(gates.gate("H"))
        for prep in tm.PREP_LABELS:
            rho = tm.prep_density(prep)
            out = apply_chi(chi, rho)
            for basis in tm.BASIS_LABELS:
                for o, proj in enumerate(tm.basis_projectors(basis)):
                    direct = np.trace(proj @ out).real
                    probability = np.trace(
                        chi.data @ measurement_matrix(prep, basis, o)).real
                    assert probability == pytest.approx(direct, abs=1e-12)


class TestSimulateDataset:
    def test_analytic_counts_take_shots_past_the_sampler_bound(self):
        # MAX_SHOTS guards numpy's Poisson sampler; expected counts need none
        ds = tm.simulate_dataset(tm.ideal_chi(SX), 10 * tm.MAX_SHOTS, None,
                                 analytic=True)
        assert ds.total() == pytest.approx(120 * tm.MAX_SHOTS)

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
                    c = measurement_matrix(p, b, o)
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
        start = tm._project_unit_simplex(tm.linear_inversion(ds))
        ll_init = tm._chi_gradient(start, terms)[1]
        res = tm.reconstruct_mle(ds)
        assert res.log_likelihood >= ll_init - 1e-9

    @pytest.mark.parametrize("chi", [
        tm.depolarize_chi(tm.ideal_chi(gates.gate("H")), 0.3).data,
        tm.depolarize_chi(tm.ideal_chi(gates.gate("H")), 1e-3).data,
    ], ids=["interior", "near-boundary"])
    def test_chi_gradient_matches_finite_differences(self, chi):
        rng = np.random.default_rng(13)
        chi_true = tm.depolarize_chi(tm.ideal_chi(gates.gate("U2")), 0.1)
        terms = tm._likelihood_terms(tm.simulate_dataset(chi_true, 2000, rng))
        grad, _ = tm._chi_gradient(chi, terms)

        def ll(m):
            return tm._chi_gradient(m, terms)[1]

        h = 1e-6
        for _ in range(8):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            delta = a + a.conj().T
            numeric = (ll(chi + h * delta) - ll(chi - h * delta)) / (2 * h)
            exact = np.trace(grad @ delta).real
            assert abs(exact - numeric) / abs(numeric) < 1e-4

    def test_projection_onto_unit_trace_psd(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        m = (q * [0.6, 0.5, 0.0, -1.0]) @ q.conj().T
        want = (q * [0.55, 0.45, 0.0, 0.0]) @ q.conj().T
        assert np.abs(tm._project_unit_simplex(m) - want).max() < 1e-12
        chi = tm.depolarize_chi(tm.ideal_chi(gates.gate("U3")), 0.2).data
        assert np.abs(tm._project_unit_simplex(chi) - chi).max() < 1e-12
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a + a.conj().T
            proj = tm._project_unit_simplex(m)
            assert np.linalg.eigvalsh(proj).min() > -1e-12
            assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)
            nearest = np.linalg.norm(m - proj)
            for _ in range(20):
                b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                other = b @ b.conj().T
                other /= np.trace(other).real
                assert nearest <= np.linalg.norm(m - other)

    def test_sampled_probe_optimal(self):
        for name, ds in probe_datasets():
            res = tm.reconstruct_mle(ds)
            assert res.converged, name
            residual = optimality_residual(ds, res.chi.data)
            assert residual <= 1e-7, name
            assert res.gradient_norm == pytest.approx(residual, abs=1e-12)
            ll, _ = likelihood_and_gradient(ds, res.chi.data)
            assert ll == pytest.approx(res.log_likelihood, rel=1e-12)
            assert ll >= PROBE_PARENT_LL[name] - 1e-6 * ds.total(), name

    def test_analytic_every_gate_optimal_at_start(self):
        # the projected linear inversion is already the maximum
        for name in gates.GATES:
            chi_true = tm.ideal_chi(gates.gate(name))
            ds = tm.simulate_dataset(chi_true, 10000, None, analytic=True)
            res = tm.reconstruct_mle(ds)
            assert res.converged, name
            assert res.iterations <= 2, name
            assert tm.process_fidelity(res.chi, chi_true) >= 1 - 1e-9, name

    def test_fallback_start_is_maximally_mixed(self):
        ds = tm.simulate_dataset(tm.ideal_chi(gates.gate("U2")), 500, None,
                                 analytic=True)
        res = tm.reconstruct_mle(ds, max_iter=0,
                                 initial=tm.ideal_chi(gates.gate("X")).data)
        assert res.iterations == 0
        assert np.array_equal(res.chi.data, np.eye(4) / 4)
        assert res.log_likelihood == tm._chi_gradient(np.eye(4) / 4,
                                                      tm._likelihood_terms(ds))[1]

    def test_start_does_not_change_the_optimum(self):
        # a rank-one start gives observed cells zero probability, so the
        # solver falls back to I/4
        rng = np.random.default_rng(14)
        chi_true = tm.depolarize_chi(tm.ideal_chi(gates.gate("U2")), 0.05)
        ds = tm.simulate_dataset(chi_true, 500, rng)
        total = ds.total()
        results = [tm.reconstruct_mle(ds, initial=start) for start in
                   (None, np.eye(4) / 4, tm.ideal_chi(gates.gate("X")).data)]
        for res in results:
            assert res.converged
            assert abs(res.log_likelihood
                       - results[0].log_likelihood) <= 1e-7 * total

    def test_overflowing_counts_raise(self):
        ds = tm.TomographyDataset({("0", "Z", 0): 1.7e308,
                                   ("+", "Y", 0): 1.7e308})
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidInputError, match="no finite likelihood"):
            tm.reconstruct_mle(ds)

    def test_max_iter_zero_returns_the_start(self):
        ds = next(probe_datasets())[1]
        res = tm.reconstruct_mle(ds, max_iter=0)
        start = tm._project_unit_simplex(tm.linear_inversion(ds))
        assert res.iterations == 0 and not res.converged
        assert np.array_equal(res.chi.data, start)


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


    @pytest.mark.parametrize("counts", [{("0", "Z", 0): 0.0},
                                        {("0", "Z", 0): 1.0}])
    def test_too_few_nonempty_resamples(self, counts):
        # with seed 0 only one of the two resamples of one count is non-empty
        rng = np.random.default_rng(0)
        reference = tm.ideal_chi(gates.gate("I"))
        with pytest.raises(InvalidInputError, match="two bootstrap resamples"):
            tm.bootstrap_fidelity(tm.TomographyDataset(counts), reference, 2,
                                  rng)


class TestProcessFidelity:
    def test_identical(self):
        chi = tm.ideal_chi(gates.gate("U9"))
        assert tm.process_fidelity(chi, chi) == pytest.approx(1.0)

    def test_orthogonal_processes(self):
        chi_x = tm.ideal_chi(SX)
        chi_z = tm.ideal_chi(SZ)
        assert tm.process_fidelity(chi_x, chi_z) == pytest.approx(0.0, abs=1e-12)


# every library precondition of tomography: (call, exception, message fragment)
PRECONDITIONS = {
    "prep-label": (lambda: tm.prep_density("Q"),
                   InvalidInputError, "unknown preparation 'Q'"),
    "basis-label": (lambda: tm.basis_projectors("W"),
                    InvalidInputError, "unknown basis 'W'"),
    "chi-shape": (lambda: tm.ChiMatrix(np.eye(3) / 3),
                  InvalidInputError, "chi matrix must be 4x4"),
    # nan fails every check, so the eigensolver never sees it
    "chi-nan": (lambda: tm.ChiMatrix(np.full((4, 4), math.nan)),
                InvalidInputError, "chi matrix must be Hermitian"),
    "chi-hermitian": (
        lambda: tm.ChiMatrix(np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1)),
        InvalidInputError, "chi matrix must be Hermitian"),
    "ideal-zero": (lambda: tm.ideal_chi(np.zeros((2, 2))),
                   InvalidInputError, "operator is numerically zero"),
    "depolarize-range": (lambda: tm.depolarize_chi(tm.ideal_chi(SX), 1.5),
                         InvalidInputError, r"must lie in \[0,1\]"),
    "sample-without-generator": (
        lambda: tm.simulate_dataset(tm.ideal_chi(SX), 10, None),
        InvalidInputError, "sampling requires a generator"),
    "inversion-empty": (lambda: tm.linear_inversion(tm.TomographyDataset({})),
                        InvalidInputError, "dataset is empty"),
    "mle-empty": (lambda: tm.reconstruct_mle(tm.TomographyDataset({})),
                  InvalidInputError, "dataset is empty"),
    "bootstrap-resamples": (
        lambda: tm.bootstrap_fidelity(
            tm.simulate_dataset(tm.ideal_chi(SX), 10, None, analytic=True),
            tm.ideal_chi(SX), 1, np.random.default_rng(0)),
        InvalidInputError, "need at least two resamples"),
    "shots-negative-analytic": (
        lambda: tm.simulate_dataset(tm.ideal_chi(SX), -1, None, analytic=True),
        InvalidInputError, "shots must be at least 0, got -1"),
    "shots-negative-sampled": (
        lambda: tm.simulate_dataset(tm.ideal_chi(SX), -1,
                                    np.random.default_rng(0)),
        InvalidInputError, "shots must be at least 0, got -1"),
    "shots-above-bound-sampled": (
        lambda: tm.simulate_dataset(tm.ideal_chi(SX), 10 ** 19,
                                    np.random.default_rng(0)),
        InvalidInputError,
        "shots must be at most 1000000000000000000, got 10000000000000000000"),
    # the analytic exposure is a float, so shots must fit in one
    "shots-beyond-float-analytic": (
        lambda: tm.simulate_dataset(tm.ideal_chi(SX), 10 ** 400, None,
                                    analytic=True),
        InvalidInputError, "shots must lie within float range, got "),
    "bootstrap-fractional-resamples": (
        lambda: tm.bootstrap_fidelity(
            tm.simulate_dataset(tm.ideal_chi(SX), 10, None, analytic=True),
            tm.ideal_chi(SX), 2.5, np.random.default_rng(0)),
        InvalidInputError, "resamples must be an integer, got 2.5"),
    "depolarize-string": (lambda: tm.depolarize_chi(tm.ideal_chi(SX), "x"),
                          InvalidInputError, "p must be a real number, got 'x'"),
    "mle-fractional-max-iter": (
        lambda: tm.reconstruct_mle(
            tm.simulate_dataset(tm.ideal_chi(SX), 10, None, analytic=True),
            max_iter=2.5),
        InvalidInputError, "max_iter must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(PRECONDITIONS))
def test_precondition_raises(name):
    call, error, fragment = PRECONDITIONS[name]
    with pytest.raises(error, match=fragment):
        call()
