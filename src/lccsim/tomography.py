"""Single-qubit process tomography with a maximum-likelihood reconstruction.

A process is represented by its chi matrix in the Pauli basis
{I, X, Y, Z}: E(rho) = sum_{mn} chi_mn s_m rho s_n, normalized to unit
trace.  Measurement settings pair the four standard preparations
|0>, |1>, |+>, |+i> with the three Pauli measurement bases; each
setting's outcome probabilities are linear in chi through Hermitian
C matrices, C_{nm} = Tr(P s_m rho s_n).

The estimator maximizes the multinomial log-likelihood over unit-trace
positive chi directly, by accelerated projected gradient ascent (Shang,
Zhang and Ng, PRA 95, 062336, 2017): each step moves along the
likelihood gradient and projects back with one 4x4 eigendecomposition,
whose eigenvalues are projected exactly onto the probability simplex
(Smolin, Gambetta and Smith, PRL 108, 070502, 2012).  It stops on the
optimality certificate of that set, scaled by the total count.  Counts
are modeled as Poisson rates proportional to Tr(C chi) and normalized
over the whole dataset rather than per setting: for a postselected
(trace-decreasing) process such as (X + iZ)/sqrt(2), the relative count
rates between settings carry the trace information, exactly as
coincidence rates do in a postselected optical experiment, so the
process stays identifiable up to the overall scale that the unit-trace
convention fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import ID2, PAULIS, InvalidInputError, pauli_coefficients

PREP_LABELS = ("0", "1", "+", "+i")
BASIS_LABELS = ("X", "Y", "Z")

_PREP_VECS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
    "+i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2),
}
_BASIS_OPS = {"X": PAULIS[1], "Y": PAULIS[2], "Z": PAULIS[3]}


def prep_density(label: str) -> np.ndarray:
    try:
        v = _PREP_VECS[label]
    except KeyError:
        raise InvalidInputError(f"unknown preparation {label!r}") from None
    return np.outer(v, v.conj())


def basis_projectors(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenstates of a Pauli observable."""
    try:
        op = _BASIS_OPS[label]
    except KeyError:
        raise InvalidInputError(f"unknown basis {label!r}") from None
    return (ID2 + op) / 2.0, (ID2 - op) / 2.0


# Every (prep, basis, outcome) cell of the setting grid, in table order.
CELLS = tuple((p, b, o) for p in PREP_LABELS for b in BASIS_LABELS
              for o in (0, 1))
_CELL_INDEX = {cell: k for k, cell in enumerate(CELLS)}
_PAULI_STACK = np.array(PAULIS)

# Row k is the C matrix of CELLS[k] = (rho_k, P_k), built once.
_C_TABLE = np.einsum(
    "kab,mbc,kcd,nda->knm",
    np.array([basis_projectors(b)[o] for _p, b, o in CELLS]), _PAULI_STACK,
    np.array([prep_density(p) for p, _b, _o in CELLS]), _PAULI_STACK)
_C_TABLE.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Unit-trace positive process matrix in the Pauli basis."""

    data: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.data, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidInputError("chi matrix must be 4x4")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise InvalidInputError("chi matrix must be Hermitian")
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise InvalidInputError("chi matrix must be positive semidefinite")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise InvalidInputError("chi matrix must have unit trace")
        object.__setattr__(self, "data", m)


def ideal_chi(op: np.ndarray) -> ChiMatrix:
    """Rank-one chi of the map rho -> op rho op^dag, trace-normalized."""
    c = pauli_coefficients(op)
    m = np.outer(c, c.conj())
    tr = np.trace(m).real
    if tr < 1e-12:
        raise InvalidInputError("operator is numerically zero")
    return ChiMatrix(m / tr)


def depolarize_chi(chi: ChiMatrix, p: float) -> ChiMatrix:
    """Chi for the map (1-p) E(rho) + (p/2) Tr(rho) I.

    The fully depolarizing limit is the uniform Pauli mixture, whose chi
    is I/4; mixing is linear in chi.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError("depolarization strength must lie in [0,1]")
    return ChiMatrix((1.0 - p) * chi.data + (p / 4.0) * np.eye(4))


@dataclass(frozen=True)
class TomographyDataset:
    """Counts indexed by (prep, basis, outcome).

    Counts may be non-integer when produced analytically (expected
    counts); the likelihood machinery does not care.
    """

    counts: dict[tuple[str, str, int], float]

    def settings(self) -> list[tuple[str, str]]:
        seen = []
        for (p, b, _o) in self.counts:
            if (p, b) not in seen:
                seen.append((p, b))
        return seen

    def total(self) -> float:
        return float(sum(self.counts.values()))


def simulate_dataset(chi: ChiMatrix, shots: int, rng: np.random.Generator | None,
                     analytic: bool = False) -> TomographyDataset:
    """Counts for the full 4x3 setting grid.

    ``shots`` sets the exposure per setting: each outcome count is
    Poisson with mean shots * Tr(C chi) (or exactly that mean in
    analytic mode), mirroring coincidence counting.  For a
    trace-preserving process a setting's two rates sum to 1; for a
    postselected one they scale with that preparation's detection
    probability.
    """
    rates = np.trace(chi.data @ _C_TABLE, axis1=1, axis2=2).real
    drawn = shots * np.clip(rates, 0.0, None)
    if not analytic:
        if rng is None:
            raise InvalidInputError("sampling requires a generator")
        drawn = rng.poisson(drawn).astype(float)
    return TomographyDataset(dict(zip(CELLS, drawn.tolist())))


def _setting_cells(dataset: TomographyDataset) -> tuple[list[int], np.ndarray]:
    """Table rows and counts of both outcomes of every setting present."""
    cells = [(p, b, o) for (p, b) in dataset.settings() for o in (0, 1)]
    return ([_CELL_INDEX[c] for c in cells],
            np.array([dataset.counts.get(c, 0.0) for c in cells]))


def linear_inversion(dataset: TomographyDataset) -> np.ndarray:
    """Least-squares chi from observed count rates.

    Solves Tr(C_k chi) = lambda * f_k over chi and the unknown overall
    intensity lambda, where f_k is the dataset-wide count fraction of
    cell k, then fixes the scale by Tr(chi) = 1.  Returns a Hermitian
    unit-trace matrix that is not necessarily positive.
    """
    total = dataset.total()
    if total <= 0:
        raise InvalidInputError("dataset is empty")
    rows, counts = _setting_cells(dataset)
    # Tr(chi C) = vec(C^T) . vec(chi); the last column carries -lambda,
    # the last row fixes the unit trace
    a = np.zeros((len(rows) + 1, 17), dtype=complex)
    a[:-1, :16] = _C_TABLE[rows].transpose(0, 2, 1).reshape(-1, 16)
    a[:-1, 16] = -counts / total
    a[-1, :16] = np.eye(4).reshape(-1)
    y = np.zeros(len(rows) + 1, dtype=complex)
    y[-1] = 1.0
    sol = np.linalg.lstsq(a, y, rcond=None)[0]
    chi = sol[:16].reshape(4, 4)
    chi = (chi + chi.conj().T) / 2.0
    return chi / np.trace(chi).real


def _project_unit_simplex(m: np.ndarray) -> np.ndarray:
    """Nearest unit-trace positive matrix to Hermitian m (Frobenius norm).

    One eigendecomposition, then the eigenvalues' exact projection onto
    the probability simplex: subtract the one shift that leaves the
    positive part summing to 1 and clip the rest to 0.
    """
    evals, evecs = np.linalg.eigh(m)
    desc = evals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(desc) + 1)
    shift = shifts[np.flatnonzero(desc > shifts)[-1]]
    return (evecs * np.clip(evals - shift, 0.0, None)) @ evecs.conj().T


def _chi_gradient(chi: np.ndarray, terms) -> tuple[np.ndarray, float]:
    """Gradient of the log-likelihood in chi,
    G = sum_k n_k C_k / Tr(C_k chi) - N S / Tr(S chi), and its value."""
    vals = np.einsum("kij,ji->k", terms["event_mats"], chi).real
    norm_val = np.einsum("ij,ji->", terms["norm_mat"], chi).real
    grad = np.einsum("k,kij->ij",
                     terms["event_counts"] / np.clip(vals, 1e-300, None),
                     terms["event_mats"])
    grad -= (terms["norm_count"] / norm_val) * terms["norm_mat"]
    if vals.min() <= 1e-300:
        return grad, -np.inf
    return grad, float(terms["event_counts"] @ np.log(vals)
                       - terms["norm_count"] * math.log(norm_val))


def _likelihood_terms(dataset: TomographyDataset) -> dict:
    """Multinomial model over all cells: p_k = Tr(C_k chi) / Tr(S chi)."""
    rows, counts = _setting_cells(dataset)
    mats = _C_TABLE[rows]
    seen = counts > 0
    return {"event_mats": mats[seen], "event_counts": counts[seen],
            "norm_mat": mats.sum(axis=0), "norm_count": dataset.total()}


def _optimality_gap(chi: np.ndarray, grad: np.ndarray) -> float:
    """lambda_max(G) - Tr(G chi): zero exactly at a maximum over the
    unit-trace positive matrices, and by concavity an upper bound on how
    far the log-likelihood at chi lies below that maximum."""
    return float(np.linalg.eigvalsh(grad)[-1] - np.vdot(grad, chi).real)


# step halvings tried before a step is given up (a factor of about 1e-18)
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class MleResult:
    chi: ChiMatrix
    log_likelihood: float
    iterations: int
    gradient_norm: float
    converged: bool


def reconstruct_mle(dataset: TomographyDataset, max_iter: int = 10000,
                    grad_tol: float = 1e-7,
                    initial: np.ndarray | None = None) -> MleResult:
    """Maximum-likelihood chi by accelerated projected gradient ascent.

    Starts from the nearest unit-trace positive matrix to ``initial``
    (default: the linear-inversion estimate), or from I/4, which gives
    every cell probability 1/2, when that start gives an observed cell
    zero probability.  Each iteration takes one step chi <- P(y + s G) from
    the momentum point y, where P is the exact projection and the step
    s backtracks until the sufficient-increase test holds; momentum
    restarts whenever the log-likelihood would drop.

    ``gradient_norm`` is the count-scaled optimality residual
    (lambda_max(G) - Tr(G chi)) / N at the returned chi, where G is the
    log-likelihood gradient and N the total count; it bounds the
    log-likelihood's shortfall from the maximum per count.
    ``converged`` says that it is at most ``grad_tol``, and
    ``iterations`` counts the gradient steps taken (0 when the start is
    already optimal, as on noise-free analytic data).
    """
    terms = _likelihood_terms(dataset)
    total = terms["norm_count"]
    if not total > 0:
        raise InvalidInputError("dataset is empty")
    start = (linear_inversion(dataset) if initial is None
             else np.asarray(initial, dtype=complex))
    chi = _project_unit_simplex(start)
    grad, ll = _chi_gradient(chi, terms)
    if not np.isfinite(ll):
        chi = np.eye(4) / 4.0  # Tr(C_k I/4) = 1/2 > 0 for every cell
        grad, ll = _chi_gradient(chi, terms)
    if not np.isfinite(ll):
        raise InvalidInputError("counts give no finite likelihood")
    y, grad_y, ll_y = chi, grad, ll
    theta, step, it = 1.0, 1.0 / total, 0
    gap = _optimality_gap(chi, grad) / total
    while gap > grad_tol and it < max_iter:
        it += 1
        for _ in range(_MAX_HALVINGS):
            cand = _project_unit_simplex(y + step * grad_y)
            grad_c, ll_c = _chi_gradient(cand, terms)
            d = cand - y
            if ll_c >= (ll_y + np.vdot(grad_y, d).real
                        - np.vdot(d, d).real / (2.0 * step)):
                break
            step *= 0.5
        else:
            if y is chi:
                break  # no ascent step from chi itself: stalled
            ll_c = -np.inf
        if ll_c < ll and y is not chi:
            # the momentum overshot: restart from chi
            y, grad_y, ll_y, theta = chi, grad, ll, 1.0
            continue
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        beta = (theta - 1.0) / theta_next
        chi_prev, chi, grad, ll, theta = chi, cand, grad_c, ll_c, theta_next
        y, grad_y, ll_y = chi, grad, ll
        if beta > 0.0:
            y_m = chi + beta * (chi - chi_prev)
            grad_m, ll_m = _chi_gradient(y_m, terms)
            if np.isfinite(ll_m):
                y, grad_y, ll_y = y_m, grad_m, ll_m
            else:
                theta = 1.0  # the momentum point left the domain
        gap = _optimality_gap(chi, grad) / total
        step *= 2.0
    return MleResult(ChiMatrix(chi), ll, it, gap, gap <= grad_tol)


def process_fidelity(chi_a: ChiMatrix, chi_b: ChiMatrix) -> float:
    """Overlap Tr(chi_a chi_b); equals the usual process fidelity when one
    argument is rank one (an ideal unitary process)."""
    return float(np.trace(chi_a.data @ chi_b.data).real)


def bootstrap_fidelity(dataset: TomographyDataset, reference: ChiMatrix,
                       resamples: int, rng: np.random.Generator,
                       max_iter: int = 2000) -> tuple[float, float]:
    """Poisson-bootstrap mean and standard deviation of the process
    fidelity between re-estimated chi matrices and a reference."""
    if resamples < 2:
        raise InvalidInputError("need at least two resamples")
    fids = []
    for _ in range(resamples):
        counts = {k: float(rng.poisson(max(v, 0.0)))
                  for k, v in dataset.counts.items()}
        if sum(counts.values()) <= 0:
            continue
        res = reconstruct_mle(TomographyDataset(counts), max_iter=max_iter)
        fids.append(process_fidelity(res.chi, reference))
    if len(fids) < 2:
        raise InvalidInputError(
            "fewer than two bootstrap resamples hold any counts")
    arr = np.array(fids)
    return float(arr.mean()), float(arr.std(ddof=1))
