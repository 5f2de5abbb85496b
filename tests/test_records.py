"""Frozen records holding numpy arrays compare and hash by identity."""

import math

import numpy as np
import pytest

from lccsim import kak, protocol, qcore
from lccsim.lcc import LinearCombinationSpec, run_lcc
from lccsim.tomography import ChiMatrix

R = 1 / math.sqrt(2)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]

BUILDERS = {
    "QuantumState": lambda: qcore.statevector([R, R]),
    "LinearCombinationSpec": lambda: LinearCombinationSpec(
        (R, R), (qcore.ID2, qcore.SX)),
    "KakDecomposition": lambda: kak.kak_decompose(CNOT),
    "MagicBasisWork": lambda: kak.simultaneous_svd(np.eye(4), np.zeros((4, 4))),
    "ChiMatrix": lambda: ChiMatrix(np.diag([1.0, 0.0, 0.0, 0.0])),
    "SendPolicy": lambda: protocol.SendPolicy(
        epsilon=1.0, tau=0.5, control_rho=np.diag([1.0, 0.0])),
    "LccRunResult-succeeded": lambda: run_lcc(
        LinearCombinationSpec((R, R), (qcore.ID2, qcore.SX)),
        qcore.statevector([1.0, 0.0])),
    # (I - I)/sqrt(2): the postselection never succeeds
    "LccRunResult-vanishing": lambda: run_lcc(
        LinearCombinationSpec((R, -R), (qcore.ID2, qcore.ID2)),
        qcore.statevector([1.0, 0.0])),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_array_record_equality_is_identity(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)
