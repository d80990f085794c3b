"""Tensor-product kernels and the basis convention of the two-qubit (4x4) route.

The route's one eigendecomposition per state is states.validate's, which
entanglement.wootters_spectrum reuses.  Basis ordering is fixed once and for
all: two-qubit matrices are indexed by |00>, |01>, |10>, |11> (row-major, first
qubit = side A), single-qubit matrices by |0>, |1>.  Every closed form in the
other modules assumes this ordering.
"""


def _kron2(a, b):
    # np.kron of two 2x2 arrays: the same products, without its generic reshaping
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _marginals(a):
    # (Tr_B a, Tr_A a): two terms per entry, one for each value of the traced index
    t = a.reshape(2, 2, 2, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1], t[0, :, 0, :] + t[1, :, 1, :]
