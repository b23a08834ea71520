"""Builders for the benchmark Hamiltonians and target objects.

Four model families are provided, listed once in :data:`FAMILIES`, each
returning a Hermitian static Hamiltonian together with the list of
Hermitian control operators it is driven through:

* a driven transmon coupled to a cavity (longitudinal and transverse
  transmon drives),
* three driven transmons with nearest-neighbour exchange coupling,
* a chain of driven qubits with nearest-neighbour sigma_z coupling,
* two capacitively coupled fluxonium qubits, flux-driven through their
  inductive terms.

Frequencies and energies are specified as linear frequencies in GHz
(values quoted as omega / 2 pi); builders convert to angular units of
rad/ns, so a time step ``dt`` is measured in nanoseconds.  All operators
are returned in compressed sparse row form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .sparse import CsrMatrix, build_csr_arrays, from_dense, identity_csr, linear_combine

__all__ = [
    "TransmonCavityParams",
    "ThreeTransmonParams",
    "QubitChainParams",
    "FluxoniumPairParams",
    "build_transmon_cavity",
    "build_three_transmons",
    "build_qubit_chain",
    "build_fluxonium_pair",
    "Family",
    "FAMILIES",
    "fock_state",
    "hadamard_target",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# elementary operators


def _lowering(dim: int) -> CsrMatrix:
    n = np.arange(1, dim, dtype=np.int64)
    return build_csr_arrays(n - 1, n, np.sqrt(n).astype(np.complex128), dim, dim)


def _raising(dim: int) -> CsrMatrix:
    n = np.arange(1, dim, dtype=np.int64)
    return build_csr_arrays(n, n - 1, np.sqrt(n).astype(np.complex128), dim, dim)


def _number(dim: int) -> CsrMatrix:
    n = np.arange(dim, dtype=np.int64)
    return build_csr_arrays(n, n, n.astype(np.complex128), dim, dim)


def _anharmonic(dim: int) -> CsrMatrix:
    """Diagonal n(n-1) operator."""
    n = np.arange(dim, dtype=np.int64)
    return build_csr_arrays(n, n, (n * (n - 1)).astype(np.complex128), dim, dim)


def kron_csr(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Kronecker product of two CSR matrices."""
    ra, ca, va = a.triplets()
    rb, cb, vb = b.triplets()
    rows = (ra[:, None] * b.n_rows + rb[None, :]).ravel()
    cols = (ca[:, None] * b.n_cols + cb[None, :]).ravel()
    vals = (va[:, None] * vb[None, :]).ravel()
    return build_csr_arrays(rows, cols, vals, a.n_rows * b.n_rows, a.n_cols * b.n_cols)


def _embed(op: CsrMatrix, site: int, dims: list[int]) -> CsrMatrix:
    """Lift a single-site operator into the tensor product of all sites."""
    result = op if site == 0 else identity_csr(dims[0])
    for k in range(1, len(dims)):
        factor = op if k == site else identity_csr(dims[k])
        result = kron_csr(result, factor)
    return result


# ---------------------------------------------------------------------------
# model parameter sets


@dataclass(frozen=True)
class TransmonCavityParams:
    """Driven transmon coupled to a cavity.

    ``delta`` is the transmon-cavity frequency difference, ``anharmonicity``
    the transmon anharmonicity, ``g`` the exchange coupling (all GHz).
    """

    delta: float = 3.0
    anharmonicity: float = -0.225
    g: float = 0.1
    d_transmon: int = 6
    d_cavity: int = 50


@dataclass(frozen=True)
class ThreeTransmonParams:
    """Three resonantly driven transmons with nearest-neighbour coupling."""

    anharmonicity: float = -0.225
    g: float = 0.1
    d_each: int = 6


@dataclass(frozen=True)
class QubitChainParams:
    """Driven qubit chain with nearest-neighbour sigma_z coupling."""

    n_qubits: int = 4
    g: float = 0.1


@dataclass(frozen=True)
class FluxoniumPairParams:
    """Two capacitively coupled fluxonium qubits in the oscillator basis.

    ``e_c``/``e_j``/``e_l`` are charging, Josephson and inductive energies
    in GHz; ``ext_flux`` is the static external flux offset entering the
    inductive term.
    """

    e_c1: float = 2.5
    e_c2: float = 2.5
    e_j1: float = 8.9
    e_j2: float = 8.9
    e_l1: float = 0.5
    e_l2: float = 0.5
    g: float = 0.1
    ext_flux: float = 0.33
    d_each: int = 20


# ---------------------------------------------------------------------------
# builders


def build_transmon_cavity(p: TransmonCavityParams) -> tuple[CsrMatrix, list[CsrMatrix]]:
    """Transmon (anharmonic mode b) coupled to a cavity mode c.

    Static part: ``delta b'b + (alpha/2) b'b(b'b - 1) + g (c b' + c' b)``.
    Controls: longitudinal ``b'b`` and transverse ``b + b'`` transmon
    drives, in that order.
    """
    if p.d_transmon < 2 or p.d_cavity < 2:
        raise ValueError("mode dimensions must be at least 2")
    b = _lowering(p.d_transmon)
    bd = _raising(p.d_transmon)
    ic = identity_csr(p.d_cavity)
    c = _lowering(p.d_cavity)
    cd = _raising(p.d_cavity)

    nt = kron_csr(_number(p.d_transmon), ic)
    anh = kron_csr(_anharmonic(p.d_transmon), ic)
    exchange = linear_combine([1.0, 1.0], [kron_csr(bd, c), kron_csr(b, cd)])

    delta = _TWO_PI * p.delta
    alpha = _TWO_PI * p.anharmonicity
    g = _TWO_PI * p.g
    h_static = linear_combine([delta, 0.5 * alpha, g], [nt, anh, exchange])

    h_long = nt
    h_trans = kron_csr(linear_combine([1.0, 1.0], [b, bd]), ic)
    return h_static, [h_long, h_trans]


def build_three_transmons(p: ThreeTransmonParams) -> tuple[CsrMatrix, list[CsrMatrix]]:
    """Chain of three identical transmons, each with its own drive channel."""
    if p.d_each < 2:
        raise ValueError("transmon dimension must be at least 2")
    dims = [p.d_each] * 3
    b = _lowering(p.d_each)
    bd = _raising(p.d_each)
    alpha = _TWO_PI * p.anharmonicity
    g = _TWO_PI * p.g

    ident = identity_csr(p.d_each)
    hop12 = kron_csr(kron_csr(b, bd), ident)
    hop23 = kron_csr(ident, kron_csr(b, bd))
    terms = [_embed(_anharmonic(p.d_each), site, dims) for site in range(3)]
    coeffs = [0.5 * alpha] * 3
    for hop in (hop12, hop23):
        terms.append(linear_combine([1.0, 1.0], [hop, hop.conj_transpose()]))
        coeffs.append(g)
    h_static = linear_combine(coeffs, terms)

    controls = [
        _embed(linear_combine([1.0, 1.0], [b, bd]), site, dims) for site in range(3)
    ]
    return h_static, controls


def build_qubit_chain(p: QubitChainParams) -> tuple[CsrMatrix, list[CsrMatrix]]:
    """Qubit chain: diagonal sigma_z sigma_z coupling, sigma_x/sigma_y drives.

    Controls are ordered ``[x_1, y_1, x_2, y_2, ...]``.  Qubit ``nu``
    occupies bit ``n_qubits - 1 - nu`` of the basis index, i.e. qubit 1 is
    the leftmost tensor factor.
    """
    nq = p.n_qubits
    if nq < 1:
        raise ValueError("need at least one qubit")
    dim = 2**nq
    idx = np.arange(dim, dtype=np.int64)

    g = _TWO_PI * p.g
    diag = np.zeros(dim)
    for nu in range(nq - 1):
        z1 = 1.0 - 2.0 * ((idx >> (nq - 1 - nu)) & 1)
        z2 = 1.0 - 2.0 * ((idx >> (nq - 2 - nu)) & 1)
        diag += g * z1 * z2
    h_static = build_csr_arrays(idx, idx, diag.astype(np.complex128), dim, dim)

    controls: list[CsrMatrix] = []
    for nu in range(nq):
        mask = 1 << (nq - 1 - nu)
        flipped = idx ^ mask
        controls.append(
            build_csr_arrays(idx, flipped, np.ones(dim, np.complex128), dim, dim)
        )
        bit_set = (idx & mask) != 0
        vals_y = np.where(bit_set, 1j, -1j).astype(np.complex128)
        controls.append(build_csr_arrays(idx, flipped, vals_y, dim, dim))
    return h_static, controls


def _fluxonium_single(e_c: float, e_j: float, e_l: float, ext_flux: float, dim: int):
    """Dense single-fluxonium Hamiltonian pieces in the oscillator basis.

    Returns ``(h_static, phi, n)`` as dense arrays in rad/ns.  The phase
    operator is ``phi = (8 E_C / E_L)^(1/4) (a + a') / sqrt(2)`` and the
    charge operator ``n = i (E_L / (8 E_C))^(1/4) (a' - a) / sqrt(2)``.
    """
    ec = _TWO_PI * e_c
    ej = _TWO_PI * e_j
    el = _TWO_PI * e_l
    sq = np.sqrt(np.arange(1, dim))
    a = np.zeros((dim, dim), dtype=np.complex128)
    a[np.arange(dim - 1), np.arange(1, dim)] = sq
    ad = a.conj().T

    phi_zpf = (8.0 * ec / el) ** 0.25 / math.sqrt(2.0)
    n_zpf = (el / (8.0 * ec)) ** 0.25 / math.sqrt(2.0)
    phi = phi_zpf * (a + ad)
    n_op = 1j * n_zpf * (ad - a)

    # cos of the Hermitian phase operator through its eigenbasis
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.conj().T

    shifted = phi - ext_flux * np.eye(dim)
    h = 4.0 * ec * (n_op @ n_op) - ej * cos_phi + 0.5 * el * (shifted @ shifted)
    return h, phi, n_op


def build_fluxonium_pair(p: FluxoniumPairParams) -> tuple[CsrMatrix, list[CsrMatrix]]:
    """Two capacitively coupled fluxoniums; one flux-drive channel per qubit.

    The static external flux sits inside the inductive term,
    ``(E_L/2)(phi - ext_flux - drive(t))^2``; expanding in the drive leaves
    the control operator ``-E_L phi`` per qubit (scalar drive terms only
    shift the global phase and are dropped).
    """
    if p.d_each < 4:
        raise ValueError("fluxonium oscillator basis needs at least 4 levels")
    h1, phi1, n1 = _fluxonium_single(p.e_c1, p.e_j1, p.e_l1, p.ext_flux, p.d_each)
    h2, phi2, n2 = _fluxonium_single(p.e_c2, p.e_j2, p.e_l2, p.ext_flux, p.d_each)
    g = _TWO_PI * p.g

    h1_csr = from_dense(0.5 * (h1 + h1.conj().T))
    h2_csr = from_dense(0.5 * (h2 + h2.conj().T))
    ident = identity_csr(p.d_each)
    h_static = linear_combine(
        [1.0, 1.0, g],
        [
            kron_csr(h1_csr, ident),
            kron_csr(ident, h2_csr),
            kron_csr(from_dense(n1), from_dense(n2)),
        ],
    )
    el1 = _TWO_PI * p.e_l1
    el2 = _TWO_PI * p.e_l2
    controls = [
        kron_csr(from_dense(-el1 * phi1), ident),
        kron_csr(ident, from_dense(-el2 * phi2)),
    ]
    return h_static, controls


class Family(NamedTuple):
    """A family's builder, the parameter a size sweep sets, and its fixture drive in GHz."""

    params: type
    build: Callable[..., tuple[CsrMatrix, list[CsrMatrix]]]
    size_field: str
    drive_ghz: float


#: Family name -> :class:`Family`; the benchmark fixture drives every channel at ``drive_ghz``.
FAMILIES = {
    "transmon_cavity": Family(TransmonCavityParams, build_transmon_cavity, "d_cavity", 0.1),
    "three_transmons": Family(ThreeTransmonParams, build_three_transmons, "d_each", 0.1),
    "qubit_chain": Family(QubitChainParams, build_qubit_chain, "n_qubits", 0.5),
    # no drive amplitude is part of the fluxonium fixture: the static
    # Hamiltonian alone (external flux offset included) sets the norm
    "fluxonium_pair": Family(FluxoniumPairParams, build_fluxonium_pair, "d_each", 0.0),
}


# ---------------------------------------------------------------------------
# targets


def transmon_number_op(p: TransmonCavityParams) -> CsrMatrix:
    """Transmon excitation number lifted to the full transmon-cavity space.

    Useful as a penalty operator that discourages populating high transmon
    levels, which in turn justifies a small transmon truncation.
    """
    return kron_csr(_number(p.d_transmon), identity_csr(p.d_cavity))


def fock_state(dim: int, n: int) -> np.ndarray:
    """Unit basis vector |n> of an oscillator truncated to ``dim`` levels."""
    if not 0 <= n < dim:
        raise ValueError(f"fock index {n} outside dimension {dim}")
    state = np.zeros(dim, dtype=np.complex128)
    state[n] = 1.0
    return state


def hadamard_target(n_qubits: int, d_each: int) -> np.ndarray:
    """Simultaneous Hadamard on the two lowest levels of each mode.

    Levels above the qubit subspace are mapped by the identity, which
    keeps the target unitary on the truncated space.
    """
    if d_each < 2:
        raise ValueError("each mode needs at least 2 levels")
    single = np.eye(d_each, dtype=np.complex128)
    h = 1.0 / math.sqrt(2.0)
    single[0:2, 0:2] = np.array([[h, h], [h, -h]])
    target = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n_qubits):
        target = np.kron(target, single)
    return target
