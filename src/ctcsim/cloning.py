"""Builders for the two CTC-assisted cloning circuits, clone verification
reports, the cloning-condition inequality checks, and the chronology-
respecting no-cloning baseline.

Both circuits live on a three-register layout [A, B, CTC], all of dimension
N. Register A carries the state to clone, B the blank |0><0| input, and the
CTC register is solved self-consistently.

Gate application order: the pure cloner applies [W, V, S, T1, T2] (rightmost
factor of the operator product first); the mixed cloner applies [W1, W2, V]
in subscript order, the ordering under which its diagonal broadcast output is
actually reproduced.

A build costs what its alphabet costs. What depends on N alone is made once
per N and shared, each in an ``lru_cache`` keyed on N with its arrays
read-only: the [A, B, CTC] layout (``_cloner_layout``), the SWAP and CSUM
permutations (``quantum._permutation``) and the blank |0><0| input of B
(``_blank``). A pure build then makes and checks only the N basis mappers,
as one stack with one ``check_unitary``, and a mixed build checks only its
registers. Nothing keyed on an alphabet, a target or a file is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np

from . import linalg
from .engine import DeutschProblem, FixedPointResult, evolve
from .fidelity import FIDELITY_SLACK, factor_fidelities
from .quantum import (
    Alphabet,
    DensityMatrix,
    GateList,
    Layout,
    PureState,
    Unitary,
    basis_mappers,
    csum_gate,
    select_gate,
    swap_gate,
)

DIAGONAL_TOL = 1e-10  # max off-diagonal magnitude of a mixed-diagonal target


@dataclass(frozen=True)
class ClonerCircuit:
    layout: Layout
    gates: tuple  # of (label, GateList) in application order
    kind: str  # pure_alphabet | mixed_diagonal
    alphabet: Alphabet | None = None

    def __post_init__(self):
        labels = [lbl for lbl, _ in self.gates]
        expected = {
            "pure_alphabet": ["W", "V", "S", "T1", "T2"],
            "mixed_diagonal": ["W1", "W2", "V"],
        }
        if self.kind not in expected:
            raise ValueError(f"unknown cloner kind {self.kind!r}")
        if labels != expected[self.kind]:
            raise ValueError(f"gate labels {labels} do not match {self.kind}")
        for label, gl in self.gates:
            if gl.layout.registers != self.layout.registers:
                raise ValueError(f"gate {label} is on registers {gl.layout.registers}, "
                                 f"not the cloner's {self.layout.registers}")

    @cached_property
    def total(self) -> GateList:
        """The interaction: every gate's local gates, in application order,
        each checked on these registers by its own list."""
        gates = tuple(g for _, gl in self.gates for g in gl.gates)
        return GateList._trusted(self.layout, gates)

    @property
    def n(self) -> int:
        return self.layout.dim("A")


@dataclass
class CloneReport:
    input_state: DensityMatrix
    fixed_point: FixedPointResult
    output: DensityMatrix
    clone_a: DensityMatrix
    clone_b: DensityMatrix
    fid_a: float
    fid_b: float
    joint_fid: float


@lru_cache(maxsize=64)
def _cloner_layout(n: int) -> Layout:
    """The [A, B, CTC] layout of dim ``n``, shared by every cloner of that dim."""
    return Layout((("A", n), ("B", n), ("CTC", n)), ctc_index=2)


@lru_cache(maxsize=64)
def _blank(n: int) -> DensityMatrix:
    """The blank |0><0| input of B in dim ``n``, shared by every clone of
    that dim: its matrix and factor are read-only."""
    blank = PureState.basis(n, 0).density()
    blank.mat.flags.writeable = False
    blank.factor.flags.writeable = False
    return blank


def build_pure_cloner(alphabet: Alphabet) -> ClonerCircuit:
    """Cloner for a finite alphabet of pure states.

    The circuit swaps A into the loop, copies the loop's basis label onto B
    with CSUM, then uses three controlled-select stages built from the basis
    mappers U_k (U_k|psi_k> = |k>) to decode both clones.

    Only the mappers depend on the alphabet: they are built as one stack
    and checked by one ``check_unitary``, and daggered once for T1 and T2.
    The layout and the SWAP and CSUM gates are the ones shared by every
    cloner of the alphabet's dim, and no gate is checked again.
    """
    n = alphabet.dim
    if n < 2:
        raise ValueError(f"alphabet dimension must be >= 2, got {n}")
    layout = _cloner_layout(n)
    mappers = basis_mappers(alphabet)
    inverses = mappers.dagger()
    w = swap_gate(layout, "A", "CTC")
    v = csum_gate(layout, "A", "B")
    s = select_gate(layout, "B", "CTC", mappers)
    t1 = select_gate(layout, "A", "B", inverses)
    t2 = select_gate(layout, "CTC", "A", inverses)
    gates = (("W", w), ("V", v), ("S", s), ("T1", t1), ("T2", t2))
    return ClonerCircuit(layout, gates, "pure_alphabet", alphabet)


def build_mixed_cloner(n: int) -> ClonerCircuit:
    """Cloner for states diagonal in the computational basis."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    layout = _cloner_layout(n)
    w1 = swap_gate(layout, "A", "CTC")
    w2 = swap_gate(layout, "B", "CTC")
    v = csum_gate(layout, "B", "CTC")
    gates = (("W1", w1), ("W2", w2), ("V", v))
    return ClonerCircuit(layout, gates, "mixed_diagonal")


def make_problem(cloner: ClonerCircuit, target: DensityMatrix) -> DeutschProblem:
    cr_input = DensityMatrix.product((target, _blank(cloner.n)))
    return DeutschProblem(cloner.layout, cloner.total, cr_input)


def run_clone(cloner: ClonerCircuit, target: DensityMatrix) -> CloneReport:
    """Clone one target through the circuit and report clones and fidelities."""
    n = cloner.n
    if target.side != n:
        raise ValueError(f"target side {target.side} does not match cloner dim {n}")
    if cloner.kind == "mixed_diagonal":
        off_diag = np.max(np.abs(target.mat - np.diag(np.diag(target.mat))))
        if off_diag > DIAGONAL_TOL:
            raise ValueError(
                "mixed-diagonal cloner requires a target diagonal in the "
                f"computational basis (off-diagonal magnitude {off_diag:.3e}); "
                "conjugate into the eigenbasis first"
            )
    output, fp = evolve(make_problem(cloner, target))
    # the partial traces of the Gram output onto A and onto B, the traces
    # ``linalg.partial_trace`` takes, written into one (2, n, n) stack:
    # density matrices by construction
    joint = output.mat.reshape(n, n, n, n)
    clones = np.empty((2, n, n), dtype=complex)
    joint.trace(axis1=1, axis2=3, out=clones[0])
    joint.trace(axis1=0, axis2=2, out=clones[1])
    clone_a, clone_b = DensityMatrix._trusted(clones[0]), DensityMatrix._trusted(clones[1])
    # the target's factor at its kept rank r, and its kron for the joint
    # target: each fidelity is an r x r (r^2 x r^2 for the joint) problem,
    # and both clones take theirs in one call (a pure target's are read
    # without an eigendecomposition)
    w = target.factor
    fid_a, fid_b = factor_fidelities(clones, w).tolist()
    return CloneReport(
        input_state=target,
        fixed_point=fp,
        output=output,
        clone_a=clone_a,
        clone_b=clone_b,
        fid_a=fid_a,
        fid_b=fid_b,
        joint_fid=float(factor_fidelities(output.mat, linalg.kron(w, w))),
    )


def check_cloning_condition(fid_cr: float, fid_ctc: float):
    """Evaluate the two fidelity inequalities for a pair of clone runs.

    Inputs are F(rho_i, rho_j) for the CR targets and F between the two solved
    CTC fixed points. Returns (ineq_cr_ok, ineq_ctc_ok, (margin_cr, margin_ctc))
    where margin_cr = F_cr^2 - F_cr F_ctc and margin_ctc = F_ctc - F_cr F_ctc;
    both must be >= -FIDELITY_SLACK.
    """
    for name, f in (("fid_cr", fid_cr), ("fid_ctc", fid_ctc)):
        if not -FIDELITY_SLACK <= f <= 1 + FIDELITY_SLACK:
            raise ValueError(f"{name} = {f} outside [0, 1]")
    product = fid_cr * fid_ctc
    margin_cr = fid_cr**2 - product
    margin_ctc = fid_ctc - product
    floor = -FIDELITY_SLACK
    return margin_cr >= floor, margin_ctc >= floor, (margin_cr, margin_ctc)


def no_ctc_baseline(
    alphabet: Alphabet,
    interaction: GateList | Unitary,
    ancilla: DensityMatrix,
) -> float:
    """Worst-pair infidelity of a chronology-respecting would-be cloner.

    The interaction acts on A x B x C with C a fixed ancilla; no fixed point
    is solved. Returns 1 minus the smallest joint clone fidelity over the
    alphabet. Strictly positive for alphabets with any pairwise fidelity
    strictly inside (0, 1), for every interaction.
    """
    n = alphabet.dim
    total = n * n * ancilla.side
    if interaction.side != total:
        raise ValueError(
            f"interaction side {interaction.side} does not match A*B*C = {total}"
        )
    return float(baseline_infidelities(alphabet, interaction.mat[None], ancilla)[0])


def baseline_infidelities(
    alphabet: Alphabet, interactions: np.ndarray, ancilla: DensityMatrix
) -> np.ndarray:
    """``no_ctc_baseline`` for a (..., D, D) stack of dense interactions,
    each a validated unitary on A x B x C.

    Every alphabet ket is evolved by every interaction in one product, and
    all pair fidelities are taken in one call, each the 1 x 1 sandwich of a
    ket (no eigendecomposition); the worst is the minimum over states."""
    n = alphabet.dim
    kets = np.stack([state.amps for state in alphabet.states])[:, :, None]
    # the factor psi x 0 x W_C of each input, evolved, with C moved into its
    # columns: a factor of Tr_C of the evolved state
    tail = linalg.kron(PureState.basis(n, 0).amps[:, None], ancilla.factor)
    evolved = interactions[..., None, :, :] @ linalg.kron(kets, tail)
    e = linalg.reduced_factor(evolved, (n, n, ancilla.side), [2])
    # psi x psi is the factor of the pure joint target
    fids = factor_fidelities(e @ linalg.dagger(e), linalg.kron(kets, kets))
    return 1.0 - fids.min(axis=-1)
