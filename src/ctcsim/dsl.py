"""Line-oriented circuit description language and its serializer.

One directive per line, ``#`` starts a comment, blank lines are ignored::

    # ctcsim v1
    system A 2
    system CTC 2
    input pure A : 1 0
    gate swap A CTC

Directives: ``system <name> <dim>``, ``input pure <reg>... : <complex>...``,
``input mixed <reg>... : <row> ; <row> ; ...``, ``gate swap|csum <r1> <r2>``,
``gate select|select_adj <ctrl> <tgt> @<file>``, ``gate unitary <reg> @<file>``.
Gates apply in file order, top first. Complex literals are ``<float>``,
``<float>+<float>i`` or ``<float>-<float>i`` with no interior spaces, and
must be finite. Each input line is a state of its own registers, validated
once when it is lowered; the CR input is the product of the lines.

Matrix files referenced with ``@`` carry a ``matrix <side> <count>`` header
followed by whitespace/";"-separated complex literals in row-major order.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .engine import DeutschProblem
from .quantum import (
    DensityMatrix,
    GateList,
    Layout,
    PureState,
    Select,
    Unitary,
    csum_gate,
    embed_on_registers,
    select_gate,
    swap_gate,
)

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_FLOAT})(?:(?P<sign>[+-])(?P<im>{_FLOAT})i)?$"
)
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"[:;]|[^\s:;]+")

INPUT_NORM_TOL = 1e-6  # max |norm - 1| of a pure input line's amplitudes
# a pure line nearer unit norm is not divided by its norm, so that
# parse/serialize round-trips are exact
RENORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    expected: str = ""

    def __str__(self):
        tail = f" (expected {self.expected})" if self.expected else ""
        return f"line {self.line}, column {self.column}: {self.message}{tail}"


class CircuitSyntaxError(Exception):
    """Raised by ``parse`` with the full list of collected errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int


@dataclass(frozen=True)
class SystemDecl:
    name: str
    dim: int
    span: SourceSpan = field(compare=False, default=SourceSpan(0, 1))


@dataclass(frozen=True)
class InputDecl:
    regs: tuple
    kind: str  # pure | mixed
    amps: tuple = ()        # pure: flat complex amplitudes
    rows: tuple = ()        # mixed: tuple of row tuples
    span: SourceSpan = field(compare=False, default=SourceSpan(0, 1))


@dataclass(frozen=True)
class GateDecl:
    kind: str  # swap | csum | select | select_adj | unitary
    regs: tuple
    file: str | None = None
    span: SourceSpan = field(compare=False, default=SourceSpan(0, 1))


@dataclass(frozen=True)
class CircuitSpec:
    systems: tuple
    inputs: tuple
    gates: tuple

    def system_dims(self) -> dict:
        return {s.name: s.dim for s in self.systems}


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"malformed complex literal {text!r}")
    im = float(m.group("im") or 0.0)
    z = complex(float(m.group("re")), -im if m.group("sign") == "-" else im)
    if not cmath.isfinite(z):  # a literal such as 1e999 overflows to inf
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "-" if z.imag < 0 else "+"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


def _tokens(line: str):
    """(text, 1-based column) pairs; ':' and ';' are standalone tokens."""
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


class _LineParser:
    def __init__(self):
        self.errors = []
        self.systems = []
        self.inputs = []
        self.claimed = set()  # registers named by an input line
        self.gates = []

    def error(self, line, col, message, expected=""):
        self.errors.append(ParseError(line, col, message, expected))

    def parse_line(self, lineno, raw):
        text = raw.split("#", 1)[0]
        toks = _tokens(text)
        if not toks:
            return
        head, col = toks[0]
        span = SourceSpan(lineno, col)
        if head == "system":
            self._parse_system(lineno, toks, span)
        elif head == "input":
            self._parse_input(lineno, toks, span)
        elif head == "gate":
            self._parse_gate(lineno, toks, span)
        else:
            self.error(lineno, col, f"unknown directive {head!r}",
                       "system, input or gate")

    def _parse_system(self, lineno, toks, span):
        if len(toks) != 3:
            self.error(lineno, toks[0][1], "system takes a name and a dimension",
                       "system <name> <dim>")
            return
        name, ncol = toks[1]
        dim_text, dcol = toks[2]
        if not _NAME_RE.match(name):
            self.error(lineno, ncol, f"invalid register name {name!r}",
                       "identifier")
            return
        if not dim_text.isdigit() or int(dim_text) < 2:
            self.error(lineno, dcol, f"invalid dimension {dim_text!r}",
                       "integer >= 2")
            return
        if any(s.name == name for s in self.systems):
            self.error(lineno, ncol, f"duplicate system {name!r}")
            return
        self.systems.append(SystemDecl(name, int(dim_text), span))

    def _parse_input(self, lineno, toks, span):
        if len(toks) < 2 or toks[1][0] not in ("pure", "mixed"):
            self.error(lineno, toks[0][1], "input kind must be pure or mixed",
                       "input pure|mixed")
            return
        kind = toks[1][0]
        regs = []
        i = 2
        while i < len(toks) and toks[i][0] != ":":
            name, col = toks[i]
            if not _NAME_RE.match(name):
                self.error(lineno, col, f"invalid register name {name!r}",
                           "identifier")
                return
            regs.append(name)
            i += 1
        if not regs or i == len(toks):
            self.error(lineno, toks[-1][1], "input needs registers, ':' and values",
                       "input pure|mixed <reg>... : <values>")
            return
        i += 1  # skip ':'
        # a line with a well-formed head claims its registers even if a
        # value fails, so the failure is its only error
        self.claimed.update(regs)
        rows, ok = [[]], True
        for text, col in toks[i:]:
            if text == ";" and kind == "mixed":
                rows.append([])
                continue
            try:
                rows[-1].append(parse_complex(text))
            except ValueError as exc:
                self.error(lineno, col, str(exc),
                           "<float>, <float>+<float>i or <float>-<float>i")
                ok = False
        if ok:
            values = ({"amps": tuple(rows[0])} if kind == "pure"
                      else {"rows": tuple(map(tuple, rows))})
            self.inputs.append(InputDecl(tuple(regs), kind, span=span, **values))

    def _parse_gate(self, lineno, toks, span):
        if len(toks) < 2:
            self.error(lineno, toks[0][1], "gate needs a kind",
                       "swap, csum, select, select_adj or unitary")
            return
        kind, kcol = toks[1]
        rest = toks[2:]
        if kind in ("swap", "csum"):
            if len(rest) != 2:
                self.error(lineno, kcol, f"gate {kind} takes two registers",
                           f"gate {kind} <r1> <r2>")
                return
            self.gates.append(GateDecl(kind, (rest[0][0], rest[1][0]), None, span))
        elif kind in ("select", "select_adj"):
            if len(rest) != 3 or not rest[2][0].startswith("@"):
                self.error(lineno, kcol,
                           f"gate {kind} takes two registers and a @file",
                           f"gate {kind} <ctrl> <tgt> @<file>")
                return
            self.gates.append(
                GateDecl(kind, (rest[0][0], rest[1][0]), rest[2][0][1:], span)
            )
        elif kind == "unitary":
            if len(rest) != 2 or not rest[1][0].startswith("@"):
                self.error(lineno, kcol, "gate unitary takes a register and a @file",
                           "gate unitary <reg> @<file>")
                return
            self.gates.append(GateDecl(kind, (rest[0][0],), rest[1][0][1:], span))
        else:
            self.error(lineno, kcol, f"unknown gate kind {kind!r}",
                       "swap, csum, select, select_adj or unitary")


def _structural_check(p: _LineParser):
    dims = {s.name: s.dim for s in p.systems}
    ctc_count = sum(1 for s in p.systems if s.name == "CTC")
    if ctc_count != 1:
        line = p.systems[0].span.line if p.systems else 1
        p.errors.append(ParseError(line, 1,
                                   f"expected exactly one system named CTC, found {ctc_count}"))
    covered = {}
    normalized_inputs = []
    for decl in p.inputs:
        bad = False
        for r in decl.regs:
            if r not in dims:
                p.errors.append(ParseError(decl.span.line, decl.span.column,
                                           f"input references unknown register {r!r}"))
                bad = True
            elif r == "CTC":
                p.errors.append(ParseError(decl.span.line, decl.span.column,
                                           "CTC register takes no input; its state is solved"))
                bad = True
            elif r in covered:
                p.errors.append(ParseError(decl.span.line, decl.span.column,
                                           f"register {r!r} already has an input"))
                bad = True
            else:
                covered[r] = decl
        if bad:
            continue
        side = int(np.prod([dims[r] for r in decl.regs]))
        if decl.kind == "pure":
            if len(decl.amps) != side:
                p.errors.append(ParseError(
                    decl.span.line, decl.span.column,
                    f"pure input needs {side} amplitudes, got {len(decl.amps)}"))
                continue
            with np.errstate(over="ignore"):  # huge amplitudes: the norm is inf
                norm = float(np.linalg.norm(decl.amps))
            if abs(norm - 1.0) > INPUT_NORM_TOL:
                p.errors.append(ParseError(
                    decl.span.line, decl.span.column,
                    f"pure input norm {norm:.8f} is not 1 within {INPUT_NORM_TOL}"))
                continue
            if abs(norm - 1.0) > RENORM_FLOOR:
                amps = tuple(a / norm for a in decl.amps)
            else:
                amps = decl.amps
            normalized_inputs.append(InputDecl(decl.regs, "pure", amps=amps,
                                               span=decl.span))
        else:
            if len(decl.rows) != side or any(len(r) != side for r in decl.rows):
                p.errors.append(ParseError(
                    decl.span.line, decl.span.column,
                    f"mixed input needs a {side}x{side} matrix"))
                continue
            normalized_inputs.append(decl)
    for s in p.systems:
        if s.name != "CTC" and s.name not in p.claimed:
            p.errors.append(ParseError(s.span.line, s.span.column,
                                       f"register {s.name!r} has no input directive"))
    for g in p.gates:
        for r in g.regs:
            if r not in dims:
                p.errors.append(ParseError(g.span.line, g.span.column,
                                           f"gate references unknown register {r!r}"))
    return normalized_inputs


def parse(text: str) -> CircuitSpec:
    """Parse circuit source, collecting every error before giving up."""
    p = _LineParser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p.parse_line(lineno, raw)
    inputs = _structural_check(p)
    if p.errors:
        raise CircuitSyntaxError(p.errors)
    return CircuitSpec(tuple(p.systems), tuple(inputs), tuple(p.gates))


def serialize(spec: CircuitSpec) -> str:
    """Canonical text: version comment, systems, inputs, then gates."""
    lines = ["# ctcsim v1"]
    for s in spec.systems:
        lines.append(f"system {s.name} {s.dim}")
    for d in spec.inputs:
        regs = " ".join(d.regs)
        if d.kind == "pure":
            vals = " ".join(format_complex(a) for a in d.amps)
            lines.append(f"input pure {regs} : {vals}")
        else:
            rows = " ; ".join(
                " ".join(format_complex(v) for v in row) for row in d.rows
            )
            lines.append(f"input mixed {regs} : {rows}")
    for g in spec.gates:
        regs = " ".join(g.regs)
        if g.file is not None:
            lines.append(f"gate {g.kind} {regs} @{g.file}")
        else:
            lines.append(f"gate {g.kind} {regs}")
    return "\n".join(lines) + "\n"


def load_matrix_file(path) -> np.ndarray:
    """Read a ``matrix <side> <count>`` file into a complex (count, side,
    side) array."""
    text = Path(path).read_text(encoding="utf-8")
    body = []
    header = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "matrix" or not parts[1].isdigit() \
                    or not parts[2].isdigit():
                raise ValueError(f"{path}: expected header 'matrix <side> <count>'")
            header = (int(parts[1]), int(parts[2]))
            if header[0] == 0:
                raise ValueError(f"{path}: matrix side must be at least 1, got 0")
            continue
        body.extend(t for t in re.split(r"[\s;]+", line) if t)
    if header is None:
        raise ValueError(f"{path}: empty matrix file")
    side, count = header
    if len(body) != side * side * count:
        raise ValueError(
            f"{path}: expected {side * side * count} entries, got {len(body)}"
        )
    try:
        values = np.array([parse_complex(t) for t in body], dtype=complex)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values.reshape(count, side, side)


def format_matrix_file(mats) -> str:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    side = mats[0].shape[0]
    lines = [f"matrix {side} {len(mats)}"]
    for m in mats:
        for row in m:
            lines.append(" ".join(format_complex(v) for v in row) + " ;")
    return "\n".join(lines) + "\n"


def lower(spec: CircuitSpec, base_dir=".") -> DeutschProblem:
    """Build a solvable problem: canonical CTC-last layout, the interaction
    as a gate list, and the CR input. Each input line becomes a state of its
    registers: a pure line ``PureState(...).density()``, a mixed line the
    validating ``DensityMatrix(...)``, which raises ``ValueError`` naming the
    line. The CR input is ``DensityMatrix.product`` of the lines in layout
    order, as in ``cloning.make_problem``: no matrix of its size is checked
    or eigendecomposed."""
    base = Path(base_dir)
    dims = spec.system_dims()
    order = [s.name for s in spec.systems if s.name != "CTC"] + ["CTC"]
    layout = Layout(tuple((n, dims[n]) for n in order), ctc_index=len(order) - 1)

    families = {}

    def family(name, adjoint=False):
        """The matrices of one @file as a ``Select`` block stack, or its
        adjoint: read, parsed and checked (one stacked check) once."""
        key = (name, adjoint)
        if key not in families:
            if adjoint:
                families[key] = family(name).dagger()
            else:
                stack = load_matrix_file(base / name)
                try:
                    families[key] = Select(stack)
                except linalg.StackError as exc:
                    raise ValueError(f"{name}: {exc.message}") from None
        return families[key]

    def local_gates(g):
        """The validated local gates of one gate line."""
        if g.kind == "swap":
            gate = swap_gate(layout, g.regs[0], g.regs[1])
        elif g.kind == "csum":
            gate = csum_gate(layout, g.regs[0], g.regs[1])
        elif g.kind in ("select", "select_adj"):
            fam = family(g.file, adjoint=(g.kind == "select_adj"))
            if len(fam) != layout.dim(g.regs[0]):
                raise ValueError(
                    f"{g.file}: select family size {len(fam)} does not match "
                    f"control dim {layout.dim(g.regs[0])}"
                )
            gate = select_gate(layout, g.regs[0], g.regs[1], fam)
        elif g.kind == "unitary":
            fam = family(g.file)
            if len(fam) != 1:
                raise ValueError(f"{g.file}: expected a single matrix")
            gate = embed_on_registers(layout, g.regs, Unitary._trusted(fam.blocks[0]))
        else:  # pragma: no cover - parser rejects unknown kinds
            raise ValueError(f"unknown gate kind {g.kind!r}")
        return gate.gates

    # long circuits repeat a few gate lines many times: build each distinct
    # line once, and reuse its (immutable) gates
    lowered = {}
    gates = []
    for g in spec.gates:
        if g not in lowered:  # a GateDecl compares by kind, regs and file
            lowered[g] = local_gates(g)
        gates.extend(lowered[g])
    interaction = GateList(layout, tuple(gates))

    # the CR input: each line a state of its own registers, validated once
    # here, and the product of the lines in layout order
    parts, regs = [], []
    for d in spec.inputs:
        line_dims = tuple(dims[r] for r in d.regs)
        try:
            state = (PureState(np.array(d.amps, dtype=complex)).density()
                     if d.kind == "pure" else DensityMatrix(d.rows, line_dims))
        except ValueError as exc:
            raise ValueError(f"input on line {d.span.line}: {exc}") from None
        parts.append(state.with_dims(line_dims))
        regs.extend(d.regs)
    cr_input = DensityMatrix.product(parts, [regs.index(n) for n in order[:-1]])
    return DeutschProblem(layout, interaction, cr_input)
