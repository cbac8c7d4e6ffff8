"""Line-oriented circuit description language and its serializer.

One directive per line, ``#`` starts a comment, blank lines are ignored::

    # ctcsim v1
    system A 2
    system CTC 2
    input pure A : 1 0
    gate swap A CTC

Directives: ``system <name> <dim>``, ``input pure <reg>... : <complex>...``,
``input mixed <reg>... : <row> ; <row> ; ...`` and ``gate <kind> <operands>``,
with the kinds and their operands in ``GATE_KINDS``. Gates apply in file
order, top first. Complex literals are ``<float>``, ``<float>+<float>i`` or
``<float>-<float>i`` with no interior spaces, and must be finite. Each input
line is a state of its own registers, validated once when it is lowered; the
CR input is the product of the lines.

Matrix files referenced with ``@`` carry a ``matrix <side> <count>`` header
followed by whitespace/";"-separated complex literals in row-major order.

The front end costs what the distinct lines cost, since a long circuit
repeats a few gate lines. ``parse`` collects every error before it gives
up. A clean gate line (``gate``, a kind, its registers and, for a file
kind, ``@<file>``, separated by spaces or tabs only, with no ':' or ';') is
parsed by one regex match into the ``GateDecl`` the tokenizer would give;
any other line goes to the tokenizer, which names every error. Each gate
line that parsed cleanly is remembered by its text less its comment, and a
repeat of that text gets a copy of its ``GateDecl`` with its own span. A
bad line is not remembered, so each of its repeats reports its own error.
Each distinct register tuple of the gate lines is looked up once; the gate
lines are visited only when one names an undeclared register, and each
such line fails with its own span. ``lower`` reads each matrix file once,
checks the matrices of all files of one side in one stacked
``check_unitary``, builds and checks each distinct gate line's gate once,
and joins the gates into the interaction without checking them again.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

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
    check_unitary,
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
# a matrix file token: a complex literal's two parts, or the token if it is none
_ENTRY_RE = re.compile(rf"([+-]?{_FLOAT})(?:([+-]{_FLOAT})i)?(?=[\s;]|$)|([^\s;]+)")

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
    kind: str  # a key of GATE_KINDS
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


def _select_line(layout, g, family):
    """A select or select_adj line: one member of its family per control value."""
    if len(family) != layout.dim(g.regs[0]):
        raise ValueError(f"{g.file}: select family size {len(family)} does not match "
                         f"control dim {layout.dim(g.regs[0])}")
    return select_gate(layout, g.regs[0], g.regs[1], family)


def _unitary_line(layout, g, family):
    """A unitary line: the one matrix of its file on its register."""
    if len(family) != 1:
        raise ValueError(f"{g.file}: expected a single matrix")
    return embed_on_registers(layout, g.regs, Unitary._trusted(family.blocks[0]))


class GateKind(NamedTuple):
    """A gate kind's operands, its registers as the usage hint names them and
    then a ``@<file>`` when ``file``, and its builder of a line's ``GateList``:
    ``build(layout, *regs)``, or ``build(layout, decl, family)`` with the file's
    ``Select`` stack (its adjoint when ``adjoint``)."""

    regs: tuple
    build: Callable
    file: bool = False
    adjoint: bool = False


GATE_KINDS = {
    "swap": GateKind(("r1", "r2"), swap_gate),
    "csum": GateKind(("r1", "r2"), csum_gate),
    "select": GateKind(("ctrl", "tgt"), _select_line, file=True),
    "select_adj": GateKind(("ctrl", "tgt"), _select_line, file=True, adjoint=True),
    "unitary": GateKind(("reg",), _unitary_line, file=True),
}
_KIND_NAMES = f"{', '.join(list(GATE_KINDS)[:-1])} or {list(GATE_KINDS)[-1]}"
# a clean gate line, comment stripped: 'gate', a word, one or two operands
# not starting with '@' and an optional '@<file>', separated by spaces or tabs
# only, with no ':' or ';' (the tokenizer's tokens of their own). It is the
# tokenizer's clean gate line when the word is a kind of that shape.
_OPERAND = r"[^\s:;@][^\s:;]*"
_CLEAN_GATE_RE = re.compile(
    rf"([ \t]*)gate[ \t]+(\w+)[ \t]+({_OPERAND})(?:[ \t]+({_OPERAND}))?"
    r"(?:[ \t]+@([^\s:;]+))?[ \t]*"
)
# each kind's shape: its register count and whether it takes a file
_SHAPES = {name: (len(kind.regs), kind.file) for name, kind in GATE_KINDS.items()}


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


def _gate_decl(fields, line, column) -> GateDecl:
    """A ``GateDecl`` of ``fields`` (its kind, regs and file) at (line,
    column), made without the frozen dataclasses' ``__init__``, which sets
    each field through ``object.__setattr__``."""
    span = object.__new__(SourceSpan)
    attrs = span.__dict__
    attrs["line"] = line
    attrs["column"] = column
    decl = object.__new__(GateDecl)
    attrs = decl.__dict__
    attrs.update(fields)
    attrs["span"] = span  # a known line's fields hold its own span
    return decl


class _LineParser:
    def __init__(self):
        self.errors = []
        self.systems = []
        self.inputs = []
        self.claimed = set()  # registers named by an input line
        self.gates = []
        self.known_gates = {}  # a clean gate line's text, less its comment: its GateDecl

    def error(self, line, col, message, expected=""):
        self.errors.append(ParseError(line, col, message, expected))

    def parse_line(self, lineno, raw):
        line = raw.split("#", 1)[0]
        known = self.known_gates.get(line)
        if known is not None:  # a long circuit repeats a few gate lines
            self.gates.append(_gate_decl(known.__dict__, lineno, known.span.column))
            return
        # a clean gate line, in one match: the GateDecl and column the
        # tokenizer would give; any other line is tokenized
        m = _CLEAN_GATE_RE.fullmatch(line)
        if m is not None:
            indent, kind, r1, r2, file = m.groups()
            regs = (r1,) if r2 is None else (r1, r2)
            if _SHAPES.get(kind) == (len(regs), file is not None):
                decl = _gate_decl({"kind": kind, "regs": regs, "file": file},
                                  lineno, len(indent) + 1)
                self.gates.append(decl)
                self.known_gates[line] = decl
                return
        # (text, 1-based column) pairs; ':' and ';' are tokens of their own,
        # so each gets spaces around it before the whitespace split
        toks, end = [], 0
        for text in line.replace(":", " : ").replace(";", " ; ").split():
            end = line.find(text, end) + len(text)
            toks.append((text, end - len(text) + 1))
        if not toks:
            return
        head, col = toks[0]
        directive = self.DIRECTIVES.get(head)
        if directive is None:
            self.error(lineno, col, f"unknown directive {head!r}",
                       "system, input or gate")
            return
        decl = directive(self, lineno, toks, SourceSpan(lineno, col))
        if decl is not None:
            self.known_gates[line] = decl

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
        if not dim_text.isdecimal() or int(dim_text) < 2:  # '²' is a digit, not a decimal
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
            self.error(lineno, toks[0][1], "gate needs a kind", _KIND_NAMES)
            return
        name, kcol = toks[1]
        kind = GATE_KINDS.get(name)
        if kind is None:
            self.error(lineno, kcol, f"unknown gate kind {name!r}", _KIND_NAMES)
            return
        operands = [text for text, _ in toks[2:]]
        n = len(kind.regs)
        if len(operands) != n + kind.file or (
                kind.file and not operands[n].startswith("@")):
            takes = ["a register", "two registers"][n - 1] + " and a @file" * kind.file
            col, message = kcol, f"gate {name} takes {takes}"
        elif kind.file and operands[n] == "@":
            col, message = toks[2 + n][1], f"gate {name}: @ needs a file name"
        else:
            file = operands[n][1:] if kind.file else None
            decl = GateDecl(name, tuple(operands[:n]), file, span)
            self.gates.append(decl)
            return decl
        usage = [f"<{r}>" for r in kind.regs] + ["@<file>"] * kind.file
        self.error(lineno, col, message, " ".join(["gate", name, *usage]))

    # each parses one line's tokens and returns the GateDecl that a repeat of
    # the line may copy: only a gate line that parsed cleanly has one
    DIRECTIVES = {"system": _parse_system, "input": _parse_input, "gate": _parse_gate}


def _structural_check(p: _LineParser):
    def fail(span, message):
        p.errors.append(ParseError(span.line, span.column, message))

    dims = {s.name: s.dim for s in p.systems}
    ctc_count = sum(1 for s in p.systems if s.name == "CTC")
    if ctc_count != 1:
        fail(SourceSpan(p.systems[0].span.line if p.systems else 1, 1),
             f"expected exactly one system named CTC, found {ctc_count}")
    covered = {}
    normalized_inputs = []
    for decl in p.inputs:
        before = len(p.errors)
        for r in decl.regs:
            if r not in dims:
                fail(decl.span, f"input references unknown register {r!r}")
            elif r == "CTC":
                fail(decl.span, "CTC register takes no input; its state is solved")
            elif r in covered:
                fail(decl.span, f"register {r!r} already has an input")
            else:
                covered[r] = decl
        if len(p.errors) > before:
            continue
        side = int(np.prod([dims[r] for r in decl.regs]))
        if decl.kind == "pure":
            if len(decl.amps) != side:
                fail(decl.span,
                     f"pure input needs {side} amplitudes, got {len(decl.amps)}")
                continue
            with np.errstate(over="ignore"):  # huge amplitudes: the norm is inf
                norm = float(np.linalg.norm(decl.amps))
            if abs(norm - 1.0) > INPUT_NORM_TOL:
                fail(decl.span,
                     f"pure input norm {norm:.8f} is not 1 within {INPUT_NORM_TOL}")
                continue
            if abs(norm - 1.0) > RENORM_FLOOR:
                decl = replace(decl, amps=tuple(a / norm for a in decl.amps))
        elif len(decl.rows) != side or any(len(r) != side for r in decl.rows):
            fail(decl.span, f"mixed input needs a {side}x{side} matrix")
            continue
        normalized_inputs.append(decl)
    for s in p.systems:
        if s.name != "CTC" and s.name not in p.claimed:
            fail(s.span, f"register {s.name!r} has no input directive")
    # every gate line is a distinct one or a copy of one: each distinct
    # register tuple is checked once, and the gate lines are visited only to
    # fail each line that names an undeclared register
    unknown = {}  # a register tuple naming undeclared registers: those registers
    for regs in {decl.regs for decl in p.known_gates.values()}:
        missing = [r for r in regs if r not in dims]
        if missing:
            unknown[regs] = missing
    if unknown:
        for g in p.gates:
            for r in unknown.get(g.regs, ()):
                fail(g.span, f"gate references unknown register {r!r}")
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
        rows = [d.amps] if d.kind == "pure" else d.rows  # a pure line is one row
        values = " ; ".join(" ".join(map(format_complex, row)) for row in rows)
        lines.append(f"input {d.kind} {' '.join(d.regs)} : {values}")
    for g in spec.gates:
        file = [f"@{g.file}"] * GATE_KINDS[g.kind].file
        lines.append(" ".join(["gate", g.kind, *g.regs, *file]))
    return "\n".join(lines) + "\n"


def load_matrix_file(path) -> np.ndarray:
    """Read a ``matrix <side> <count>`` file, named by a ``str`` or a
    ``Path``, into a complex (count, side, side) array: one ``open`` and
    read, comments stripped only from a text holding '#', one regex pass
    over the body and one float conversion, and ``parse_complex`` to name
    the first bad literal of a failing file. Each message starts with
    ``path`` as given."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None:
        raise ValueError(f"{path}: empty matrix file")
    parts = lines[start].split()
    if len(parts) != 3 or parts[0] != "matrix" or not parts[1].isdecimal() \
            or not parts[2].isdecimal():
        raise ValueError(f"{path}: expected header 'matrix <side> <count>'")
    side, count = int(parts[1]), int(parts[2])
    if side == 0:
        raise ValueError(f"{path}: matrix side must be at least 1, got 0")
    # (real, imaginary, "") for a literal, ("", "", token) for anything else
    entries = _ENTRY_RE.findall("\n".join(lines[start + 1:]))
    if len(entries) != side * side * count:
        raise ValueError(
            f"{path}: expected {side * side * count} entries, got {len(entries)}"
        )
    if not any(bad for _, _, bad in entries):
        values = np.array([x for r, i, _ in entries for x in (r, i or "0")], dtype=float)
        if np.isfinite(values).all():
            return values.view(complex).reshape(count, side, side)
    try:  # a malformed or overflowing literal: parse_complex names the first
        values = [parse_complex(b or r + (i and i + "i")) for r, i, b in entries]
        return np.array(values, dtype=complex).reshape(count, side, side)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_matrix_file(mats) -> str:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    side = mats[0].shape[0]
    lines = [f"matrix {side} {len(mats)}"]
    for m in mats:
        for row in m:
            lines.append(" ".join(format_complex(v) for v in row) + " ;")
    return "\n".join(lines) + "\n"


def _on_line(directive, line, exc):
    """``exc``, a ``ValueError`` or an ``OSError`` raised lowering a line,
    as the same kind of error with that line in front."""
    kind = OSError if isinstance(exc, OSError) else ValueError
    return kind(f"{directive} on line {line}: {exc}")


def lower(spec: CircuitSpec, base_dir=".") -> DeutschProblem:
    """Build a solvable problem: canonical CTC-last layout, the interaction
    as a gate list, and the CR input. Each input line becomes a state of its
    registers (a pure line ``PureState(...).density()``, a mixed line the
    validating ``DensityMatrix(...)``), and the CR input is their
    ``DensityMatrix.product`` in layout order, as in ``cloning.make_problem``:
    no matrix of its size is checked or eigendecomposed. A ``ValueError``
    from lowering a line starts ``input on line L: `` or ``gate on line L: ``,
    where L is the first line of a repeated gate line; a matrix file that
    cannot be read raises ``OSError("gate on line L: cannot read <path>:
    <reason>")``.

    Each distinct ``@file`` is read and parsed once, before any gate is
    built, and the matrices of all files of one side are checked in one
    stacked ``check_unitary``; only a side whose stack fails has its files
    checked one by one, for each file's own message. A file's failure (to
    read, parse or be unitary) is kept and raised at the first gate line
    that uses it, so errors, their lines and the exit codes of ``ctcsim
    run`` are those of building the lines in file order."""
    dims = spec.system_dims()
    order = [s.name for s in spec.systems if s.name != "CTC"] + ["CTC"]
    layout = Layout(tuple((n, dims[n]) for n in order), ctc_index=len(order) - 1)

    # each file's failure is kept, to be raised at the first line using it
    mats, failed = {}, {}
    for name in dict.fromkeys(g.file for g in spec.gates if g.file is not None):
        path = Path(base_dir) / name
        try:
            mats[name] = load_matrix_file(path)
        except OSError as exc:
            failed[name] = OSError(f"cannot read {path}: {exc.strerror or exc}")
        except ValueError as exc:
            failed[name] = exc
    sides = {}
    for name, m in mats.items():
        sides.setdefault(m.shape[-1], []).append(name)
    for names in sides.values():
        try:
            check_unitary(np.concatenate([mats[name] for name in names]))
        except linalg.StackError:
            for name in names:
                try:
                    check_unitary(mats[name])
                except linalg.StackError as exc:
                    failed[name] = ValueError(f"{name}: {exc.message}")

    families = {}  # (name, adjoint) -> Select, in first-use order

    def family(name, adjoint):
        """The matrices of one @file as a ``Select`` block stack, or its
        adjoint, each made once. A plain dict, not a cached function that
        calls itself: such a function holds itself in a reference cycle,
        which keeps the circuit's matrices alive until a cyclic collection."""
        key = (name, adjoint)
        if key not in families:
            if name in failed:
                raise failed[name]
            if (name, False) not in families:
                families[name, False] = Select._trusted(mats[name])
            if adjoint:
                families[key] = families[name, False].dagger()
        return families[key]

    # long circuits repeat a few gate lines many times: build each distinct
    # line's one local gate once and reuse it, so it is checked once; a line
    # fails where it is first built, on the first line of its repeats
    lowered, gates = {}, []
    try:
        for g in spec.gates:
            # the fields a GateDecl compares by: as a tuple they hash and
            # compare in C, at a third of the cost of the dataclass methods
            key = (g.kind, g.regs, g.file)
            gate = lowered.get(key)
            if gate is None:
                kind = GATE_KINDS[g.kind]
                args = (g, family(g.file, kind.adjoint)) if kind.file else g.regs
                gate = lowered[key] = kind.build(layout, *args).gates[0]
            gates.append(gate)
    except (ValueError, OSError) as exc:
        raise _on_line("gate", g.span.line, exc) from None
    # each gate was checked on this layout by the one-gate list it came from
    interaction = GateList._trusted(layout, tuple(gates))

    # the CR input: each line a state of its own registers, validated once
    # here, and the product of the lines in layout order
    parts, regs = [], []
    try:
        for d in spec.inputs:
            line_dims = tuple(dims[r] for r in d.regs)
            state = (PureState(np.array(d.amps, dtype=complex)).density()
                     if d.kind == "pure" else DensityMatrix(d.rows, line_dims))
            parts.append(state.with_dims(line_dims))
            regs.extend(d.regs)
    except ValueError as exc:
        raise _on_line("input", d.span.line, exc) from None
    cr_input = DensityMatrix.product(parts, [regs.index(n) for n in order[:-1]])
    return DeutschProblem(layout, interaction, cr_input)
