#!/usr/bin/env python3
"""Compare two output directories of tools/seeded_reports.sh:

    python3 tools/compare_reports.py <dirA> <dirB>

For each report that differs it prints, per JSON field, the largest
absolute change of that field's floats from A to B. List positions are
folded into the field name, so ``output.entries`` covers every entry of
the output matrix and ``per_trial.symmetry`` every trial's symmetry
defect. A csv report is read as its key,value lines.

Any other difference is flagged on a line starting with ``FLAG``: a bool,
int, string or null that changed (``ok``, ``multiplicity``), a float that
turned non-finite, a changed structure (keys, list lengths, types), a
standard output, standard error or exit code that is not byte-identical,
and a file present on one side only.

Exits 0 when nothing is flagged (float moves alone), 1 when something is,
and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _walk(a, b, field: str, moves: dict, flags: list) -> None:
    """Fold the differences of two parsed JSON values into ``moves``
    (field -> largest float change) and ``flags`` (non-numeric changes)."""
    if type(a) is float and type(b) is float:
        if a == b or (math.isnan(a) and math.isnan(b)):
            moves.setdefault(field, 0.0)
        elif math.isfinite(a) and math.isfinite(b):
            moves[field] = max(moves.get(field, 0.0), abs(a - b))
        else:
            flags.append(f"{field}: {a!r} -> {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            flags.append(f"{field}: keys {sorted(a)} -> {sorted(b)}")
        for key in sorted(a.keys() & b.keys()):
            _walk(a[key], b[key], f"{field}.{key}" if field else key, moves, flags)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            flags.append(f"{field}: length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            _walk(x, y, field, moves, flags)
    elif type(a) is not type(b) or a != b:
        flags.append(f"{field}: {a!r} -> {b!r}")


def _parse(text: str):
    """A report's fields: its JSON, or a dict of a csv report's lines with
    the values that read as floats converted."""
    if not text.startswith("key,value"):
        return json.loads(text)
    fields = {}
    for line in text.splitlines()[1:]:
        key, _, value = line.partition(",")
        try:
            fields[key] = float(value)
        except ValueError:
            fields[key] = value
    return fields


def compare(dir_a: Path, dir_b: Path) -> tuple[list, bool]:
    """The printed lines for two output directories and whether anything
    was flagged."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines, flagged = [], False
    for name in sorted(names_a ^ names_b):
        side = "A" if name in names_a else "B"
        lines.append(f"FLAG {name}: only in {side}")
        flagged = True
    for name in sorted(names_a & names_b):
        a, b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if a == b:
            continue
        if name.suffix != ".report":
            lines.append(f"FLAG {name}: differs")
            flagged = True
            continue
        moves, flags = {}, []
        _walk(_parse(a.decode()), _parse(b.decode()), "", moves, flags)
        lines.append(f"{name}:")
        for field in sorted(moves):
            if moves[field] > 0:
                lines.append(f"  {field}  max |change| {moves[field]:.2e}")
        for flag in flags:
            lines.append(f"  FLAG {flag}")
        flagged = flagged or bool(flags)
    return lines, flagged


def main(argv: list) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(f"usage: {Path(sys.argv[0]).name} <dirA> <dirB>", file=sys.stderr)
        return 2
    lines, flagged = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines) if lines else "no differences")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
