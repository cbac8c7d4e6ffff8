"""``tools/ab_in_process.py`` on small runs: a tree against itself reads
identical bits, a tree whose clones differ in their last bits fails, and
trees with different workloads files are refused."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_in_process.py"


def ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change),
                           "--seed", "3", "--rounds", "2"], capture_output=True, text=True)


def tree_copy(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_a_tree_against_itself_reads_identical_bits():
    out = ab(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["bits"] == "identical" and doc["round_ratios"]["rounds"] == 2
    # the 14 clone-large ops of a pass, by kind and N
    assert sum(c["ops_per_pass"] for c in doc["per_class"].values()) == 14
    assert set(doc["per_class"]) == {f"pure N={n}" for n in (5, 6, 7, 8)} | {
        f"mixed N={n}" for n in (5, 6, 7)}


def test_a_clone_off_in_its_last_bits_fails(tmp_path):
    tree = tree_copy(tmp_path)
    cloning = tree / "src" / "ctcsim" / "cloning.py"
    text = cloning.read_text()
    line = "    fid_a, fid_b = factor_fidelities(clones, w).tolist()\n"
    assert line in text
    cloning.write_text(text.replace(line, "    clones[1, 0, 0] *= 1 + 2**-50\n" + line))
    out = ab(ROOT, tree)
    assert out.returncode == 1
    assert "bits differ" in out.stderr


def test_trees_with_different_workloads_are_refused(tmp_path):
    tree = tree_copy(tmp_path)
    with open(tree / "perfbench" / "workloads.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    out = ab(ROOT, tree)
    assert out.returncode == 2 and "differ" in out.stderr
