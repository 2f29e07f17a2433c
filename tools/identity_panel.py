"""Compare the CLI output of two source trees, command by command.

    python tools/identity_panel.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of this repository. Every command of PANEL runs
as `python -m entverify.cli ...` once per tree, in a fresh working directory
of its own, with that tree's `src` first on PYTHONPATH. The two runs must
agree on exit code, stderr and output: stdout, or the file an `--out`
command writes. Output that parses as JSON is compared as its re-encoded
text (so -0.0 and 0.0 differ) after dropping `metadata.created`, the one
field that names the time of the run; other output is compared byte for
byte. One line per command is printed: `same`
(with `bytes` when the raw output is identical too) or `DIFF` and what
differs; for two JSON outputs that differ, the line ends with up to three
of the differing leaves, as paths such as `checks[1].measured`. The exit
code is 1 if any command differs, 2 on a usage error and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

OUT = "out.json"            # `--out` target, relative to the command's working directory
UNWRITABLE = "AFILE"        # a regular file, so that `AFILE/sub/x.json` cannot be written
SIM = "--shots 10000000 --fidelity 0.83 --seed 11 --json"

PANEL = [
    # gen, including an --out file
    "gen sic --d 2", "gen sic --d 6", "gen sic --d 12 --seed 2",
    "gen mub --d 7", "gen mub --d 29", "gen mub --d 61",
    "gen clifford --d 2", "gen clifford --d 3", "gen clifford --d 5", f"gen clifford --d 5 --out {OUT}",
    # verify in text, --json and --out, and a failing --tol
    "verify sic --d 3 --json", "verify sic --d 9 --json", "verify sic --d 12 --json",
    "verify mub --d 7 --json", "verify mub --d 29 --json", "verify mub --d 61 --json",
    "verify clifford --d 2 --json", "verify clifford --d 3 --json", "verify clifford --d 5 --json",
    "verify clifford --d 5", "verify mub --d 2 --tol 1e-18", f"verify sic --d 9 --out {OUT}",
    # seeded simulate
    f"simulate --scheme sic --d 3 {SIM}", f"simulate --scheme sic --d 9 {SIM}",
    f"simulate --scheme mub --d 5 {SIM}",
    "simulate --scheme mub --d 61 --shots 1000 --fidelity 0.83 --seed 11 --json",
    f"simulate --scheme clifford --d 3 {SIM}", f"simulate --scheme clifford --d 5 {SIM}",
    "simulate --scheme mub --d 3 --fidelity 0.8 --seed 4",
    # count
    "count --d 2 --json", "count --d 5 --enumerate --json", "count --d 4096 --json", "count --d 6",
    # usage errors (exit 2), a failed search (exit 3) and an unwritable --out (exit 4)
    "gen mub --d 4", "verify sic --d 13", "verify clifford --d 7",
    "simulate --scheme mub --d 3 --fidelity 1.5", "simulate --scheme sic --d 2 --fidelity 0.9 --shots 0",
    "gen sic --d 4 --seed -1", "gen mub --d 3 --restarts 0", "verify mub --d 3 --search-tol 0",
    "verify mub --d 3 --tol -1", "count --d 1", "frobnicate", "gen sic", "verify nosuch --d 3",
    "gen sic --d 4 --restarts 1 --search-tol 1e-30", f"gen mub --d 2 --out {UNWRITABLE}/sub/x.json",
]


def run(tree: Path, argv: str) -> tuple[int, bytes, bytes]:
    """(exit code, stderr, output) of one command on one tree, in a fresh working directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, UNWRITABLE).write_text("")
        proc = subprocess.run([sys.executable, "-m", "entverify.cli", *argv.split()],
                              cwd=cwd, env=env, capture_output=True, timeout=600)
        out = Path(cwd, OUT)
        output = out.read_bytes() if f"--out {OUT}" in argv and out.exists() else proc.stdout
    return proc.returncode, proc.stderr, output


def comparable(output: bytes) -> bytes | str:
    """The JSON text of output without metadata.created, or the bytes themselves if they are no JSON."""
    try:
        value = json.loads(output)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return output
    if isinstance(value, dict) and isinstance(value.get("metadata"), dict):
        value["metadata"].pop("created", None)
    return json.dumps(value)


def differing_leaves(a, b, path: str = ""):
    """Yield, in document order, the paths of the leaves where two JSON values differ.

    A key or index that only one side has counts as one leaf, and leaves are
    compared as their JSON text, so -0.0 and 0.0 differ.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from differing_leaves(a[key], b[key], sub)
            else:
                yield sub
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            if i < len(a) and i < len(b):
                yield from differing_leaves(a[i], b[i], f"{path}[{i}]")
            else:
                yield f"{path}[{i}]"
    elif json.dumps(a) != json.dumps(b):
        yield path or "(root)"


def leaf_note(a: bytes | str, b: bytes | str) -> str:
    """Up to three differing leaves of two comparable outputs, if both are JSON; else ''."""
    if not (isinstance(a, str) and isinstance(b, str)):
        return ""
    leaves = list(islice(differing_leaves(json.loads(a), json.loads(b)), 4))
    return ": " + ", ".join(leaves[:3]) + (", ..." if len(leaves) > 3 else "")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p, "src", "entverify").is_dir() for p in argv):
        print("usage: python tools/identity_panel.py PARENT_DIR CHANGE_DIR\n"
              "error: give two checkouts of the repository, each with src/entverify", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    differ = 0
    for cmd in PANEL:
        (code_a, err_a, out_a), (code_b, err_b, out_b) = run(parent, cmd), run(change, cmd)
        text_a, text_b = comparable(out_a), comparable(out_b)
        diffs = [name for name, same in (("exit", code_a == code_b), ("stderr", err_a == err_b),
                                         ("output", text_a == text_b)) if not same]
        differ += bool(diffs)
        note = leaf_note(text_a, text_b) if "output" in diffs else ""
        if diffs:
            status = f"DIFF {','.join(diffs)} (exit {code_a} vs {code_b})"
        else:
            status = f"same{' bytes' if out_a == out_b else ''} exit {code_a}"
        print(f"{status:<32} {cmd}{note}", flush=True)
    print(f"{len(PANEL) - differ} of {len(PANEL)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
