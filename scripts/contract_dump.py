#!/usr/bin/env python3
"""Print the observable contract of ``itt``: every output and exit code.

The dump covers every demo, the four ``--help`` texts, ``itt corpus``, and
``itt check`` and ``itt reduce`` on every corpus file, each command under the
rule flag sets below; ``reduce`` runs under both strategies and all three
trace formats (``off`` prints the status lines only), once with the default
budget and once with ``--max-steps 50``.  Generated inputs, fed through
standard input and some under an ``ITT_MAX_STEPS`` budget, then reach each
error exit, and the common type and scope errors (``ERROR_CASES``).  Every
command runs in process through ``itt.cli.main``.  Two trees behave the same
exactly when their dumps are byte-identical:

    python3 scripts/contract_dump.py > before.txt   # in one checkout
    python3 scripts/contract_dump.py > after.txt    # in the other
    cmp before.txt after.txt

The script exits 1 if a command raises a Python exception, exits 70
(an internal invariant violation), or exits with a code that the README's
exit-code table does not list.  Run it from any directory; it uses the
``src/`` tree next to it, ignores the caller's ``ITT_MAX_STEPS`` and formats
help for 80 columns.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from itt.cli import main as itt_main  # noqa: E402

FLAG_SETS = (
    [],
    ["--no-cast-rule"],
    ["--no-cast-rule", "--no-eqrec-rule"],
    ["--no-proof-irrelevance"],
    ["--enable-j"],
)
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}  # README table, less 70 (internal)


def _example(name: str) -> bytes:
    return (ROOT / f"src/itt/corpus/examples/{name}.itt").read_bytes()


_CE2_DEFS = b"".join(line for line in _example("counterexample2").splitlines(
    keepends=True) if not line.startswith(b"#"))
_BAD = (b"axiom G : Top -> Prop.\n"
        b"axiom g : G (fun (A : Prop), fun (a : A), a).\n"
        b"def bad : G Omega := g.\n")
# delta applies its argument to a growing spine, so Omega diverges without
# repeating: no cycle check can stop it, and only the budget ends it.
_GROW_DEFS = _CE2_DEFS.replace(
    b"z (Top -> Top) id z.",
    b"z (Top -> Top) id (z (Top -> Top) id z).")

# counterexample2's Top, id and tautext, then bad with delta, omega and Omega
# written inline: checking it loops inside one head reduction.
_INLINE_OMEGA = (
    b"".join(line for line in _CE2_DEFS.splitlines(keepends=True)
             if line.startswith((b"def Top", b"def id", b"axiom tautext")))
    + b"axiom G : Top -> Prop.\n"
    b"axiom g : G (fun (A : Prop), fun (a : A), a).\n"
    b"def bad : G ((fun (z : Top), z (Top -> Top) (fun (x : Top), x) z)\n"
    b"  (fun (A : Prop), fun (a : A), cast (Top -> Top) A\n"
    b"    (tautext (Top -> Top) A (fun (x : Top), x) a)\n"
    b"    (fun (z : Top), z (Top -> Top) (fun (x : Top), x) z))) := g.\n")

# Generated inputs, fed through standard input so that the decode path runs
# and no temporary file path appears in the dump.
INPUTS = {
    "parse-error": b"def Oops : Prop :=\n",
    "prop": b"#check Prop.\n",
    "invalid-utf8": b"def x : Prop := \xff\xfe.\n",
    "counterexample1": _example("counterexample1"),
    "conversion-cycle": _CE2_DEFS + _BAD,
    "grow-diverge": _GROW_DEFS + _BAD,
    "inline-omega": _INLINE_OMEGA,
    "deep": b"#check " + b"(" * 400 + b"Prop" + b")" * 400 + b".\n",
    "stray-char": b"#check Prop.\ndef y := ($).\n",
    "bad-pragma": b"#check Prop.\n#chek Prop.\n",
    "type-mismatch": b"axiom A : Prop.\naxiom B : Prop.\naxiom a : A.\n"
                     b"def b : B := a.\n",
    "not-a-function": b"axiom A : Prop.\naxiom a : A.\n#check a a.\n",
    "not-a-type": b"axiom A : Prop.\naxiom a : A.\naxiom x : a.\n",
    "unbound-identifier": b"axiom A : Prop.\ndef y : Prop := Q.\n",
    "duplicate-name": b"axiom A : Prop.\ndef A : Prop := A.\n",
}
# Each error exit, from a command, the input it reads (None: none) and the
# ITT_MAX_STEPS it runs under (None: unset).
ERROR_CASES = (
    (["check", "-"], "parse-error", None),  # exit 1
    (["check", "-", "--max-steps", "0"], "prop", None),  # exit 2
    (["check", "no-such-file.itt"], None, None),
    (["check", "-"], "invalid-utf8", None),
    (["check", "-"], "prop", "many"),
    (["check", "-"], "prop", "0"),
    (["check", "-", "--max-steps", "3"], "counterexample1", None),  # exit 3
    (["check", "-"], "counterexample1", "5"),
    (["corpus", "--max-steps", "5"], None, None),
    (["check", "-", "--max-steps", "3000"], "grow-diverge", None),
    (["check", "-"], "conversion-cycle", None),  # exit 4
    (["check", "-"], "inline-omega", None),
    (["check", "-", "--no-proof-irrelevance"], "inline-omega", None),
    (["check", "-"], "deep", None),  # exit 5
    (["check", "-"], "stray-char", None),  # exit 1, from the lexer
    (["check", "-"], "bad-pragma", None),
    (["check", "-"], "type-mismatch", None),  # exit 1, from the checker
    (["check", "-"], "not-a-function", None),
    (["check", "-"], "not-a-type", None),
    (["check", "-"], "unbound-identifier", None),  # exit 1, from the parser
    (["check", "-"], "duplicate-name", None),
)
HELP = (["--help"], ["check", "--help"], ["reduce", "--help"],
        ["corpus", "--help"])


def _run(label: str, call) -> bool:
    """Print ``label``, the output of ``call()`` and its exit code; True iff
    the outcome is a documented one."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except Exception as exc:  # reported below, and fails the run
            raised = traceback.format_exception_only(type(exc), exc)[-1].strip()
            full = traceback.format_exc()
    if raised is not None:
        print(full, file=sys.stderr, end="")
    print(f"$ {label}")
    print(out.getvalue(), end="")
    for line in err.getvalue().splitlines():
        print(f"stderr: {line}")
    if raised is not None:
        print(f"raised: {raised}")
        return False
    print(f"exit {code}")
    return code in DOCUMENTED_EXITS


def _demo(path: Path):
    def call() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0
    return call


def _with_stdin(data: bytes, argv: list[str], max_steps: str | None):
    """Run ``itt argv`` with ``data`` on a strict UTF-8 standard input, and
    ``ITT_MAX_STEPS`` set to ``max_steps`` unless that is None."""
    def call() -> int:
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        if max_steps is not None:
            os.environ["ITT_MAX_STEPS"] = max_steps
        try:
            return itt_main(argv)
        finally:
            sys.stdin = stdin
            os.environ.pop("ITT_MAX_STEPS", None)
    return call


def main() -> int:
    os.environ.pop("ITT_MAX_STEPS", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    ok = True
    for demo in sorted((ROOT / "demos").glob("*.py")):
        ok &= _run(f"python demos/{demo.name}", _demo(demo))
    for argv in HELP:
        ok &= _run("itt " + " ".join(argv), lambda argv=argv: itt_main(argv))
    examples = sorted((ROOT / "src/itt/corpus/examples").glob("*.itt"))
    for flags in FLAG_SETS:
        argvs = [["corpus", *flags]]
        for example in examples:
            path = str(example.relative_to(ROOT))
            argvs.append(["check", path, *flags])
            for budget in ([], ["--max-steps", "50"]):
                for strategy in ("whnf", "nf"):
                    for trace in ("text", "json", "off"):
                        argvs.append(["reduce", path, "--strategy", strategy,
                                      "--trace", trace, *budget, *flags])
        for argv in argvs:
            ok &= _run("itt " + " ".join(argv), lambda argv=argv: itt_main(argv))
    for argv, name, max_steps in ERROR_CASES:
        env = "" if max_steps is None else f"ITT_MAX_STEPS={max_steps} "
        label = env + "itt " + " ".join(argv) + (f" < {name}" if name else "")
        ok &= _run(label, _with_stdin(INPUTS.get(name, b""), argv, max_steps))
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(ROOT)
    raise SystemExit(main())
