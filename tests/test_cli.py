from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from itt import (
    CASE_NAMES, DEFAULT_RULES, RuleSet, alpha_eq, elaborate, load_example,
    parse_program, parse_term, ruleset_label,
)
from itt import corpus as corpus_mod
from itt.cli import _build_parser, main
from itt.rules import RULES
from helpers import (
    CE2_DEFS, CE2_G, CE2_I, INLINE_OMEGA, UNFOLDING_CYCLE, parse_trace_json,
)

CE1 = "src/itt/corpus/examples/counterexample1.itt"
CE2 = "src/itt/corpus/examples/counterexample2.itt"
CHURCH = "src/itt/corpus/examples/sanity-church.itt"


def test_check_prints_term_and_type(capsys):
    assert main(["check", CE1]) == 0
    out = capsys.readouterr().out
    assert ("Omega : Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)"
            in out.splitlines())


def test_reduce_cycle_exits_4(capsys):
    assert main(["reduce", CE2, "--strategy", "whnf"]) == 4
    out = capsys.readouterr().out
    assert "STATUS CycleDetected first=1 period=6" in out


def test_reduce_without_cast_rule_exits_0(capsys):
    assert main(["reduce", CE2, "--strategy", "whnf", "--no-cast-rule"]) == 0
    assert "STATUS NormalForm" in capsys.readouterr().out


def test_reduce_default_strategy_is_strong(capsys):
    # counterexample1's pragma loops only under strong reduction defaults
    assert main(["reduce", CE1]) == 4
    assert "CycleDetected" in capsys.readouterr().out


def test_fuel_exhaustion_exits_3(capsys):
    assert main(["reduce", CHURCH, "--max-steps", "5"]) == 3


def test_fuel_exhaustion_while_checking_names_declaration(capsys):
    assert main(["check", CE1, "--max-steps", "3"]) == 3
    err = capsys.readouterr().err
    assert "fuel exhausted: declaration 3 (delta): step budget exhausted" in err


def _run_itt(*args, stdin=None, **environ):
    """``python -m itt args`` in a subprocess, on this checkout's kernel, with
    ``environ`` added to its environment; a None value removes a variable."""
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")])}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-m", "itt", *args], stdin=stdin,
                          capture_output=True, text=True, env=env)


def test_deep_nesting_exits_5_without_traceback(tmp_path):
    deep = tmp_path / "deep.itt"
    deep.write_text("#check " + "(" * 400 + "Prop" + ")" * 400 + ".\n")
    proc = _run_itt("check", str(deep))
    assert proc.returncode == 5
    # the position is that of the parenthesis the parser had reached
    m = re.search(r"input nested too deeply: 1:(\d+): ", proc.stderr)
    assert m and 8 <= int(m.group(1)) <= 407
    assert "Traceback" not in proc.stderr


def _church_numeral(k):
    return "fun (A : Prop), fun (s : A -> A), fun (z : A), " + \
        "s (" * k + "z" + ")" * k


def test_deep_normal_form_names_declaration(tmp_path):
    # the normal form of exp 2 10 is about 1,030 deep: the recursive
    # normalizer overflows inside the #reduce pragma, declaration 4
    nat = "forall (A : Prop), (A -> A) -> A -> A"
    src = tmp_path / "exp.itt"
    src.write_text(
        f"def Nat : Prop := {nat}.\n"
        f"def base : Nat := {_church_numeral(2)}.\n"
        f"def power : Nat := {_church_numeral(10)}.\n"
        "def exp : Nat -> Nat -> Nat := fun (m : Nat), fun (n : Nat),"
        " fun (A : Prop), n (A -> A) (m A).\n"
        "#reduce exp base power.\n")
    proc = _run_itt("reduce", str(src))
    assert proc.returncode == 5
    assert "input nested too deeply: declaration 4 (PragmaReduce): " in proc.stderr
    assert "Traceback" not in proc.stderr


FUNS_900 = "".join(f"fun (a{i} : Prop), " for i in range(900)) + "a0"


@pytest.mark.parametrize("source, options, where", [
    (f"#check {FUNS_900}.\n", (), "declaration 0 (PragmaCheck)"),
    (f"def d := {FUNS_900}.\n#reduce d.\n", ("--trace", "text"),
     "declaration 1 (PragmaReduce)"),
    (f"def d := {FUNS_900}.\n#reduce d.\n", ("--trace", "json"),
     "declaration 1 (PragmaReduce)"),
], ids=["check", "reduce-text", "reduce-json"])
def test_result_too_deep_to_print_names_declaration(tmp_path, source, options,
                                                    where):
    # 900 binders elaborate, but the printer overflows on the result: the
    # #check's type, or the #reduce step that unfolds d
    src = tmp_path / "deep.itt"
    src.write_text(source)
    command = "reduce" if options else "check"
    proc = _run_itt(command, str(src), *options)
    assert proc.returncode == 5
    assert proc.stderr == (f"input nested too deeply: {where}: "
                           "maximum recursion depth exceeded\n")


def test_conversion_cycle_while_checking_exits_4(tmp_path):
    src = tmp_path / "bad.itt"
    src.write_text(UNFOLDING_CYCLE)
    start = time.perf_counter()
    proc = _run_itt("check", str(src))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 4
    assert proc.stderr == ("conversion cycle: declaration 8 (bad): "
                           "unfolding repeats with period 2\n")
    # found after a few units of fuel, not by spending the default 100,000
    assert elapsed < 1.0


def test_conversion_diverging_without_repeat_exits_3(tmp_path):
    # delta grows Omega's spine, so its unfolding never repeats: the budget
    # ends it, although Brent's compare of the deep states overflows
    src = tmp_path / "grow.itt"
    src.write_text(UNFOLDING_CYCLE.replace(
        "z (Top -> Top) id z.", "z (Top -> Top) id (z (Top -> Top) id z)."))
    proc = _run_itt("check", str(src), "--max-steps", "3000")
    assert proc.returncode == 3
    assert proc.stderr == ("fuel exhausted: declaration 8 (bad): "
                           "step budget exhausted\n")


@pytest.mark.parametrize("flags", [(), ("--no-proof-irrelevance",)])
def test_head_reduction_cycle_while_checking_exits_4(tmp_path, flags):
    # the loop is inside one head reduction that conversion runs, and that
    # reduction's own Brent check stops it
    src = tmp_path / "inline.itt"
    src.write_text(INLINE_OMEGA)
    start = time.perf_counter()
    proc = _run_itt("check", str(src), *flags)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 4
    assert proc.stderr == ("conversion cycle: declaration 5 (bad): "
                           "reduction repeats with period 4\n")
    assert elapsed < 1.0


def test_reduce_whose_cast_condition_loops_exits_3(capsys, tmp_path):
    # the conversion cycle happens inside a reduction step, so it ends the
    # trace as FuelExhausted rather than failing the whole run
    src = tmp_path / "loop.itt"
    src.write_text(CE2_DEFS + CE2_G
                   + f"axiom p : Eq Prop (G Omega) (G {CE2_I}).\n"
                   "axiom x : G Omega.\n"
                   f"#reduce cast (G Omega) (G {CE2_I}) p x.\n")
    assert main(["reduce", str(src)]) == 3
    assert capsys.readouterr().out == "STATUS FuelExhausted\n"
    assert main(["reduce", str(src), "--trace", "json"]) == 3
    assert capsys.readouterr().out == "STATUS FuelExhausted\n"


def test_env_var_sets_fuel(capsys, monkeypatch):
    monkeypatch.setenv("ITT_MAX_STEPS", "5")
    assert main(["reduce", CHURCH]) == 3


def test_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("ITT_MAX_STEPS", "5")
    assert main(["reduce", CHURCH, "--max-steps", "100000"]) == 0


def test_bad_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ITT_MAX_STEPS", "many")
    assert main(["reduce", CHURCH]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["reduce", "no-such-file.itt"]) == 2


_INVALID_UTF8 = b"def x : Prop := \xff\xfe.\n"


def test_invalid_utf8_file_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.itt").write_bytes(_INVALID_UTF8)
    assert main(["check", "bad.itt"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read bad.itt: 'utf-8' codec can't decode byte 0xff in "
        "position 16: invalid start byte\n")


def test_invalid_utf8_on_strict_stdin_exits_2(tmp_path):
    bad = tmp_path / "bad.itt"
    bad.write_bytes(_INVALID_UTF8)
    with bad.open("rb") as stdin:
        proc = _run_itt("check", "-", stdin=stdin,
                        PYTHONIOENCODING="utf-8:strict")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read -: 'utf-8' codec")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("locale", ["C", "C.UTF-8", "POSIX"])
def test_invalid_utf8_on_stdin_exits_2_in_any_locale(tmp_path, locale):
    # these locales give stdin the surrogateescape handler, which would
    # pass the bad bytes on to the parser as exit 1; stdin is decoded as a
    # file is instead
    bad = tmp_path / "bad.itt"
    bad.write_bytes(_INVALID_UTF8)
    with bad.open("rb") as stdin:
        proc = _run_itt("check", "-", stdin=stdin, LC_ALL=locale,
                        PYTHONIOENCODING=None, PYTHONUTF8=None)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: cannot read -: 'utf-8' codec can't decode byte 0xff in "
        "position 16: invalid start byte\n")


def test_unknown_flag_exits_2(capsys):
    assert main(["reduce", CE2, "--frobnicate"]) == 2


def test_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.itt"
    bad.write_text("def Oops : Prop :=\n")
    assert main(["check", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_type_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.itt"
    bad.write_text("def Bot : Prop := forall (A : Prop), A.\n"
                   "def x : Bot := Prop.\n")
    assert main(["check", str(bad)]) == 1
    assert "type error" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(b"#check Prop.\n")))
    assert main(["check", "-"]) == 0
    assert "Prop : Type" in capsys.readouterr().out


def test_trace_text_lines(capsys):
    assert main(["reduce", CE2, "--strategy", "whnf", "--trace", "text"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 Delta(Omega) ")
    assert lines[-1] == "STATUS CycleDetected first=1 period=6"


def test_trace_json_replays(capsys):
    assert main(["reduce", CE2, "--strategy", "whnf", "--trace", "json"]) == 4
    records, status = parse_trace_json(capsys.readouterr().out.splitlines())
    assert status == "STATUS CycleDetected first=1 period=6"

    case = load_example("counterexample2")
    env, results = elaborate(case.program, case.rules, reduce_strategy="whnf")
    trace = results[-1].trace
    assert len(records) == len(trace.steps)
    for record, snap in zip(records, trace.steps):
        assert alpha_eq(parse_term(record["term"], env.names()), snap.term)
        assert record["kind"] == str(snap.kind)
        assert record["key"] == snap.key


def test_flag_order_never_changes_behavior(capsys):
    a = main(["reduce", CE2, "--strategy", "whnf", "--no-cast-rule"])
    out_a = capsys.readouterr().out
    b = main(["reduce", CE2, "--no-cast-rule", "--strategy", "whnf"])
    out_b = capsys.readouterr().out
    assert (a, out_a) == (b, out_b)


def test_corpus_command_passes(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_corpus_reports_every_case_when_fuel_runs_out(capsys):
    assert main(["corpus", "--max-steps", "5"]) == 3
    out = capsys.readouterr().out
    assert out.count("FAIL ") == 2 * len(CASE_NAMES)  # case line + its entry
    for name in CASE_NAMES:
        assert f"FAIL {name} [" in out
    assert ("FAIL counterexample1 [cast:on,eqrec:on,j:off,irrel:on]\n"
            "  FAIL FuelExhausted: declaration 3 (delta): step budget exhausted\n"
            ) in out


def test_corpus_conversion_cycle_exits_4(capsys, monkeypatch):
    # a case whose checking loops in conversion still gets its report
    case = load_example("counterexample2")
    bad = dataclasses.replace(case, program=parse_program(UNFOLDING_CYCLE))
    monkeypatch.setattr(corpus_mod, "load_example", lambda name: bad)
    assert main(["corpus", "--case", "counterexample2"]) == 4
    assert capsys.readouterr().out == (
        "FAIL counterexample2 [cast:on,eqrec:on,j:off,irrel:on]\n"
        "  FAIL ConversionCycle: declaration 8 (bad): "
        "unfolding repeats with period 2\n")


def test_corpus_recursion_error_is_reported_and_exits_5(capsys, monkeypatch):
    # a case whose normal form is too deep still gets its report, and so do
    # the cases after it
    load = corpus_mod.load_example
    case = load("sanity-church")
    deep = dataclasses.replace(case, program=parse_program(case.source.replace(
        "#reduce exp two two.", f"#reduce exp two ({_church_numeral(10)}).")))
    monkeypatch.setattr(corpus_mod, "load_example", lambda name: (
        deep if name == "sanity-church" else load(name)))
    assert main(["corpus"]) == 5
    out = capsys.readouterr().out
    reports = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(reports) == len(CASE_NAMES)
    assert ("FAIL sanity-church [cast:on,eqrec:on,j:off,irrel:on]\n"
            "  FAIL RecursionError: declaration 4 (PragmaReduce): "
            "maximum recursion depth exceeded") in out


def test_corpus_single_case(capsys):
    assert main(["corpus", "--case", "sanity-church"]) == 0
    out = capsys.readouterr().out
    assert "sanity-church" in out and out.count("PASS") == 1


@pytest.mark.parametrize("rule", RULES, ids=lambda f: f.metadata["rule"][0])
def test_corpus_flag_sets_its_field(capsys, rule):
    flag = rule.metadata["rule"][0]
    rules = load_example("sanity-church").rules.updated(
        **{rule.name: not rule.default})
    assert main(["corpus", "--case", "sanity-church", flag]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"PASS sanity-church [{ruleset_label(rules)}]"


def test_each_rule_toggle_is_declared_once_with_its_flag_and_label():
    toggles = [f for f in dataclasses.fields(RuleSet) if f.type in (bool, "bool")]
    assert toggles and [f.name for f in RULES] == [f.name for f in toggles]
    flags, labels, helps = zip(*(f.metadata["rule"] for f in RULES))
    assert all(flags) and all(labels) and all(helps)
    assert len(set(flags)) == len(flags) and len(set(labels)) == len(labels)
    assert ruleset_label(DEFAULT_RULES) == "cast:on,eqrec:on,j:off,irrel:on"
    parser = _build_parser()
    for command in (["check", "-"], ["reduce", "-"], ["corpus"]):
        for f in RULES:
            given = parser.parse_args([*command, f.metadata["rule"][0]])
            assert getattr(given, f.name) is (not f.default)  # the flag's const
            assert getattr(parser.parse_args(command), f.name) is None


def test_corpus_keeps_case_flags_without_rule_flags(capsys):
    assert main(["corpus", "--case", "girard-j"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("PASS girard-j [") and "j:on" in first


def test_enable_j_flag(capsys, tmp_path):
    f = tmp_path / "j.itt"
    f.write_text("def Top : Prop := forall (A : Prop), A -> A.\n"
                 "def t : Top := fun (A : Prop), fun (a : A), a.\n"
                 "#check J Top Top t.\n")
    assert main(["check", str(f)]) == 1
    capsys.readouterr()
    assert main(["check", str(f), "--enable-j"]) == 0
    assert "J Top Top t : Top" in capsys.readouterr().out
