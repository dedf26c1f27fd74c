"""The four workloads of the itt benchmark.

Each workload generates its programs from the seed, times one program from
source text to verdict (``run``) and then checks that verdict against an
answer the benchmark knows independently of the kernel run (``check``).
Every program is a fresh source text: a per-program suffix renames every
global, so no two programs of a run share text or terms.

The kernel is reached only through a namespace of its modules (``k.parser``,
``k.typecheck``, ...), looked up at call time, so that a traced run can wrap
the functions at the bindings their callers resolve.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DECL_NAME_RE = re.compile(r"^\s*(?:def|axiom|assume)\s+([A-Za-z_][A-Za-z0-9_]*)",
                          re.MULTILINE)


def rename_globals(text: str, names: set[str], suffix: str) -> str:
    """Append ``suffix`` to every identifier in ``names``.

    Renaming an identifier everywhere it occurs, binders included, keeps the
    program alpha-equivalent as long as the new names are fresh.
    """
    return NAME_RE.sub(lambda m: m.group() + suffix if m.group() in names
                       else m.group(), text)


class Suffixes:
    """Seeded, distinct, fixed-width name suffixes: one per program."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"suffix-{seed}")
        self._used: set[str] = set()

    def __call__(self) -> str:
        while True:
            s = f"_{self._rng.getrandbits(32):08x}"
            if s not in self._used:
                self._used.add(s)
                return s


@dataclass
class Program:
    """One generated program and the answer its verdict must match."""
    source: str
    decls: int
    expect: Any


@dataclass
class Verdict:
    """What the timed region returns: the workload's own value, the reduction
    traces it produced and the text it rendered from them."""
    value: Any
    traces: list
    rendered: list[str] = field(default_factory=list)


# --- church-nf ---------------------------------------------------------------

NAT = "forall (A : Prop), (A -> A) -> A -> A"

# Every Church exponent with 2 <= m, 2 <= n and m^n <= 256.  The cap bounds run
# time (4^4 alone takes about 0.9 s on a 2.1 GHz Xeon); 2^9 fails today with
# RecursionError.
CHURCH_PAIRS = tuple((m, n) for m in range(2, 257) for n in range(2, 9)
                     if m ** n <= 256)

# Reduction steps to normal form, pinned at the commit that added the
# benchmark.  A change to the reducer that alters a count is a behaviour
# change, not a speed-up.
CHURCH_STEPS = {
    (2, 2): 17, (2, 3): 33, (2, 4): 65, (2, 5): 129, (2, 6): 257,
    (2, 7): 513, (2, 8): 1025, (3, 2): 21, (3, 3): 57, (3, 4): 165,
    (3, 5): 489, (4, 2): 25, (4, 3): 89, (4, 4): 345, (5, 2): 29,
    (5, 3): 129, (6, 2): 33, (6, 3): 177, (7, 2): 37, (8, 2): 41,
    (9, 2): 45, (10, 2): 49, (11, 2): 53, (12, 2): 57, (13, 2): 61,
    (14, 2): 65, (15, 2): 69, (16, 2): 73,
}


def church_numeral(k: int) -> str:
    body = "z"
    for _ in range(k):
        body = f"s ({body})" if body != "z" else "s z"
    return f"fun (A : Prop), fun (s : A -> A), fun (z : A), {body}"


class ChurchNf:
    """Strong normalization of ``exp m n``; reads only status and final term."""

    name = "church-nf"

    def __init__(self, k: Any, seed: int, pairs: tuple = CHURCH_PAIRS) -> None:
        self.k = k
        self.pairs = list(pairs)
        random.Random(f"{self.name}-{seed}").shuffle(self.pairs)

    def specs(self) -> list:
        return self.pairs

    def make(self, spec: tuple[int, int], sfx: str) -> Program:
        m, n = spec
        src = (f"def Nat{sfx} : Prop := {NAT}.\n"
               f"def base{sfx} : Nat{sfx} := {church_numeral(m)}.\n"
               f"def power{sfx} : Nat{sfx} := {church_numeral(n)}.\n"
               f"def exp{sfx} : Nat{sfx} -> Nat{sfx} -> Nat{sfx} :=\n"
               f"  fun (m : Nat{sfx}), fun (n : Nat{sfx}), fun (A : Prop),"
               f" n (A -> A) (m A).\n"
               f"#reduce exp{sfx} base{sfx} power{sfx}.\n")
        return Program(src, 5, spec)

    def run(self, prog: Program) -> Verdict:
        k = self.k
        _, results = k.typecheck.elaborate(k.parser.parse_program(prog.source),
                                           reduce_strategy="nf")
        trace = results[-1].trace
        return Verdict((trace.status, trace.final, len(trace.steps)), [trace])

    def check(self, prog: Program, verdict: Verdict) -> str | None:
        m, n = prog.expect
        status, final, steps = verdict.value
        if status != "NormalForm":
            return f"{m}^{n}: status {status}"
        if steps != CHURCH_STEPS[(m, n)]:
            return f"{m}^{n}: {steps} steps, pinned {CHURCH_STEPS[(m, n)]}"
        if not self.k.syntax.alpha_eq(
                final, self.k.parser.parse_term(church_numeral(m ** n))):
            return f"{m}^{n}: normal form is not the numeral {m ** n}"
        return None

    def warm_up(self) -> None:
        self.run(self.make((2, 2), "_warm"))


# --- paper-loops -------------------------------------------------------------

# Index of the first repeated snapshot in each case's detected cycle, pinned
# at the commit that added the benchmark; the expected/ tables record only
# status and period.
CYCLE_FIRST = {"counterexample1": 0, "counterexample2": 1,
               "counterexample2-propext": 1}


def label_overrides(label: str) -> dict[str, bool]:
    """Rule flags of an expected/ table label such as
    ``cast:on,eqrec:on,j:off,irrel:on``."""
    flags = dict(part.split(":") for part in label.split(","))
    return {"cast_rule": flags["cast"] == "on",
            "eqrec_rule": flags["eqrec"] == "on",
            "j_rule": flags["j"] == "on",
            "proof_irrelevance": flags["irrel"] == "on"}


class PaperLoops:
    """The six corpus programs under every rule set of their expected/ table,
    checked by ``corpus.run_case``; every trace is rendered as text and as
    JSON and replayed."""

    name = "paper-loops"

    def __init__(self, k: Any, seed: int) -> None:
        self.k = k
        self.cases = {n: k.corpus.load_example(n) for n in k.corpus.CASE_NAMES}
        # (case, label, ordinal) -> expected status line without "STATUS "
        self.expected: dict[tuple[str, str, int], str] = {}
        for name, case in self.cases.items():
            for (_, label, ordinal), (status, period) in case.expected_reduce.items():
                line = status
                if period is not None:
                    line += f" first={CYCLE_FIRST[name]} period={period}"
                self.expected[(name, label, ordinal)] = line
        self._specs = sorted({(name, label) for name, label, _ in self.expected})
        random.Random(f"{self.name}-{seed}").shuffle(self._specs)
        self._captured: list = []
        run_elaborate = k.corpus.elaborate

        def capture(*args: Any, **kwargs: Any) -> Any:
            out = run_elaborate(*args, **kwargs)
            self._captured.append(out)
            return out

        # run_case keeps the traces to itself; keep what its elaborate returns
        k.corpus.elaborate = capture

    def specs(self) -> list:
        return self._specs

    def make(self, spec: tuple[str, str], sfx: str) -> Program:
        name, label = spec
        case = self.cases[name]
        names = set(DECL_NAME_RE.findall(case.source))
        checks = tuple(rename_globals(c, names, sfx) for c in case.expected_checks)
        table = {}
        for (n, lab, ordinal), line in self.expected.items():
            if (n, lab) == spec:
                status, _, rest = line.partition(" ")
                table[(case.strategy, label, ordinal)] = (
                    status, int(rest.rpartition("=")[2]) if rest else None)
        return Program(rename_globals(case.source, names, sfx),
                       len(case.program.declarations),
                       (name, label, checks, table))

    def run(self, prog: Program) -> Verdict:
        k = self.k
        name, label, checks, table = prog.expect
        base = self.cases[name]
        case = k.corpus.ExampleCase(
            name=name, source=prog.source, strategy=base.strategy,
            rules=base.rules, program=k.parser.parse_program(prog.source),
            expected_checks=checks, expected_reduce=table)
        rules_flags = label_overrides(label)
        report = k.corpus.run_case(case, rules_flags)
        env, results = self._captured.pop()
        rules = base.rules.updated(**rules_flags)
        traces, rendered, texts = [], [], []
        for res in results:
            if res.kind != "reduce":
                continue
            text = k.reduce.trace_to_text(res.trace)
            lines = k.reduce.trace_to_json_lines(res.trace)
            replayed = k.reduce.replay_trace(env, (), res.trace, rules)
            traces.append(res.trace)
            rendered.append((text, lines, replayed))
            texts += [text, *lines]
        return Verdict((report, rendered), traces, texts)

    def check(self, prog: Program, verdict: Verdict) -> str | None:
        name, label, _, table = prog.expect
        report, rendered = verdict.value
        bad = [desc for desc, ok in report.entries if ok is not True]
        if bad:
            return f"{name} [{label}]: {bad[0]}"
        for ordinal, (trace, (text, lines, replayed)) in enumerate(
                zip(verdict.traces, rendered), start=1):
            want = "STATUS " + self.expected.get((name, label, ordinal), "?")
            where = f"{name} [{label}] reduce #{ordinal}"
            if trace.status_line() != want:
                return f"{where}: {trace.status_line()}, expected {want}"
            if text.splitlines()[-1] != want or lines[-1] != want:
                return f"{where}: rendered trace does not end in {want}"
            if len(lines) != len(trace.steps) + 1:
                return f"{where}: JSON trace has {len(lines)} lines"
            if not replayed:
                return f"{where}: replay_trace returned False"
        if len(rendered) != len(table):
            return f"{name} [{label}]: {len(rendered)} reduce pragmas ran"
        return None

    def warm_up(self) -> None:
        self.run(self.make(self._specs[0], "_warm"))


# --- conv-diverge ------------------------------------------------------------

CONV_TAIL = """
axiom G : Top -> Prop.
axiom g : G (fun (A : Prop), fun (a : A), a).
def bad : G Omega := g.
"""


class ConvDiverge:
    """Checking ``bad`` diverges inside conversion and runs out of fuel.

    Irrelevance is off so that typed irrelevance cannot turn the verdict into
    "accepted"; fuel is the default budget.
    """

    name = "conv-diverge"
    BASES = ("counterexample2", "counterexample2-propext")

    def __init__(self, k: Any, seed: int, per_pass: int = 3) -> None:
        self.k = k
        self.rules = k.rules.RuleSet(proof_irrelevance=False)
        self.sources = {}
        for base in self.BASES:
            text = k.corpus.load_example(base).source
            defs = "\n".join(line for line in text.splitlines()
                             if not line.lstrip().startswith("#"))
            self.sources[base] = defs + CONV_TAIL
        # Both bases in turn, in seeded order.  Their costs differ, so an odd
        # count keeps the median program inside one base's cluster.
        self._specs = [self.BASES[i % 2] for i in range(per_pass)]
        random.Random(f"{self.name}-{seed}").shuffle(self._specs)

    def specs(self) -> list:
        return self._specs

    def make(self, spec: str, sfx: str) -> Program:
        text = self.sources[spec]
        names = DECL_NAME_RE.findall(text)
        return Program(rename_globals(text, set(names), sfx), len(names), spec)

    def run(self, prog: Program) -> Verdict:
        k = self.k
        program = k.parser.parse_program(prog.source)
        try:
            k.typecheck.elaborate(program, self.rules)
        except k.rules.FuelExhausted:
            return Verdict((program, "FuelExhausted", ""), [])
        except k.typecheck.TypeCheckError as exc:
            return Verdict((program, type(exc).__name__, str(exc)), [])
        return Verdict((program, "accepted", ""), [])

    def check(self, prog: Program, verdict: Verdict) -> str | None:
        k = self.k
        program, outcome, message = verdict.value
        last = len(program.declarations) - 1
        if outcome == "accepted":
            return f"{prog.expect}: bad was accepted"
        if outcome != "FuelExhausted" and not message.startswith(
                f"declaration {last} ("):
            return f"{prog.expect}: {outcome} outside bad: {message}"
        prefix = k.parser.Program(program.declarations[:-1])
        env, _ = k.typecheck.elaborate(prefix, self.rules)
        if len(env) != last:
            return f"{prog.expect}: {len(env)} of {last} earlier declarations"
        return None

    def warm_up(self) -> None:
        prog = self.make(self._specs[0], "_warm")
        program = self.k.parser.parse_program(prog.source)
        self.k.typecheck.elaborate(
            self.k.parser.Program(program.declarations[:-1]), self.rules)


# --- check-chain -------------------------------------------------------------

CHAIN_PRELUDE = f"""def Nat : Prop := {NAT}.
def zero : Nat := fun (A : Prop), fun (s : A -> A), fun (z : A), z.
def succ : Nat -> Nat :=
  fun (n : Nat), fun (A : Prop), fun (s : A -> A), fun (z : A), s (n A s z).
def add : Nat -> Nat -> Nat := fun (m : Nat), fun (n : Nat),
  fun (A : Prop), fun (s : A -> A), fun (z : A), m A s (n A s z).
def T0 : Prop := Nat.
def n0 : T0 := zero.
"""
CHAIN_PRELUDE_DECLS = 6
CHECK_EVERY = 10


def chain_program(rng: random.Random, decls: int) -> tuple[str, list[str], int]:
    """A definition chain of ``decls`` declarations, unsuffixed, the type
    each ``#check`` must report, and ``decls``.

    Numerals are built through ``succ``/``add`` and coerced between alias
    types with ``cast``; each alias ``T_k`` names a uniformly drawn earlier
    alias, so the chains to ``Nat`` stay short.
    """
    lines = [CHAIN_PRELUDE]
    aliases = 1
    nums = ["T0"]  # stated type of n0, n1, ...
    expected: list[str] = []
    for i in range(CHAIN_PRELUDE_DECLS, decls):
        if i % CHECK_EVERY == 0:
            j = rng.randrange(len(nums))
            lines.append(f"#check n{j}.\n")
            expected.append(nums[j])
        elif rng.random() < 0.25:
            lines.append(f"def T{aliases} : Prop := T{rng.randrange(aliases)}.\n")
            aliases += 1
        else:
            ty = f"T{rng.randrange(aliases)}"
            j, r = rng.randrange(len(nums)), rng.random()
            if r < 0.4:
                body = f"succ n{j}"
            elif r < 0.7:
                body = f"add n{j} n{rng.randrange(len(nums))}"
            else:
                body = f"cast {nums[j]} {ty} (refl Prop {nums[j]}) n{j}"
            lines.append(f"def n{len(nums)} : {ty} := {body}.\n")
            nums.append(ty)
    return "".join(lines), expected, decls


class CheckChain:
    """Programs of a few hundred declarations and no ``#reduce``: parsing and
    type checking do most of the work."""

    name = "check-chain"

    def __init__(self, k: Any, seed: int, decls: int = 300,
                 per_pass: int = 10) -> None:
        self.k = k
        rng = random.Random(f"{self.name}-{seed}")
        self._specs = [chain_program(rng, decls) for _ in range(per_pass)]
        self._warm = chain_program(rng, 40)

    def specs(self) -> list:
        return self._specs

    def make(self, spec: tuple[str, list[str], int], sfx: str) -> Program:
        text, expected, decls = spec
        names = set(DECL_NAME_RE.findall(text))
        return Program(rename_globals(text, names, sfx), decls,
                       [rename_globals(e, names, sfx) for e in expected])

    def run(self, prog: Program) -> Verdict:
        k = self.k
        env, results = k.typecheck.elaborate(k.parser.parse_program(prog.source))
        return Verdict((env, results), [])

    def check(self, prog: Program, verdict: Verdict) -> str | None:
        k = self.k
        env, results = verdict.value
        defs = prog.decls - len(prog.expect)
        if len(env) != defs:
            return f"{len(env)} of {defs} definitions accepted"
        if len(results) != len(prog.expect):
            return f"{len(results)} #check results, expected {len(prog.expect)}"
        for res, want in zip(results, prog.expect):
            stated = k.parser.parse_term(want, scope=env.names())
            if not k.convert.convert(env, (), res.type_, stated):
                return f"#check type {res.type_} does not convert to {want}"
        return None

    def warm_up(self) -> None:
        self.run(self.make(self._warm, "_warm"))


WORKLOADS = {w.name: w for w in (ChurchNf, PaperLoops, ConvDiverge, CheckChain)}
