"""The budget's memo of Beta instantiations.

``head_step`` keeps each Beta result on the budget, keyed by the ids of the
lambda body and the argument, and a repeat of the pair shares the stored
result.  These tests check that the memo changes no step, no answer and no
fuel count, against runs in which every lookup misses, and that it shares
what it should.
"""

from __future__ import annotations

import itertools

from itt import (
    CASE_NAMES, NORMAL_FORM, PROP,
    App, Global, Lam, PragmaReduce, RuleSet, Var, elaborate,
    load_example, parse_program, reduce_with,
)
import itt.reduce
from itt.reduce import BETA
from helpers import FLAG_VARIANTS, observe, step_term
from term_strategies import church_exp_program


class _Forgetful(dict):
    """A Beta memo on which every lookup misses, so every Beta step
    substitutes."""

    def get(self, key, default=None):
        return default


def _forget_beta(monkeypatch) -> None:
    """Hand out only budgets whose Beta memo never hits."""
    new_budget = RuleSet.new_budget

    def forgetful(rules):
        budget = new_budget(rules)
        budget.instances = _Forgetful()
        return budget

    monkeypatch.setattr(RuleSet, "new_budget", forgetful)


def _counting_subst(monkeypatch) -> list[int]:
    """Count the calls to ``reduce``'s ``subst``: Beta's substitutions."""
    calls = [0]
    subst = itt.reduce.subst

    def counting(*args):
        calls[0] += 1
        return subst(*args)

    monkeypatch.setattr(itt.reduce, "subst", counting)
    return calls


def test_beta_memo_changes_no_step_answer_or_fuel(monkeypatch):
    # every corpus case under four rule variants and both strategies, and
    # Church exp 3 3 under nf: the same steps, status lines and fuel with
    # the memo as with every lookup missing, and fewer substitutions
    runs = [(case.program, case.rules.updated(**flags), strategy)
            for case in map(load_example, CASE_NAMES)
            for flags, strategy in itertools.product(FLAG_VARIANTS,
                                                     ("whnf", "nf"))]
    runs.append((parse_program(church_exp_program(3, 3)), RuleSet(), "nf"))
    observed, substs = {}, {}
    for memo in (True, False):
        with monkeypatch.context() as m:
            if not memo:
                _forget_beta(m)
            calls = _counting_subst(m)
            observed[memo] = [observe(m, *run) for run in runs]
        substs[memo] = calls[0]
    for run, got, want in zip(runs, observed[True], observed[False]):
        assert got == want, (run[1], run[2])
    assert substs[True] < substs[False]


def test_sanity_church_beta_steps_share_substitutions(monkeypatch):
    # exp two two: 2 of its 12 Beta steps repeat a (body, argument) pair
    # that the budget already substituted
    case = load_example("sanity-church")
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
    (term,) = [d.term for d in case.program.declarations
               if isinstance(d, PragmaReduce)]
    calls = _counting_subst(monkeypatch)
    trace = reduce_with(env, (), term, case.rules, case.strategy)
    betas = sum(s.kind == BETA for s in trace.steps)
    assert trace.status == NORMAL_FORM
    assert calls[0] < betas
    assert (calls[0], betas) == (10, 12)


def test_one_budget_shares_a_beta_instantiation():
    env, _ = elaborate(parse_program("axiom a : Prop.\naxiom b : Prop.\n"))
    body = App(Var(0), Var(0))
    a, b = Global("a"), Global("b")
    rules = RuleSet()
    budget = rules.new_budget()
    assert budget.instances == {}
    first, kind = step_term(env, (), App(Lam(PROP, body), a), budget)
    assert kind == BETA and first == App(a, a)
    # a new redex on the same body and argument objects: the stored result
    again, _ = step_term(env, (), App(Lam(PROP, body, name="y"), a), budget)
    assert again is first
    # another argument is another instantiation
    other, _ = step_term(env, (), App(Lam(PROP, body), b), budget)
    assert other == App(b, b)
    # the memo skips the substitution, not the step's fuel
    assert budget.remaining == rules.fuel - 3
    # a fresh budget starts empty and substitutes anew
    fresh = rules.new_budget()
    assert fresh.instances == {}
    anew, _ = step_term(env, (), App(Lam(PROP, body), a), fresh)
    assert anew == first and anew is not first
