"""Bidirectional type checking for the three-sort system.

The sorts are the three ``SortT`` nodes ``PROP``, ``TYPE`` and ``KIND`` of
``itt.syntax``, and ``infer`` returns them as they are.  The sort ladder is
fixed, given once by ``SORT_OF`` and ``PI_RULES`` below, which are keyed by
those nodes.  Sort axioms: Prop : Type and Type : Kind.  Pi-formation rules:

    (Prop, Prop, Prop)   (Type, Prop, Prop)   (Prop, Type, Type)   (Type, Type, Type)

(Type, Prop, Prop) is the impredicative rule: quantifying over all
propositions still lands in Prop, which is what lets `forall (A : Prop), A`
inhabit Prop.  There is no cumulativity between sorts and no rule forms a
Pi-type in Kind.

The equality and coercion primitives have bespoke rules instead of
first-class signatures (their natural types quantify over Type, which the
ladder above cannot express):

    Eq T a b        : Prop       where T : Type and a, b : T
    refl T a        : Eq T a a
    Eq_rec T P a b x e : P b     where P : T -> Type, x : P a, e : Eq T a b
    cast A B e x    : B          where A, B : Prop, e : Eq Prop A B, x : A
    J A B x         : B          where A, B : Prop (only with j_rule on)

Type checking can itself demand reduction (exposing a Pi, settling a
conversion), and the irrelevant eliminators make that potentially divergent,
so every entry point threads the same budget as the reducer, one per
declaration and carrying its rule set (``budget.rules``), and fails with a
distinguishable FuelExhausted instead of hanging.  A rule that needs the
shape of a type (a sort, a Pi) reads it from the weak-head form
(``reduce.whnf_term``) of the type that ``infer`` gives.

``elaborate`` adds each parsed ``EnvEntry`` itself to the environment once
it checks; only a ``def`` without a stated type gets a new entry, with its
inferred type.  Elaborations of one ``Program`` share its records, so none
is assigned to.

``infer`` picks a term's rule, and ``elaborate`` a declaration's, by its
class: ``type(x) is`` tests, the most frequent classes first.  They run once
per node and declaration, and on CPython a ``match`` of class patterns costs
three to five times as much per choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import convert as _convert
from . import reduce as _reduce
from .env import Context, EnvEntry, GlobalEnv, ctx_extend, ctx_lookup
from .parser import Declaration, PragmaCheck, PragmaReduce, Program
from .rules import DEFAULT_RULES, Fuel, FuelExhausted, RuleSet
from .syntax import (
    KIND, PROP, TYPE,
    App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, SortT, Term, Var,
    pretty, subst,
)


class TypeCheckError(Exception):
    pass


# The sort ladder: the type of each typed sort, and the sort of a Pi-type
# from the sorts of its domain and codomain.
SORT_OF = {PROP: TYPE, TYPE: KIND}
PI_RULES = {
    (PROP, PROP): PROP,
    (TYPE, PROP): PROP,  # impredicativity
    (PROP, TYPE): TYPE,
    (TYPE, TYPE): TYPE,
}


def _sort_of_type(env: GlobalEnv, ctx: Context, ty: Term, budget: Fuel,
                  what: str) -> SortT:
    """The sort classifying ``ty``; fails if ``ty`` is not a type."""
    w = _reduce.whnf_term(env, ctx, infer(env, ctx, ty, budget), budget)
    if isinstance(w, SortT):
        return w
    raise TypeCheckError(f"{what} is not a type: {pretty(ty)} : {pretty(w)}")


def _expect_sort(env: GlobalEnv, ctx: Context, term: Term, expected: SortT,
                 budget: Fuel, what: str) -> None:
    w = _reduce.whnf_term(env, ctx, infer(env, ctx, term, budget), budget)
    if w != expected:
        raise TypeCheckError(
            f"{what} must have sort {expected}, but {pretty(term)} : {pretty(w)}")


def infer(env: GlobalEnv, ctx: Context, t: Term, budget: Fuel) -> Term:
    cls = type(t)
    if cls is Global:
        entry = env.lookup(t.name)
        if entry is None:
            raise TypeCheckError(f"unbound global {t.name!r}")
        return entry.type_
    elif cls is App:
        w = _reduce.whnf_term(env, ctx, infer(env, ctx, t.fn, budget), budget)
        if not isinstance(w, Pi):
            raise TypeCheckError(
                f"applied term is not a function: {pretty(t.fn)} : {pretty(w)}")
        check(env, ctx, t.arg, w.domain, budget)
        return subst(w.codomain, 0, t.arg)
    elif cls is SortT:
        above = SORT_OF.get(t)
        if above is None:
            raise TypeCheckError(f"sort {t} has no type")
        return above
    elif cls is Cast:
        _expect_sort(env, ctx, t.src, PROP, budget, "cast source")
        _expect_sort(env, ctx, t.dst, PROP, budget, "cast target")
        check(env, ctx, t.proof, Eq(PROP, t.src, t.dst), budget)
        check(env, ctx, t.val, t.src, budget)
        return t.dst
    elif cls is Refl:
        _expect_sort(env, ctx, t.ty, TYPE, budget, "refl carrier")
        check(env, ctx, t.val, t.ty, budget)
        return Eq(t.ty, t.val, t.val)
    elif cls is Var:
        if t.index < 0 or t.index >= len(ctx):
            raise TypeCheckError(f"unbound variable index {t.index}")
        return ctx_lookup(ctx, t.index)
    elif cls is Lam:
        # The domain must be a type; the synthesized Pi is not re-checked
        # against the formation table so that type-level functions such
        # as Eq_rec motives (T -> Type) stay expressible.
        _sort_of_type(env, ctx, t.domain, budget, "lambda domain")
        body_ty = infer(env, ctx_extend(ctx, t.domain), t.body, budget)
        return Pi(t.domain, body_ty, name=t.name)
    elif cls is Pi:
        s1 = _sort_of_type(env, ctx, t.domain, budget, "Pi domain")
        s2 = _sort_of_type(env, ctx_extend(ctx, t.domain), t.codomain, budget,
                           "Pi codomain")
        s3 = PI_RULES.get((s1, s2))
        if s3 is None:
            raise TypeCheckError(f"no Pi-formation rule for ({s1}, {s2})")
        return s3
    elif cls is Eq:
        _expect_sort(env, ctx, t.ty, TYPE, budget, "Eq carrier")
        check(env, ctx, t.lhs, t.ty, budget)
        check(env, ctx, t.rhs, t.ty, budget)
        return PROP
    elif cls is EqRec:
        ty, motive, lhs, rhs = t.ty, t.motive, t.lhs, t.rhs
        _expect_sort(env, ctx, ty, TYPE, budget, "Eq_rec carrier")
        mty = _reduce.whnf_term(env, ctx, infer(env, ctx, motive, budget),
                                budget)
        if not isinstance(mty, Pi):
            raise TypeCheckError(
                f"Eq_rec motive is not a function: {pretty(mty)}")
        if not _convert.convert(env, ctx, mty.domain, ty, budget):
            raise TypeCheckError(
                f"Eq_rec motive domain {pretty(mty.domain)} does not match "
                f"carrier {pretty(ty)}")
        cod = _reduce.whnf_term(env, ctx_extend(ctx, mty.domain),
                                mty.codomain, budget)
        if cod != TYPE:
            raise TypeCheckError(
                f"Eq_rec motive must land in Type, found {pretty(cod)}")
        check(env, ctx, lhs, ty, budget)
        check(env, ctx, rhs, ty, budget)
        check(env, ctx, t.base, App(motive, lhs), budget)
        check(env, ctx, t.proof, Eq(ty, lhs, rhs), budget)
        return App(motive, rhs)
    elif cls is J:
        if not budget.rules.j_rule:
            raise TypeCheckError(
                "J is not part of the active rule set (enable j_rule)")
        _expect_sort(env, ctx, t.src, PROP, budget, "J source")
        _expect_sort(env, ctx, t.dst, PROP, budget, "J target")
        check(env, ctx, t.val, t.src, budget)
        return t.dst
    raise TypeCheckError(f"cannot infer a type for {t!r}")


def check(env: GlobalEnv, ctx: Context, t: Term, expected: Term,
          budget: Fuel) -> None:
    actual = infer(env, ctx, t, budget)
    if not _convert.convert(env, ctx, actual, expected, budget):
        raise TypeCheckError(
            f"type mismatch: expected {pretty(expected)}, inferred {pretty(actual)}"
            f" for {pretty(t)}")


@dataclass
class PragmaResult:
    """What a pragma produced: a ``#check``'s type or a ``#reduce``'s trace."""
    kind: str  # "check" | "reduce"
    index: int  # the pragma's position among the program's declarations
    term: Term
    type_: Term | None = None
    trace: _reduce.Trace | None = None


def name_declaration(exc: Exception, index: int, decl: Declaration) -> None:
    """Prefix ``exc``'s message with the index and name of the declaration
    it came from."""
    name = getattr(decl, "name", type(decl).__name__)
    exc.args = (f"declaration {index} ({name}): {exc}",)


def elaborate(program: Program, rules: RuleSet = DEFAULT_RULES, *,
              reduce_strategy: str | None = "nf") -> tuple[GlobalEnv, list[PragmaResult]]:
    """Process declarations in order against a growing global environment.

    Each ``#reduce`` pragma runs under ``reduce_strategy``, "nf" or "whnf";
    under None it is type-checked but not run.  Each declaration gets a fresh
    budget of ``rules.fuel`` steps.  The first failing declaration aborts
    with its TypeCheckError, FuelExhausted (a ConversionCycle among them) or
    RecursionError, re-raised with the message prefixed by its index and name.
    """
    env = GlobalEnv()
    results: list[PragmaResult] = []
    for index, decl in enumerate(program.declarations):
        budget = rules.new_budget()
        try:
            cls = type(decl)
            if cls is EnvEntry:
                name, ty, body = decl.name, decl.type_, decl.body
                if ty is None:  # a new entry: the parsed one is shared
                    decl = EnvEntry(name, infer(env, (), body, budget), body,
                                    "def")
                elif body is None:
                    _sort_of_type(env, (), ty, budget, f"type of {name}")
                else:
                    _sort_of_type(env, (), ty, budget, f"stated type of {name}")
                    check(env, (), body, ty, budget)
                env.add(decl)
            elif cls is PragmaCheck:
                ty = infer(env, (), decl.term, budget)
                results.append(PragmaResult("check", index, decl.term, type_=ty))
            elif cls is PragmaReduce:
                infer(env, (), decl.term, budget)
                if reduce_strategy is not None:
                    trace = _reduce.reduce_with(env, (), decl.term, rules,
                                                reduce_strategy)
                    results.append(PragmaResult("reduce", index, decl.term,
                                                trace=trace))
        except (TypeCheckError, FuelExhausted, RecursionError) as exc:
            name_declaration(exc, index, decl)
            raise
    return env, results
