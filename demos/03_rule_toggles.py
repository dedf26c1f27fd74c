#!/usr/bin/env python3
"""Show which rule is to blame: toggle the eliminators and re-run.

Disabling the cast/Eq_rec firing rules leaves a stuck coercion at the head
and every program normalizes.  Disabling proof irrelevance changes nothing,
because the coercion's side condition only compares endpoints.
"""

from itt import App, elaborate, load_example, pretty


def outcome(name: str, **flags) -> str:
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, results = elaborate(case.program, rules, reduce_strategy=case.strategy)
    (trace,) = [r.trace for r in results if r.kind == "reduce"]
    return trace.status


def main() -> None:
    cases = ("counterexample1", "counterexample2")
    variants = (
        ("default rules", {}),
        ("cast rule off", {"cast_rule": False}),
        ("cast + Eq_rec off", {"cast_rule": False, "eqrec_rule": False}),
        ("irrelevance off", {"proof_irrelevance": False}),
    )
    width = max(len(label) for label, _ in variants)
    print(f"{'rule set':<{width}}  " + "  ".join(f"{c:<24}" for c in cases))
    for label, flags in variants:
        row = [outcome(c, **flags) for c in cases]
        print(f"{label:<{width}}  " + "  ".join(f"{s:<24}" for s in row))

    print("\nWhere the restricted reduction gets stuck (counterexample2):")
    case = load_example("counterexample2")
    rules = case.rules.updated(cast_rule=False, eqrec_rule=False)
    env, results = elaborate(case.program, rules, reduce_strategy="nf")
    final = results[-1].trace.final
    head = final
    while isinstance(head, App):
        head = head.fn
    print(f"    head: {type(head).__name__}")
    print(f"    term: {pretty(final)[:90]} ...")


if __name__ == "__main__":
    main()
