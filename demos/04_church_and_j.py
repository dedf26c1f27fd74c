#!/usr/bin/env python3
"""The engine on ordinary terms, plus the historical J operator.

Church-numeral arithmetic normalizes as usual, so the divergence in the
other demos is attributable to the irrelevant eliminators, not the engine.
J is the blunt ancestor of cast: no proof argument at all, same firing
condition, same loop potential.
"""

from itt import (
    alpha_eq, elaborate, head_step, load_example, parse_term, pretty,
)


def main() -> None:
    case = load_example("sanity-church")
    env, results = elaborate(case.program, case.rules, reduce_strategy="nf")
    (trace,) = [r.trace for r in results if r.kind == "reduce"]
    print("Church exponentiation 2^2:")
    print(f"    #reduce {pretty(trace.initial)}")
    print(f"    {len(trace.steps)} steps, {trace.status}")
    print(f"    normal form: {pretty(trace.final)}")
    four = parse_term(
        "fun (A : Prop), fun (s : A -> A), fun (x : A), s (s (s (s x)))")
    print(f"    equals the literal numeral four: {alpha_eq(trace.final, four)}")

    case = load_example("girard-j")
    env, results = elaborate(case.program, case.rules, reduce_strategy="nf")
    print("\nThe J operator (j_rule enabled):")
    for res in results:
        if res.kind == "check":
            print(f"    #check  {pretty(res.term)} : {pretty(res.type_)}")
    scope = env.names()
    fires = parse_term("J Top Top top_id", scope)
    # J is a head, applied to no arguments: the empty stack, None
    (fired, _), _ = head_step(env, (), fires, None, case.rules.new_budget())
    print(f"    step(J Top Top top_id) = {fired}")
    stuck = parse_term("J Top Bot top_id", scope)
    r = head_step(env, (), stuck, None, case.rules.new_budget())
    print(f"    head step on J Top Bot top_id: {r}  (stuck, as it should be)")


if __name__ == "__main__":
    main()
