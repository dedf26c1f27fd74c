#!/usr/bin/env python3
"""Walk through the surface language and the kernel's typing judgments.

The universe of propositions is impredicative: quantifying over all
propositions still yields a proposition, which is what makes the absurdity
`forall (A : Prop), A` and self-application typeable at all.
"""

from itt import (
    PROP, elaborate, infer, load_example, parse_term, pretty,
)


def main() -> None:
    case = load_example("counterexample1")
    print("source program:")
    print("\n".join(f"    {line}" for line in case.source.splitlines()
                    if line and not line.startswith("--")))

    env, results = elaborate(case.program, case.rules, reduce_strategy=None)

    print("\nelaborated globals:")
    for entry in env:
        role = {"def": "def  ", "axiom": "axiom", "assume": "hyp  "}[entry.kind]
        print(f"    {role} {entry.name} : {pretty(entry.type_)}")

    print("\nimpredicativity at work:")
    bot = parse_term("forall (A : Prop), A")
    bot_type = infer(env, (), bot, case.rules.new_budget())
    print(f"    {pretty(bot)} : {pretty(bot_type)}")
    assert bot_type == PROP

    print("\nthe stated #check results:")
    for res in results:
        if res.kind == "check":
            print(f"    {pretty(res.term)} : {pretty(res.type_)}")

    delta_body = env.lookup("delta").body
    print("\nself-application through the impredicative Top = Neg Bot:")
    print(f"    delta = {pretty(delta_body)}")
    delta_type = infer(env, (), delta_body, case.rules.new_budget())
    print(f"    inferred: {pretty(delta_type)}")
    print("    (checks against Top because Top unfolds to Bot -> Bot)")


if __name__ == "__main__":
    main()
