#!/usr/bin/env python3
"""Reproduce both non-normalization counterexamples with full step traces.

The first loop needs an open term: under the hypothesis h that all
propositions are equal, delta (omega h) steps back to itself in six steps.
The second is closed (one axiom about true propositions) and already has no
weak-head normal form.
"""

from itt import elaborate, load_example, pretty, trace_to_text


def show(name: str) -> None:
    case = load_example(name)
    env, results = elaborate(case.program, case.rules,
                             reduce_strategy=case.strategy)
    print(f"=== {name} (strategy {case.strategy})")
    for res in results:
        if res.kind != "reduce":
            continue
        print(f"#reduce {pretty(res.term)}")
        print(trace_to_text(res.trace))
        cycle = res.trace.cycle
        if cycle is not None:
            print(f"--> the term at step {cycle.first_index} recurs "
                  f"{cycle.period} steps later:")
            print(f"    {pretty(res.trace.snapshots()[cycle.first_index])}")
    print()


def main() -> None:
    for name in ("counterexample1", "counterexample2", "counterexample2-propext"):
        show(name)
    print("Each cycle is Delta, Beta, Delta, Beta, Beta, CastFire: unfold the")
    print("self-applicator, feed it the coercion, and the coercion fires on")
    print("syntactically equal endpoints without ever touching its proof.")


if __name__ == "__main__":
    main()
