#!/usr/bin/env python
"""Section V: disambiguating noise signatures.

Two demonstrations on real (simulated) traces:

* **similar activities** — find interruptions whose durations are nearly
  identical but whose causes differ (the paper's page fault vs
  timer-tick case, Figure 10);
* **composed events** — find FTQ quanta whose single perceived spike is
  actually several unrelated kernel events (Figure 9).

Run:  python examples/noise_disambiguation.py
"""

from repro.core import (
    NoiseAnalysis,
    SyntheticNoiseChart,
    TraceMeta,
    find_ambiguous_pairs,
    find_composed,
    quantum_composition,
)
from repro.util.units import MSEC, SEC, fmt_ns
from repro.workloads import DEFAULT_QUANTUM_NS, FTQWorkload, SequoiaWorkload, ftq_output


def similar_activities() -> None:
    print("=== case 1: qualitatively similar activities (AMG) ===")
    workload = SequoiaWorkload("AMG", nominal_ns=1500 * MSEC)
    node, trace = workload.run_traced(1500 * MSEC, seed=3)
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
    chart = SyntheticNoiseChart(analysis, cpu=0)

    pairs = find_ambiguous_pairs(chart.interruptions, tolerance_ns=30)
    print(f"{len(chart)} interruptions; "
          f"{len(pairs)} near-identical-duration pairs with different causes")
    for pair in pairs[:5]:
        print("  " + pair.explain())
    print("an indirect tool (FTQ) would see each pair as the same event;\n"
          "the trace names both causes.\n")


def composed_events() -> None:
    print("=== case 2: composed events in FTQ quanta ===")
    workload = FTQWorkload()
    node, trace = workload.run_traced(2 * SEC, seed=5, ncpus=2)
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
    chart = SyntheticNoiseChart(analysis, cpu=0)
    comparison = ftq_output(analysis, cpu=0)

    findings = find_composed(chart.interruptions)
    print(f"{len(findings)} interruptions composed of cross-category events")

    # Show a quantum where FTQ's one spike is really several events.
    t0 = comparison.times[0]
    shown = 0
    for q in range(len(comparison.ftq_noise_ns)):
        groups = quantum_composition(chart.interruptions, t0, DEFAULT_QUANTUM_NS, q)
        if len(groups) >= 2 and any(
            set(g.signature()) == {"page_fault"} for g in groups
        ):
            print(f"\nFTQ quantum {q} shows ONE spike of "
                  f"{fmt_ns(int(comparison.ftq_noise_ns[q]))}; "
                  f"the trace splits it into:")
            for g in groups:
                print(f"  t={g.start}: {' + '.join(g.signature())} "
                      f"({fmt_ns(g.noise_ns)})")
            shown += 1
            if shown == 2:
                break


def main() -> None:
    similar_activities()
    composed_events()


if __name__ == "__main__":
    main()
