#!/usr/bin/env python
"""Quickstart: trace a workload, quantify its OS noise, explain one spike.

This is the library's core loop in ~40 lines:

1. build a simulated compute node running a workload (here: FTQ);
2. attach the lttng-noise tracer;
3. run, collect the binary trace;
4. analyze: per-event statistics, the five-category breakdown, and the
   synthetic OS noise chart that decomposes each interruption.

Run:  python examples/quickstart.py
"""

from repro.core import NoiseAnalysis, SyntheticNoiseChart, TraceMeta
from repro.core.report import format_interruptions
from repro.util.units import SEC, fmt_ns
from repro.workloads import FTQWorkload


def main() -> None:
    # 1-3. Simulate a traced two-core node running FTQ for two seconds.
    workload = FTQWorkload()
    node, trace = workload.run_traced(2 * SEC, seed=1, ncpus=2)
    print(f"trace: {sum(p.n_records for p in trace.packets)} records, "
          f"{trace.records_lost} lost, span {fmt_ns(trace.span_ns)}")

    # 4. Offline analysis.
    analysis = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))

    print(f"\ntotal OS noise: {fmt_ns(analysis.total_noise_ns())} "
          f"({100 * analysis.noise_fraction():.3f} % of CPU time)")

    print("\nper-event statistics (freq is per CPU-second):")
    for name, stats in analysis.stats_by_event().items():
        print(f"  {name:22s} freq={stats.freq:8.1f}  avg={fmt_ns(int(stats.avg)):>10s}  "
              f"max={fmt_ns(stats.max):>10s}")

    print("\nnoise breakdown (the paper's Figure 3 categories):")
    for category, fraction in analysis.breakdown_fractions().items():
        print(f"  {category.value:12s} {100 * fraction:6.2f} %")

    # The synthetic OS noise chart: what interrupted FTQ, and when.
    chart = SyntheticNoiseChart(analysis, cpu=0)
    print(f"\n{len(chart)} interruptions on cpu0; "
          f"the three largest, decomposed:")
    print(format_interruptions(chart.largest(3)))


if __name__ == "__main__":
    main()
