"""Tests for the Sequoia workload models and their calibration.

These are *shape* assertions against the paper's tables/figures (DESIGN.md
§5): orderings between applications and category dominance, with generous
tolerances — the substrate is a simulator, not the authors' testbed.
"""

import pytest

from repro.core import NoiseAnalysis, NoiseCategory, TraceMeta
from repro.util.units import SEC
from repro.workloads import SEQUOIA_PROFILES, SequoiaWorkload


class TestConstruction:
    def test_all_five_profiles(self):
        assert set(SEQUOIA_PROFILES) == {"AMG", "IRS", "LAMMPS", "SPHOT", "UMT"}

    def test_factory_accepts_lowercase(self):
        assert SequoiaWorkload("amg").name == "AMG"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            SequoiaWorkload("HPL")

    def test_install_creates_one_rank_per_cpu(self):
        wl = SequoiaWorkload("SPHOT")
        node = wl.build_node(seed=1, ncpus=4)
        ranks = wl.install(node)
        assert len(ranks) == 4
        assert sorted(t.home_cpu for t in ranks) == [0, 1, 2, 3]

    def test_umt_gets_python_daemons(self):
        wl = SequoiaWorkload("UMT")
        node = wl.build_node(seed=1, ncpus=2)
        wl.install(node)
        names = {t.name for t in node.tasks.values()}
        assert "python/0" in names

    def test_profiles_mean_fault_rate_close_to_table(self):
        # The phase plan's run-average must reproduce Table I's frequency.
        for name, profile in SEQUOIA_PROFILES.items():
            mean = profile.mean_fault_rate()
            assert mean == pytest.approx(profile.page_fault.freq, rel=0.25), name


class TestAmgShape:
    def test_page_faults_dominate(self, amg_analysis):
        fractions = amg_analysis.breakdown_fractions()
        # Paper Fig. 3: 82.4 %.
        assert fractions[NoiseCategory.PAGE_FAULT] > 0.6

    def test_fault_rate_above_tick_rate(self, amg_analysis):
        # Paper: "the frequency of page faults is even higher than that of
        # the timer interrupt" for AMG.
        pf = amg_analysis.stats("page_fault")
        tick = amg_analysis.stats("timer_interrupt")
        assert pf.freq > 5 * tick.freq
        assert pf.freq == pytest.approx(1693, rel=0.25)

    def test_timer_frequency_is_hz(self, amg_analysis):
        assert amg_analysis.stats("timer_interrupt").freq == pytest.approx(
            100, rel=0.05
        )
        assert amg_analysis.stats("run_timer_softirq").freq == pytest.approx(
            100, rel=0.05
        )

    def test_faults_spread_over_run(self, amg_analysis):
        # Fig. 5a: AMG faults throughout the execution.
        faults = amg_analysis.select(event="page_fault")
        span = amg_analysis.span_ns
        early = sum(1 for a in faults if a.start < span * 0.3)
        late = sum(1 for a in faults if a.start > span * 0.7)
        assert early > 0.1 * len(faults)
        assert late > 0.1 * len(faults)

    def test_fault_duration_bimodal(self, amg_analysis):
        from repro.core import duration_histogram

        durations = amg_analysis.durations("page_fault")
        hist = duration_histogram(durations, bins=60)
        peaks = hist.peaks(min_rel_height=0.3)
        assert len(peaks) >= 2  # Fig. 4a: ~2.5 us and ~4.5 us


class TestLammpsShape:
    def test_preemption_dominates(self, lammps_analysis):
        fractions = lammps_analysis.breakdown_fractions()
        # Paper Fig. 3: 80.2 %.
        assert fractions[NoiseCategory.PREEMPTION] > 0.55

    def test_faults_concentrated_at_start(self, lammps_analysis):
        # Fig. 5b: initialization-phase faults.
        faults = lammps_analysis.select(event="page_fault")
        span = lammps_analysis.span_ns
        early = sum(1 for a in faults if a.start < span * 0.15)
        assert early > 0.5 * len(faults)

    def test_rpciod_is_the_preempting_daemon(self, lammps_run):
        node, trace, meta = lammps_run
        an = NoiseAnalysis(trace, meta=meta)
        windows = an.select(event="preemption", noise_only=True)
        assert windows
        rpciod_windows = [w for w in windows if "rpciod" in w.name]
        assert len(rpciod_windows) > 0.8 * len(windows)


class TestCrossApplication:
    @pytest.fixture(scope="class")
    def small_runs(self):
        out = {}
        for name in ("SPHOT", "UMT"):
            wl = SequoiaWorkload(name, nominal_ns=SEC)
            node, trace = wl.run_traced(SEC, seed=31)
            out[name] = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
        return out

    def test_sphot_periodic_heavy(self, small_runs):
        fractions = small_runs["SPHOT"].breakdown_fractions()
        # Paper: periodic activities limited (5-10 %) "for all applications
        # but SPHOT".
        assert fractions[NoiseCategory.PERIODIC] > 0.25

    def test_umt_page_faults_dominate(self, small_runs):
        fractions = small_runs["UMT"].breakdown_fractions()
        assert fractions[NoiseCategory.PAGE_FAULT] > 0.6

    def test_umt_noisier_than_sphot(self, small_runs):
        # Table I: UMT 3554 ev/s vs SPHOT 25 ev/s; total noise follows.
        assert (
            small_runs["UMT"].total_noise_ns()
            > 5 * small_runs["SPHOT"].total_noise_ns()
        )

    def test_rebalance_umt_wider_than_irs(self):
        from repro.core import spread_ratio

        out = {}
        for name in ("UMT", "IRS"):
            wl = SequoiaWorkload(name, nominal_ns=SEC)
            node, trace = wl.run_traced(SEC, seed=37)
            an = NoiseAnalysis(trace, meta=TraceMeta.from_node(node))
            out[name] = an.durations("run_rebalance_domains")
        # Fig. 6: IRS compact, UMT wide.
        assert spread_ratio(out["UMT"]) > 1.5 * spread_ratio(out["IRS"])

    def test_net_tx_faster_and_steadier_than_rx(self, amg_analysis):
        # Table III vs IV: "the transmission tasklet is faster and more
        # constant than the receiver tasklet".
        rx = amg_analysis.stats("net_rx_action")
        tx = amg_analysis.stats("net_tx_action")
        assert tx.avg < rx.avg
        assert tx.std < rx.std
