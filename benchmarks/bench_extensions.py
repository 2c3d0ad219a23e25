"""Extension benches (beyond the paper's figures).

- transient-unavailability sweep (paper §II-C's second churn kind, which
  the paper's evaluation leaves unexplored);
- adaptive traffic-observing adversary vs observation rate;
- per-scheme communication/storage cost table.
"""

from conftest import bench_sweep, bench_trials, curves, record_bench, run_once

from repro.core.sizing import centralized_cost, key_share_cost, multipath_cost
from repro.experiments.reporting import format_series_table, format_sweep_table


def test_extension_availability(benchmark):
    report = run_once(benchmark, bench_sweep, "availability", trials=bench_trials())
    by_key = {
        (result["scheme"], result["uptime"], result["p"]): result["value"]
        for result in report.results()
    }
    for scheme in ("disjoint", "joint", "share"):
        print()
        print(
            format_sweep_table(
                f"Extension: resilience vs p per uptime level ({scheme})",
                ("uptime", "p"),
                [r for r in report.records if r["point"]["scheme"] == scheme],
            )
        )
    # The share scheme's (m, n) slack absorbs flakiness far better than the
    # multipath schemes' fixed holders do.
    for p in (0.0, 0.1, 0.2):
        assert by_key[("share", 0.9, p)] > 0.9
        assert (
            by_key[("share", 0.8, p)]
            >= by_key[("disjoint", 0.8, p)] - 0.02
        )
    record_bench("extensions", benchmark, trials=report.trials_run)


def test_extension_adaptive_adversary(benchmark):
    report = run_once(
        benchmark,
        bench_sweep,
        "adaptive-observation",
        trials=max(100, bench_trials() // 3),
    )
    release = curves(report, "release_resilience")
    drop = curves(report, "drop_resilience")
    rates = sorted(release["scheme=disjoint"])
    print()
    print(
        format_series_table(
            "Extension: resilience vs adversary observation rate "
            "(seed p=0.02, targeted budget=8 on a 3x4 grid, N=10000)",
            "obs",
            rates,
            {
                f"{scheme} {label}": [series[f"scheme={scheme}"][rate] for rate in rates]
                for scheme in ("disjoint", "joint")
                for label, series in (("Rr", release), ("Rd", drop))
            },
        )
    )
    # Observability strictly empowers the adversary.
    assert drop["scheme=disjoint"][1.0] <= drop["scheme=disjoint"][0.0]
    assert release["scheme=joint"][1.0] <= release["scheme=joint"][0.0]
    record_bench("extensions", benchmark, trials=report.trials_run)


def test_extension_timeliness(benchmark):
    report = run_once(
        benchmark,
        bench_sweep,
        "timeliness",
        trials=5,
        axes={"scheme": ("central", "joint", "share")},
    )
    results = report.results()
    print()
    print("Extension: release lateness (arrival - tr), end-to-end protocol:")
    for result in results:
        print(
            f"  {result['scheme']:>8} latency<={result['max_latency']:4.2f}s  "
            f"delivered {result['delivered']}/{result['runs']}  "
            f"mean +{result['mean_lateness']:.3f}s  "
            f"worst +{result['worst_lateness']:.3f}s  "
            f"early={result['early_releases']}"
        )
    assert all(result["early_releases"] == 0 for result in results)
    assert all(result["delivery_rate"] == 1.0 for result in results)


def test_extension_lifetime_distribution_sensitivity(benchmark):
    """How sensitive is end-to-end delivery to the exponential-lifetime
    assumption Algorithm 1 bakes in?  Same mean lifetime, three tails."""
    from repro.churn import (
        ChurnProcess,
        ExponentialLifetime,
        ParetoLifetime,
        WeibullLifetime,
    )
    from repro.cloud import CloudStore
    from repro.core import DataReceiver, DataSender, ReleaseTimeline
    from repro.core.protocol import ProtocolContext, install_holders
    from repro.dht import build_network
    from repro.util import RandomSource

    models = {
        "exponential": lambda: ExponentialLifetime(600.0),
        "weibull(0.6)": lambda: WeibullLifetime(600.0, shape=0.6),
        "pareto(1.8)": lambda: ParetoLifetime(600.0, tail_index=1.8),
    }
    runs = max(5, bench_trials() // 40)

    def sweep():
        results = {}
        for name, factory in models.items():
            delivered = 0
            for index in range(runs):
                seed = 700 + index * 11
                overlay = build_network(120, seed=seed)
                context = ProtocolContext(
                    network=overlay.network, resolve_targets=True
                )
                install_holders(overlay, context)
                churn = ChurnProcess(
                    overlay.network, factory(), RandomSource(seed + 1, "churn")
                )
                churn.start()
                alice = DataSender(
                    overlay.nodes[overlay.node_ids[0]],
                    CloudStore(overlay.loop.clock),
                    RandomSource(seed + 2, "alice"),
                )
                bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
                timeline = ReleaseTimeline(0.0, 300.0, 3)  # alpha = 0.5
                result = alice.send_key_share(
                    b"m",
                    timeline,
                    bob.node_id,
                    share_rows=6,
                    secret_rows=3,
                    thresholds=[1, 3, 3],
                )
                overlay.loop.run(until=330.0)
                delivered += bob.has_key(result.key_id)
            results[name] = delivered / runs
        return results

    results = run_once(benchmark, sweep)
    print()
    print(f"Extension: key-share delivery rate by lifetime tail "
          f"(mean lifetime fixed, alpha=0.5, {runs} runs each):")
    for name, rate in results.items():
        print(f"  {name:>14}: {rate:.2f}")
    print(
        "  note: every node is born at t=0 here, so heavy-tailed models'\n"
        "  infant mortality front-loads deaths far beyond the exponential\n"
        "  with the same mean — Algorithm 1's p_dead would underestimate\n"
        "  churn badly on a fresh Weibull(0.6) overlay.  This is the\n"
        "  sensitivity the sweep exists to expose."
    )
    # The exponential baseline must deliver; the heavy tails may only be
    # worse (the informative ordering), never mysteriously better.
    assert results["exponential"] >= 0.5
    assert results["weibull(0.6)"] <= results["exponential"] + 0.2
    assert results["pareto(1.8)"] <= results["exponential"] + 0.2


def test_extension_communication_cost(benchmark):
    def table():
        return [
            centralized_cost(),
            multipath_cost(5, 12, joint=False),
            multipath_cost(5, 12, joint=True),
            key_share_cost(10, 12),
        ]

    costs = run_once(benchmark, table)
    print()
    print("Per-instance communication/storage cost (k=5, l=12, n=10):")
    for cost in costs:
        print(f"  {cost}")
    assert costs[0].total_bytes < costs[1].total_bytes < costs[2].total_bytes
    assert costs[3].messages > costs[2].messages  # shares cost messages
