#!/usr/bin/env python
"""A long-horizon time capsule: why key-share routing exists.

The sender wants data hidden for *five node lifetimes* (α = 5 — the paper's
harshest Fig. 7 panel).  This script contrasts the schemes at that horizon
through the churn model's exact forms, which show the failure mode: with keys
pre-assigned to concrete holders (multipath), churn repairs keep handing
the column keys to new nodes, and the release-ahead exposure grows; the
key-share scheme stores nothing across periods so churn barely moves it.

Run:  python examples/time_capsule.py
"""

from repro.core import plan_configuration
from repro.core.schemes.keyshare import plan_share_scheme
from repro.experiments.churn_model import (
    centralized_churn,
    key_share_churn,
    multipath_churn,
)
from repro.experiments.reporting import format_series_table

ALPHA = 5.0
NETWORK = 10000
P_SWEEP = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def main() -> None:
    rows = {"central": [], "disjoint": [], "joint": [], "share": []}
    for p in P_SWEEP:
        planning_rate = max(p, 0.05)
        rows["central"].append(centralized_churn(p, ALPHA).worst)
        for scheme in ("disjoint", "joint"):
            configuration = plan_configuration(scheme, planning_rate, NETWORK)
            outcome = multipath_churn(
                p,
                ALPHA,
                configuration.replication,
                configuration.path_length,
                joint=(scheme == "joint"),
            )
            rows[scheme].append(outcome.worst)
        plan = plan_share_scheme(planning_rate, NETWORK, ALPHA, 1.0)
        rows["share"].append(key_share_churn(plan, malicious_rate=p).worst)

    print(
        format_series_table(
            f"Time capsule horizon alpha = {ALPHA:g} (T = 5 node lifetimes), "
            f"N = {NETWORK}",
            "p",
            list(P_SWEEP),
            rows,
        )
    )
    print()
    print("reading: the centralized holder is almost surely dead before the")
    print("release (R ~ e^-5); the multipath schemes leak their stored keys")
    print("through churn repairs; key-share routing stores nothing between")
    print("holding periods, so five lifetimes of churn barely dent it.")

    # The paper's concluding claim, checked right here:
    share_at_p25 = rows["share"][P_SWEEP.index(0.25)]
    assert share_at_p25 > 0.9, "share scheme should hold R > 0.9 at p = 0.25"
    print(f"\npaper claim holds: share scheme R = {share_at_p25:.3f} at p = 0.25, "
          f"alpha = 5 (threshold: > 0.9)")


if __name__ == "__main__":
    main()
