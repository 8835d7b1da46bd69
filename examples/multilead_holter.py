"""Multi-lead Holter deployment: both channels, multi-day planning.

Combines two extensions of this reproduction: the two-lead monitor
(MIT-BIH records carry two channels) and the Holter session planner
built on the calibrated Shimmer energy model.  Answers the deployment
questions the paper's introduction raises: how many days of two-lead
monitoring does one battery buy, and does the data fit the mote's SD
card?

Usage::

    python examples/multilead_holter.py
"""

from __future__ import annotations

from repro import SyntheticMitBih, SystemConfig
from repro.core import MultiChannelMonitor
from repro.ecg import HolterPlanner
from repro.experiments import render_table
from repro.metrics import compression_ratio

from _common import banner


def main() -> None:
    banner("two-lead CS monitoring (records are two-channel)")
    config = SystemConfig()
    database = SyntheticMitBih(duration_s=40.0)
    record = database.load("208")  # mixed PVCs, clinically interesting

    monitor = MultiChannelMonitor(config, channels=2)
    monitor.calibrate(record)
    leads = monitor.stream(record, max_packets=10)

    rows = [
        {
            "lead": index,
            "measured_cr": stream.compression_ratio_percent,
            "prd_percent": stream.mean_prd_percent,
            "snr_db": stream.mean_snr_db,
            "iterations": stream.mean_iterations,
        }
        for index, stream in enumerate(leads)
    ]
    print(render_table(rows, title=f"record 208 ({record.rhythm}), both leads"))
    # the node's radio carries the sum of every lead's packets
    total_bits = sum(p.packet_bits for lead in leads for p in lead.packets)
    original_bits = sum(
        lead.config.original_packet_bits * lead.num_packets for lead in leads
    )
    cr = compression_ratio(original_bits, total_bits)
    worst_prd = max(lead.mean_prd_percent for lead in leads)
    # the combined stream ends with its longest lead
    seconds = max(
        lead.config.packet_seconds * lead.num_packets for lead in leads
    )
    print(
        f"\ncombined stream: CR {cr:.1f} %, "
        f"worst-lead PRD {worst_prd:.2f} %, "
        f"radio rate {total_bits / seconds:.0f} bps"
    )

    banner("multi-day session planning (per lead)")
    planner = HolterPlanner(config=config)
    mean_bits = total_bits / sum(lead.num_packets for lead in leads)
    plans = []
    for days in (1, 3, 5):
        plan = planner.plan(days * 24.0, mean_bits)
        plans.append(
            {
                "session_days": days,
                "node_power_mw": plan.node_power_mw,
                "battery_days": plan.battery_days,
                "battery_limited": plan.battery_limited,
                "data_volume_mb": plan.data_volume_mb,
                "fits_sd_card": planner.fits_sd_card(plan),
            }
        )
    print(render_table(plans))
    raw = planner.plan_uncompressed(24.0)
    best = planner.plan(24.0, mean_bits)
    print(
        f"\ncompression extends battery life from {raw.battery_days:.2f} to "
        f"{best.battery_days:.2f} days "
        f"(+{best.lifetime_extension_percent:.1f} %)"
    )


if __name__ == "__main__":
    main()
