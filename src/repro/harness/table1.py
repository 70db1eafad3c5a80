"""Table I: test setup specifications, from the machine registry."""

from __future__ import annotations

from repro.perfmodel.machines import MACHINES, Machine


def run_table1() -> list[dict]:
    """Rows of the paper's Table I plus the model constants behind them."""
    rows = []
    for name in ("Spruce", "Piz Daint", "Titan"):
        m: Machine = MACHINES[name]
        rows.append({
            "system": m.name,
            "compute_device": m.node.name,
            "interconnect": m.network.topology.value,
            "max_nodes": m.max_nodes,
            "node_bandwidth_GBs": m.node.dram_bandwidth / 1e9,
            "link_latency_us": m.network.inter_node.latency * 1e6,
            "link_bandwidth_GBs": m.network.inter_node.bandwidth / 1e9,
            "ranks_per_node": m.default_ranks_per_node,
        })
    return rows
