"""Table I shape check: test setup specifications."""

from repro.harness.table1 import run_table1


def test_table1(benchmark):
    rows = benchmark(run_table1)
    by_name = {r["system"]: r for r in rows}
    # the paper's Table I content
    assert by_name["Spruce"]["compute_device"] == "2x E5-2680v2"
    assert by_name["Piz Daint"]["compute_device"] == "NVIDIA K20x"
    assert by_name["Titan"]["compute_device"] == "NVIDIA K20x"
    assert by_name["Titan"]["max_nodes"] == 8192
