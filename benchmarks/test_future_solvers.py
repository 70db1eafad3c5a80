"""Extended-study bench: the §VII solver roadmap at scale."""

from repro.harness.future_solvers import run_future_solvers


def test_future_solvers_roadmap(benchmark):
    fig = benchmark.pedantic(run_future_solvers, iterations=1, rounds=1)

    # Single-reduction CG trades extra vector traffic (the maintained
    # s = A p recurrence) for half the reductions: it must LOSE in the
    # bandwidth-bound regime and WIN in the latency-bound regime, with a
    # crossover in between — the classic communication-avoiding bargain.
    nodes = fig.node_counts
    cg = fig.series["CG"]
    fused = fig.series["CG-fused"]
    assert fused[0] > cg[0]                      # 1 node: pure overhead
    assert fused[-1] < cg[-1]                    # 8192 nodes: clear win
    crossover = next(n for n, f, c in zip(nodes, fused, cg) if f < c)
    assert 32 <= crossover <= 1024

    # deflation without an iteration win is pure overhead at this dt
    dcg = fig.series["Deflated CG"]
    assert all(d >= c - 1e-12 for d, c in zip(dcg, cg))

    # CPPCG remains the best at the top end by a clear margin
    ppcg = fig.series["CPPCG - 16"]
    assert ppcg[-1] < 0.5 * min(cg[-1], fused[-1], dcg[-1])
