"""Section VI: multi-core cluster scaling and the snoop filter.

Not a numbered figure — the paper claims SMP with cache coherence and
a snoop filter that "effectively reduces the inter-core
communications"; these benches quantify both on the timing model.
"""

from repro.asm import assemble
from repro.smp.timing import run_smp_timing

PARALLEL = """
    .text
_start:
    csrr s0, mhartid
    li t0, 0x100000
    slli t1, s0, 16
    add s1, t0, t1
    li s2, 3000
loop:
    andi t2, s2, 0x7FF
    slli t3, t2, 3
    add t3, s1, t3
    ld t4, 0(t3)
    addi t4, t4, 1
    sd t4, 0(t3)
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""


def test_cluster_scaling(benchmark):
    program = assemble(PARALLEL, compress=True)

    def scale():
        return {cores: run_smp_timing(program, cores=cores)
                for cores in (1, 2, 4)}

    results = benchmark.pedantic(scale, rounds=1, iterations=1)
    single = results[1].makespan
    print("\ncluster scaling (same per-core work):")
    for cores, result in results.items():
        throughput = result.total_instructions / result.makespan
        print(f"  {cores} core(s): makespan {result.makespan:7d} "
              f"aggregate {throughput:5.2f} inst/cycle")
    # Per-core work is constant: the makespan must stay near-flat, so
    # aggregate throughput scales with the core count.
    assert results[4].makespan < single * 1.6
    agg1 = results[1].total_instructions / results[1].makespan
    agg4 = results[4].total_instructions / results[4].makespan
    assert agg4 > agg1 * 2.5


def test_snoop_filter_traffic(benchmark):
    """Snoop filter: probes only go to the cores holding the line.

    The timed cluster's snoop is exact, so its probes are the filtered
    count; a broadcast snoop would probe every sibling on every store."""
    program = assemble(PARALLEL, compress=True)
    result = benchmark.pedantic(lambda: run_smp_timing(program, cores=4),
                                rounds=1, iterations=1)
    print(f"\nsnoops with filter: {result.filtered_probes}, "
          f"broadcast: {result.broadcast_probes}")
    assert result.filtered_probes == 0   # disjoint working sets: no probes
    assert result.broadcast_probes == 3 * 4 * 3000   # 3000 stores a hart
