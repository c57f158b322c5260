"""Micro-benchmarks of the library's substrates.

Not a paper artifact: these time the analysis and simulation building
blocks so regressions in the infrastructure are visible.
"""

from repro.cache import CACHE2, SetAssocCache
from repro.dependence import region_dependences
from repro.exec import Interpreter, simulate
from repro.exec import compile_block_trace
from repro.model import CostModel
from repro.suite import cholesky, matmul, spd_init
from repro.transforms import compound


def test_dependence_analysis_cholesky(benchmark):
    prog = cholesky(24, "KIJ")
    nest = prog.top_loops[0]
    deps = benchmark(lambda: region_dependences(nest, include_inputs=True))
    assert deps


def test_loopcost_matmul(benchmark):
    prog = matmul(32, "IJK")

    def run():
        model = CostModel(cls=4)
        return model.loop_costs(prog.top_loops[0])

    costs = benchmark(run)
    assert len(costs) == 3


def test_compound_cholesky(benchmark):
    def run():
        return compound(cholesky(24, "KIJ"), CostModel(cls=4))

    outcome = benchmark(run)
    assert outcome.distribution_applied == 1


def test_cache_simulator_throughput(benchmark):
    addresses = [(i * 24) % 65536 for i in range(50_000)]

    def run():
        cache = SetAssocCache(CACHE2)
        for addr in addresses:
            cache.access(addr)
        return cache.stats

    stats = benchmark(run)
    assert stats.accesses == 50_000


def test_interpreter_matmul16(benchmark):
    prog = matmul(16, "JKI")
    benchmark(lambda: Interpreter(prog).run())


def test_compiled_trace_matmul32(benchmark):
    prog = matmul(32, "JKI")
    trace = compile_block_trace(prog)

    def run():
        count = 0

        def on_block(block):
            nonlocal count
            count += len(block)

        trace.run(on_block)
        return count

    count = benchmark(run)
    assert count == 32 ** 3 * 4


def test_simulate_end_to_end_matmul32(benchmark):
    prog = matmul(32, "JKI")
    perf = benchmark(lambda: simulate(prog))
    assert perf.accesses == 32 ** 3 * 4
