"""The paper's full three-step optimization framework, end to end.

§1.1 lays out the strategy:
  1. improve the order of memory accesses (Compound: permutation,
     fusion, distribution — machine-independent, needs only the line
     size);
  2. fully utilize the cache (tiling — needs cache size/associativity);
  3. promote register reuse (unroll-and-jam + scalar replacement —
     needs register counts).

This example drives matrix multiply through all three steps, measuring
cycles, cache misses, and memory references after each, on a two-level
hierarchy with a TLB.

Run:  python examples/full_framework.py
"""

from repro import CostModel, compound, parse_program, pretty_program
from repro.cache import CacheConfig, Hierarchy, tlb_config
from repro.exec import run_trace
from repro.transforms import scalar_replace_program, tile_nest

N = 64
L1 = CacheConfig("L1", size=8 * 1024, assoc=2, line=32)
L2 = CacheConfig("L2", size=64 * 1024, assoc=4, line=128)
PENALTIES = {"L1": 8, "L2": 40}
TLB_PENALTY = 30


def measure(program):
    hierarchy = Hierarchy([L1, L2], tlb=tlb_config(entries=16, page=4096))
    count = [0]

    def on_block(block):
        count[0] += len(block)
        hierarchy.access_block(block.addresses, block.sizes)

    ops = run_trace(program, on_block)
    result = hierarchy.result
    cycles = ops + count[0] + result.memory_cycles(PENALTIES, TLB_PENALTY)
    return cycles, result, count[0]


def report(stage, program):
    cycles, result, accesses = measure(program)
    l1 = result.levels["L1"]
    l2 = result.levels["L2"]
    print(
        f"{stage:<34} cycles={cycles:>9}  refs={accesses:>7}  "
        f"L1 miss={l1.misses:>6}  L2 miss={l2.misses:>6}  "
        f"TLB miss={result.tlb.misses:>4}"
    )
    return cycles


def main() -> None:
    source = f"""
    PROGRAM mm
    REAL A({N},{N}), B({N},{N}), C({N},{N})
    DO I = 1, {N}
      DO J = 1, {N}
        DO K = 1, {N}
          C(I,J) = C(I,J) + A(I,K)*B(K,J)
        ENDDO
      ENDDO
    ENDDO
    END
    """
    original = parse_program(source)
    print(f"matrix multiply, N={N}, two-level hierarchy + TLB\n")
    base = report("0. original (IJK)", original)

    # Step 1: memory order via Compound.
    step1 = compound(original, CostModel(cls=4)).program
    report("1. memory order (Compound -> JKI)", step1)

    # Step 2: tiling for the cache.
    tiled = tile_nest(step1.top_loops[0], {"J": 16, "K": 16}).loop
    step2 = step1.with_body((tiled,))
    report("2. + tiling (16x16)", step2)

    # Step 3: register reuse — scalar-replace the references that are
    # invariant in the innermost loop (see repro.transforms.unroll_jam
    # for the companion unroll-and-jam transformation).
    step3 = scalar_replace_program(step2).program
    cycles = report("3. + scalar replacement", step3)

    print(f"\ntotal improvement: {base / cycles:.2f}x")
    print("\nfinal inner nest:")
    text = pretty_program(step3)
    inner_start = text.index("DO J_T")
    print(text[inner_start : inner_start + 400])


if __name__ == "__main__":
    main()
