"""ofar_lint: determinism and phase-discipline analyzer for the simulator.

The simulator must stay a pure function of (config, seed); this is the one
static check that guards that property. It reads the annotation vocabulary
of src/common/phase.hpp (OFAR_PARALLEL_PHASE, OFAR_SERIAL_ONLY,
OFAR_SHARD_LOCAL, OFAR_LANE_RNG) and checks the contracts of DESIGN.md §8
and §10:

  * from every parallel-phase root it walks the call graph and rejects
    serial-only calls and writes, unowned writes, off-lane RNG draws and
    unstaged trace emission;
  * in every function it rejects iteration over unordered containers
    (through typedefs and auto);
  * over every token of every file it rejects C library RNGs,
    std::random_device, wall-clock reads (aliased clocks included),
    unordered container types, raw threads and direct trace emission.

The frontend is a dependency-free C++ tokenizer and parser
(ofar_lint.lexer, ofar_lint.frontend_builtin). `// lint: allow(<rule>)` on
a line waives that rule there; --stale-waivers reports waivers that no
longer suppress anything.

Run:  python3 -m ofar_lint [--root REPO] [--list-waivers | --stale-waivers]
"""

__version__ = "1.0"
