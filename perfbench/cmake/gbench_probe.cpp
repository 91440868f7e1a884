// Configure-time probe: run once by perfbench/CMakeLists.txt so the build
// record can name the build type of the installed google-benchmark library
// (its JSON context reports "library_build_type").
#include <benchmark/benchmark.h>

static void noop(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(state.iterations());
}
BENCHMARK(noop);
BENCHMARK_MAIN();
