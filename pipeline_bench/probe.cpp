// Host-speed probe of the pipeline benchmark.
//
//   pipeline_bench_probe --seconds S
//
// Runs beside the workload's processes and samples how fast the host is
// while they run. Each sample times two fixed kernels on one thread and
// prints one line, "<alu_s> <mem_s>":
//   alu: a dependent multiply/xor-shift chain, set by the core clock;
//   mem: a dependent walk over a 16 MiB single-cycle permutation, set by
//        last-level cache and memory latency.
// After each sample it sleeps three times as long as the sample took, so
// it keeps one core busy a quarter of the time. It stops after S seconds
// or when run.py terminates it. It shares no code with the program, so no
// change to the program moves it (see NOTES.md, "Reference speed").
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace {

constexpr long kAluIters = 5'000'000;
constexpr std::size_t kMemEntries = std::size_t{1} << 22;  // 16 MiB of u32
constexpr long kMemHops = 100'000;
constexpr double kIdlePerBusy = 3.0;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 3 || std::strcmp(argv[1], "--seconds") != 0) {
        std::fprintf(stderr, "usage: pipeline_bench_probe --seconds S\n");
        return 2;
    }
    const double seconds = std::atof(argv[2]);
    // next[i] = (a*i + c) mod 2^22 with a = 1 (mod 4) and c odd is one
    // cycle through every entry, in an order no prefetcher follows.
    std::vector<std::uint32_t> next(kMemEntries);
    for (std::size_t i = 0; i < kMemEntries; ++i) {
        next[i] = static_cast<std::uint32_t>((0x9E3779B1u * i + 0x7F4A7C15u) & (kMemEntries - 1));
    }
    const Clock::time_point start = Clock::now();
    std::uint64_t h = 1;
    [[maybe_unused]] volatile std::uint64_t sink = 0;  // keeps both kernels' results live
    while (seconds_since(start) < seconds) {
        const Clock::time_point t0 = Clock::now();
        for (long i = 0; i < kAluIters; ++i) {
            h = h * 6364136223846793005ull + 1442695040888963407ull;
            h ^= h >> 29;
        }
        const double alu_s = seconds_since(t0);
        const Clock::time_point t1 = Clock::now();
        std::uint32_t p = static_cast<std::uint32_t>(h & (kMemEntries - 1));
        for (long i = 0; i < kMemHops; ++i) p = next[p];
        const double mem_s = seconds_since(t1);
        h += p;
        sink = h;
        std::printf("%.9g %.9g\n", alu_s, mem_s);
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::duration<double>(kIdlePerBusy * (alu_s + mem_s)));
    }
    return 0;
}
