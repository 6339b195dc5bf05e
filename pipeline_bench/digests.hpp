// Output digests of the pipeline benchmark's workloads. Each workload
// folds the outputs a user would read into one FNV-1a value (the same
// ckpt::Digest the checkpoint layer uses for scenario identity), so two
// runs of one seed — and the traced and untraced runs — can be compared
// with a single integer. Floating-point values are mixed by their bit
// pattern: a one-ulp change is a different digest.
#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/codec.hpp"
#include "src/flowsim/engine.hpp"
#include "src/routing/pair_sweep.hpp"

namespace hypatia::pipeline_bench {

/// Per-flow bits_sent / completion / last_rate_bps (plus the
/// unreachable-epoch count) of a flowsim run, and its all_converged bit.
inline std::uint64_t flowsim_digest(const flowsim::RunSummary& summary) {
    ckpt::Digest d;
    d.mix<std::uint64_t>(summary.flows.size());
    for (const flowsim::FlowOutcome& f : summary.flows) {
        d.mix(f.bits_sent);
        d.mix(f.completion);
        d.mix(f.last_rate_bps);
        d.mix(f.unreachable_epochs);
    }
    d.mix<std::uint64_t>(summary.completed);
    d.mix<std::uint8_t>(summary.all_converged ? 1 : 0);
    return d.value();
}

/// Folds one sweep step (every pair's RTT and node path) into `d`.
inline void mix_sweep_step(ckpt::Digest& d,
                           const std::vector<route::PairSweeper::Sample>& samples) {
    d.mix<std::uint64_t>(samples.size());
    for (const auto& s : samples) {
        d.mix(s.rtt_s);
        d.mix<std::uint64_t>(s.path.size());
        for (const int node : s.path) d.mix(node);
    }
}

/// Per-flow delivered bytes of a packet-level run and its event count.
inline std::uint64_t packet_digest(const std::vector<std::uint64_t>& delivered_bytes,
                                   std::uint64_t events_executed) {
    ckpt::Digest d;
    d.mix<std::uint64_t>(delivered_bytes.size());
    for (const std::uint64_t b : delivered_bytes) d.mix(b);
    d.mix(events_executed);
    return d.value();
}

}  // namespace hypatia::pipeline_bench
