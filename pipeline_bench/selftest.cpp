// Self-test of the pipeline benchmark's output digests: equal outputs
// digest equally, and each field the digest claims to cover changes it
// (a one-ulp change included). Exits 1 on the first failed case.
//
//   .bench_build/pipeline_bench/pipeline_bench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pipeline_bench/digests.hpp"

using namespace hypatia;
using pipeline_bench::flowsim_digest;
using pipeline_bench::mix_sweep_step;
using pipeline_bench::packet_digest;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++g_failures;
}

flowsim::RunSummary sample_summary() {
    flowsim::RunSummary s;
    s.flows.resize(3);
    s.flows[0] = {-1, 1.5e9, 2.5e6, 0};
    s.flows[1] = {7 * kNsPerSec, 8e6, 1.0e6, 1};
    s.flows[2] = {-1, 0.0, 0.0, 4};
    s.completed = 1;
    s.all_converged = true;
    return s;
}

std::uint64_t sweep_digest(const std::vector<route::PairSweeper::Sample>& samples) {
    ckpt::Digest d;
    mix_sweep_step(d, samples);
    return d.value();
}

}  // namespace

int main() {
    {
        const flowsim::RunSummary base = sample_summary();
        const std::uint64_t ref = flowsim_digest(base);
        expect(flowsim_digest(sample_summary()) == ref, "flowsim: equal summaries agree");

        flowsim::RunSummary s = sample_summary();
        s.flows[0].bits_sent = std::nextafter(s.flows[0].bits_sent, 0.0);
        expect(flowsim_digest(s) != ref, "flowsim: one-ulp bits_sent change");
        s = sample_summary();
        s.flows[1].completion += 1;
        expect(flowsim_digest(s) != ref, "flowsim: completion change");
        s = sample_summary();
        s.flows[2].last_rate_bps = std::nextafter(0.0, 1.0);
        expect(flowsim_digest(s) != ref, "flowsim: last_rate_bps change");
        s = sample_summary();
        s.all_converged = false;
        expect(flowsim_digest(s) != ref, "flowsim: all_converged change");
        s = sample_summary();
        std::swap(s.flows[0], s.flows[2]);
        expect(flowsim_digest(s) != ref, "flowsim: flow order matters");
        s = sample_summary();
        s.epochs.emplace_back();
        expect(flowsim_digest(s) == ref, "flowsim: per-epoch aggregates are not outputs");
    }
    {
        std::vector<route::PairSweeper::Sample> a(2);
        a[0].rtt_s = 0.042;
        a[0].path = {100, 1, 2, 101};
        a[1].rtt_s = route::kInfDistance;  // unreachable sentinel, empty path
        const std::uint64_t ref = sweep_digest(a);
        expect(sweep_digest(a) == ref, "sweep: equal steps agree");
        auto b = a;
        b[0].rtt_s = std::nextafter(b[0].rtt_s, 1.0);
        expect(sweep_digest(b) != ref, "sweep: one-ulp RTT change");
        b = a;
        b[0].path = {100, 2, 1, 101};
        expect(sweep_digest(b) != ref, "sweep: path change");
        b = a;
        b[0].path = {100, 1};
        b[1].path = {2, 101};
        expect(sweep_digest(b) != ref, "sweep: path boundaries are part of the digest");
    }
    {
        const std::uint64_t ref = packet_digest({1440, 2880, 0}, 12345);
        expect(packet_digest({1440, 2880, 0}, 12345) == ref, "packet: equal runs agree");
        expect(packet_digest({2880, 1440, 0}, 12345) != ref, "packet: per-flow bytes are ordered");
        expect(packet_digest({1440, 2880, 0}, 12346) != ref, "packet: event count change");
        expect(packet_digest({1440, 2880}, 12345) != ref, "packet: flow count change");
    }
    std::printf("%s\n", g_failures == 0 ? "all digest self-tests passed" : "digest self-tests FAILED");
    return g_failures == 0 ? 0 : 1;
}
