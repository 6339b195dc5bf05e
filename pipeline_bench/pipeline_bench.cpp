// The pipeline benchmark's measuring process: runs one workload in
// fixed-size episodes until --seconds of wall time are spent and writes
// every episode's raw timings, output digest and check counts as JSON
// to --out. run.py builds this binary, runs it in a few processes one
// after another for each workload run, pools their episodes and turns
// them into the reported metrics (see NOTES.md).
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --lanes L --work-dir DIR --out FILE
//
// An episode is one fresh instance of the workload: construction, the
// first epoch (lazy graph and cache build; reported as set-up) and a
// fixed number of timed steps. Episodes of one seed have identical
// outputs, so their digests must agree.
//
// Untraced episodes ("plain") run with the profiler off. With --trace 1
// the process alternates plain and traced episodes; traced ones switch
// the profiler on and attribute time to layers from the program's
// existing profiler phases and metrics counters (read only), and the
// gen2 sweep drives the layer calls itself (ShellGroup::warm_caches,
// SnapshotRefresher::refresh, compute_forwarding_into, extract_path).
// flowsim_churn_ckpt adds episodes with checkpointing disabled
// ("ckpt_off"): the checkpoint layer's cost is the difference.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pipeline_bench/digests.hpp"
#include "src/core/experiment.hpp"
#include "src/core/leo_network.hpp"
#include "src/flowsim/engine.hpp"
#include "src/flowsim/solver.hpp"
#include "src/obs/observability.hpp"
#include "src/orbit/coords.hpp"
#include "src/routing/forwarding.hpp"
#include "src/routing/pair_sweep.hpp"
#include "src/routing/shortest_path.hpp"
#include "src/routing/snapshot_refresh.hpp"
#include "src/topology/cities.hpp"
#include "src/topology/constellation.hpp"
#include "src/topology/shell_group.hpp"
#include "src/util/cli.hpp"
#include "src/util/thread_pool.hpp"

using namespace hypatia;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload sizes -------------------------------------------------------
// Steps per episode are fixed so every episode of a seed does the same
// work (and digests equal); an episode lasts ~2-3 s on a 4-core x86 box
// at 2 lanes. Shorter episodes give each step more repeats in a run.
constexpr int kNumGs = 100;
constexpr std::size_t kSteadyFlows = 100'000;
constexpr int kSteadyEpochs = 40;            // 1 s epochs
constexpr double kChurnArrivalsPerS = 500.0;
constexpr double kChurnMeanBits = 1e6;
constexpr TimeNs kChurnWindow = 200 * kNsPerSec;
constexpr int kChurnEpochs = 50;             // 1 s epochs
constexpr int kSweepPairs = 12;
constexpr int kSweepSteps = 40;              // 100 ms epochs
constexpr int kPacketIntervals = 40;         // 100 ms fstate intervals
constexpr double kPacketLineRateBps = 10e6;  // Fig 2 line rate
constexpr std::size_t kSetupsPerRound = 5;

enum class Mode { kPlain, kTraced, kCkptOff, kSetup };

const char* mode_name(Mode m) {
    switch (m) {
        case Mode::kPlain: return "plain";
        case Mode::kTraced: return "traced";
        case Mode::kCkptOff: return "ckpt_off";
        case Mode::kSetup: return "setup";
    }
    return "?";
}

struct Episode {
    Mode mode = Mode::kPlain;
    double setup_s = 0.0;
    std::vector<double> step_s;   // wall time of each timed step
    double wall_s = 0.0;          // whole episode, construction included
    std::uint64_t digest = 0;
    std::uint64_t checks_attempted = 0;
    std::uint64_t checks_failed = 0;
    std::vector<std::pair<std::string, double>> layers;  // traced only
};

/// Marks the episode's steps checked; a failed whole-episode check
/// (digest-level invariants) fails every step.
void count_checks(Episode& ep, std::uint64_t steps, std::uint64_t failed_steps,
                  bool episode_ok) {
    ep.checks_attempted = steps;
    ep.checks_failed = episode_ok ? failed_steps : steps;
}

// --- obs snapshots (read only) ---------------------------------------------

struct ObsSnapshot {
    std::map<std::string, obs::Profiler::PhaseStats, std::less<>> phases;
    std::map<std::string, std::uint64_t> counters;
};

ObsSnapshot snapshot_obs() {
    ObsSnapshot s;
    s.phases = obs::profiler().snapshot();
    for (const auto& [name, c] : obs::metrics().counters()) s.counters[name] = c.value();
    return s;
}

struct ObsDelta {
    ObsSnapshot before, after;

    double self_s(const char* phase) const { return ns(phase, true); }
    double total_s(const char* phase) const { return ns(phase, false); }
    double count(const char* name) const {
        const auto get = [&](const ObsSnapshot& s) -> std::uint64_t {
            const auto it = s.counters.find(name);
            return it == s.counters.end() ? 0 : it->second;
        };
        return static_cast<double>(get(after) - get(before));
    }

  private:
    double ns(const char* phase, bool self) const {
        const auto get = [&](const ObsSnapshot& s) -> std::uint64_t {
            const auto it = s.phases.find(std::string_view(phase));
            if (it == s.phases.end()) return 0;
            return self ? it->second.self_ns : it->second.total_ns;
        };
        return static_cast<double>(get(after) - get(before)) * 1e-9;
    }
};

double queue_peak_gauge() {
    const auto& gauges = obs::metrics().gauges();
    const auto it = gauges.find("sim.event_queue_peak");
    return it == gauges.end() ? 0.0 : it->second.value();
}

/// The layer metrics every traced episode reports (zero where a layer
/// does no work on that workload), in NOTES.md's order.
const std::vector<std::string>& layer_names() {
    static const std::vector<std::string> names = {
        "mobility.self_s",        "mobility.sgp4_fills",
        "snapshot.self_s",        "snapshot.gsl_rows_patched",
        "forwarding.wall_s",      "forwarding.thread_s",
        "forwarding.dijkstra_runs", "forwarding.dijkstra_pops",
        "fstate_install.self_s",  "route.fstate_installs",
        "flowsim.paths.self_s",   "flowsim.paths.hops",
        "flowsim.solve.self_s",   "flowsim.solver_runs",
        "flowsim.solver_rounds",  "flowsim.advance.self_s",
        "flowsim.flows_completed", "sim.event_loop.self_s",  "sim.events_executed",
        "sim.event_queue_peak",   "tcp.retransmissions",
        "attributed_s",
    };
    return names;
}

void set_layers(Episode& ep, std::map<std::string, double> values) {
    ep.layers.clear();
    for (const std::string& name : layer_names()) {
        const auto it = values.find(name);
        ep.layers.emplace_back(name, it == values.end() ? 0.0 : it->second);
    }
}

/// Counters and phases every workload shares (routing and mobility).
std::map<std::string, double> common_layers(const ObsDelta& d) {
    return {
        {"mobility.self_s", d.self_s("propagation.sgp4")},
        {"mobility.sgp4_fills", d.count("propagation.sgp4_cache_fills")},
        {"snapshot.self_s", d.self_s("routing.snapshot_refresh")},
        {"snapshot.gsl_rows_patched", d.count("route.gsl_rows_patched")},
        {"forwarding.thread_s", d.total_s("routing.dijkstra")},
        {"forwarding.dijkstra_runs", d.count("route.dijkstra_runs")},
        {"forwarding.dijkstra_pops", d.count("route.dijkstra_pops")},
        {"fstate_install.self_s", d.self_s("routing.fstate_install")},
        {"route.fstate_installs", d.count("route.fstate_installs")},
    };
}

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    std::string work_dir;
};

unsigned seed32(std::uint64_t seed) {
    return static_cast<unsigned>(seed ^ (seed >> 32));
}

// --- flowsim workloads ------------------------------------------------------

struct FlowsimInput {
    core::Scenario scenario;
    flowsim::TrafficMatrix matrix;
    int epochs = 0;
    bool churn = false;
};

FlowsimInput make_flowsim_input(const Config& cfg) {
    FlowsimInput in;
    in.scenario = core::Scenario::paper_default("starlink_s1");
    in.churn = cfg.workload == "flowsim_churn_ckpt";
    if (in.churn) {
        flowsim::PoissonTrafficConfig t;
        t.num_gs = kNumGs;
        t.arrivals_per_s = kChurnArrivalsPerS;
        t.mean_size_bits = kChurnMeanBits;
        t.window = kChurnWindow;
        t.seed = seed32(cfg.seed);
        in.matrix = flowsim::poisson_traffic(t);
        in.epochs = kChurnEpochs;
    } else {
        flowsim::GravityTrafficConfig t;
        t.num_gs = kNumGs;
        t.num_flows = kSteadyFlows;
        t.seed = seed32(cfg.seed);
        in.matrix = flowsim::gravity_traffic(t);
        in.epochs = kSteadyEpochs;
    }
    return in;
}

/// The flowsim max-min problem rebuilt from the public layer calls at
/// time `t`: refresh, per-destination trees, extract_path per active
/// flow, resources numbered as the engine numbers them (one per ISL
/// direction, then one shared GSL device per node).
struct Replay {
    flowsim::FairShareProblem problem;
    std::vector<std::uint32_t> flow_of_row;
    double hops = 0.0;
    flowsim::FairShareResult result;
};

Replay replay_epoch(const flowsim::Engine& engine, TimeNs t,
                    const std::vector<std::uint32_t>& active) {
    const core::Scenario& sc = engine.scenario();
    const auto& isls = engine.isls();
    const int num_sats = engine.num_satellites();
    route::SnapshotOptions opts;
    opts.include_isls = sc.isl_pattern != topo::IslPattern::kNone;
    opts.relay_gs_indices = sc.relay_gs_indices;
    opts.gs_nearest_satellite_only = sc.gs_nearest_satellite_only;
    route::SnapshotRefresher refresher(engine.mobility(), isls, sc.ground_stations, opts);
    const route::Graph& graph = refresher.refresh(engine.orbit_time(t));

    std::vector<int> dst_nodes;
    for (const std::uint32_t f : active) {
        dst_nodes.push_back(engine.gs_node(engine.matrix().flows[f].dst_gs));
    }
    std::sort(dst_nodes.begin(), dst_nodes.end());
    dst_nodes.erase(std::unique(dst_nodes.begin(), dst_nodes.end()), dst_nodes.end());
    route::ForwardingState state;
    route::compute_forwarding_into(graph, dst_nodes, state);

    std::map<std::pair<int, int>, std::uint32_t> isl_resource;
    for (std::size_t i = 0; i < isls.size(); ++i) {
        isl_resource[{isls[i].sat_a, isls[i].sat_b}] = static_cast<std::uint32_t>(2 * i);
        isl_resource[{isls[i].sat_b, isls[i].sat_a}] = static_cast<std::uint32_t>(2 * i + 1);
    }
    const auto gsl_base = static_cast<std::uint32_t>(2 * isls.size());
    const auto num_nodes =
        static_cast<std::uint32_t>(num_sats) + static_cast<std::uint32_t>(sc.ground_stations.size());

    Replay r;
    r.problem.capacity_bps.assign(gsl_base + num_nodes, sc.gsl_rate_bps);
    std::fill(r.problem.capacity_bps.begin(), r.problem.capacity_bps.begin() + gsl_base,
              sc.isl_rate_bps);
    std::vector<std::uint32_t> links;
    for (const std::uint32_t f : active) {
        const flowsim::Flow& flow = engine.matrix().flows[f];
        const route::DestinationTree* tree = state.tree(engine.gs_node(flow.dst_gs));
        if (tree == nullptr) continue;
        const std::vector<int> path = route::extract_path(*tree, engine.gs_node(flow.src_gs));
        if (path.size() < 2) continue;
        links.clear();
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
            const int from = path[h], to = path[h + 1];
            const auto it = from < num_sats && to < num_sats
                                ? isl_resource.find({from, to})
                                : isl_resource.end();
            links.push_back(it != isl_resource.end() ? it->second
                                                     : gsl_base + static_cast<std::uint32_t>(from));
        }
        r.hops += static_cast<double>(links.size());
        r.problem.add_flow(links, flow.rate_cap_bps);
        r.flow_of_row.push_back(f);
    }
    r.result = flowsim::solve_max_min(r.problem);
    return r;
}

Episode run_flowsim(const Config& cfg, const FlowsimInput& in, Mode mode) {
    Episode ep;
    ep.mode = mode;
    const bool traced = mode == Mode::kTraced;
    obs::profiler().set_enabled(traced);
    const std::string ckpt_dir = cfg.work_dir + "/ckpt";

    flowsim::EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = static_cast<TimeNs>(in.epochs) * kNsPerSec;
    if (in.churn && mode != Mode::kCkptOff) {
        ckpt::Policy policy;  // the default interval/keep, into our own directory
        policy.dir = ckpt_dir;
        opts.checkpoint = policy;
    } else {
        opts.checkpoint = ckpt::Policy::disabled();
    }
    ObsDelta d;
    d.before = snapshot_obs();
    Clock::time_point last;
    const Clock::time_point t0 = Clock::now();
    opts.epoch_hook = [&](std::size_t bi, TimeNs) {
        const Clock::time_point now = Clock::now();
        if (bi == 0) {
            ep.setup_s = std::chrono::duration<double>(now - t0).count();
        } else {
            ep.step_s.push_back(std::chrono::duration<double>(now - last).count());
        }
        last = now;
        return mode != Mode::kSetup;
    };

    flowsim::Engine engine(in.scenario, in.matrix, opts);
    const flowsim::RunSummary summary = engine.run();
    ep.wall_s = since(t0);
    d.after = snapshot_obs();
    std::filesystem::remove_all(ckpt_dir);
    if (mode == Mode::kSetup) return ep;

    // Checks: every epoch converged and stays under the GSL bound (each
    // flow leaves through its source station's shared GSL device).
    const double rate_bound =
        kNumGs * in.scenario.gsl_rate_bps * (1.0 + 1e-9);
    std::uint64_t failed = 0;
    for (std::size_t e = 0; e < summary.epochs.size(); ++e) {
        const flowsim::EpochStats& s = summary.epochs[e];
        bool ok = s.converged && std::isfinite(s.sum_rate_bps) &&
                  (s.sum_rate_bps > 0.0) == (s.active > s.unreachable) &&
                  s.sum_rate_bps <= rate_bound && s.unreachable <= s.active;
        if (!in.churn) {
            ok = ok && s.completions == 0 && s.arrivals == (e == 0 ? kSteadyFlows : 0);
        }
        failed += ok ? 0 : 1;
    }
    bool episode_ok = summary.all_converged &&
                      summary.epochs.size() == static_cast<std::size_t>(in.epochs);
    for (std::size_t f = 0; f < summary.flows.size() && episode_ok; ++f) {
        const flowsim::FlowOutcome& o = summary.flows[f];
        const flowsim::Flow& flow = engine.matrix().flows[f];
        episode_ok = std::isfinite(o.bits_sent) && o.bits_sent >= 0.0 &&
                     o.last_rate_bps >= 0.0 &&
                     (o.completion < 0 ||
                      (o.completion >= flow.arrival &&
                       std::abs(o.bits_sent - flow.size_bits) <= 1e-6 * flow.size_bits)) &&
                     (flow.size_bits == flowsim::kUnboundedSize
                          ? o.completion < 0
                          : o.bits_sent <= flow.size_bits * (1.0 + 1e-9));
    }
    ep.digest = pipeline_bench::flowsim_digest(summary);

    if (traced) {
        // Rebuild the last epoch from the layer calls: counts the path
        // hops, and — with every steady flow unbounded and active —
        // must reproduce the engine's final rates bit for bit.
        const TimeNs t_last = static_cast<TimeNs>(in.epochs - 1) * kNsPerSec;
        std::vector<std::uint32_t> active;
        for (std::uint32_t f = 0; f < summary.flows.size(); ++f) {
            const flowsim::Flow& flow = engine.matrix().flows[f];
            const TimeNs done_at = summary.flows[f].completion;
            if (flow.arrival <= t_last && (done_at < 0 || done_at > t_last)) active.push_back(f);
        }
        obs::profiler().set_enabled(false);
        const Replay replay = replay_epoch(engine, t_last, active);
        if (!in.churn) {
            for (std::size_t row = 0; row < replay.flow_of_row.size(); ++row) {
                if (replay.result.rate_bps[row] !=
                    summary.flows[replay.flow_of_row[row]].last_rate_bps) {
                    episode_ok = false;
                }
            }
            episode_ok = episode_ok && replay.result.converged &&
                         flowsim::allocation_feasible(replay.problem, replay.result.rate_bps);
        }
        std::map<std::string, double> v = common_layers(d);
        v["forwarding.wall_s"] = d.total_s("flowsim.forwarding");
        v["flowsim.paths.self_s"] = d.self_s("flowsim.paths");
        v["flowsim.paths.hops"] = replay.hops;
        v["flowsim.solve.self_s"] = d.self_s("flowsim.solve");
        v["flowsim.solver_runs"] = d.count("flowsim.solver_runs");
        v["flowsim.solver_rounds"] = d.count("flowsim.solver_rounds");
        v["flowsim.advance.self_s"] = d.self_s("flowsim.advance");
        v["flowsim.flows_completed"] = d.count("flowsim.flows_completed");
        v["attributed_s"] = d.total_s("flowsim.snapshot") + d.total_s("flowsim.forwarding") +
                            d.total_s("flowsim.paths") + d.total_s("flowsim.solve") +
                            d.total_s("flowsim.advance");
        set_layers(ep, std::move(v));
    }
    count_checks(ep, summary.epochs.size(), failed, episode_ok);
    return ep;
}

/// Size of one checkpoint image of the churn workload: a short run at
/// interval 0 (a durable write every epoch) read back from the
/// ckpt.bytes_written / ckpt.generations_written counters.
double churn_image_bytes(const Config& cfg, const FlowsimInput& in) {
    obs::profiler().set_enabled(false);
    const std::string dir = cfg.work_dir + "/ckpt_image";
    flowsim::EngineOptions opts;
    opts.epoch = kNsPerSec;
    opts.duration = static_cast<TimeNs>(in.epochs) * kNsPerSec;
    ckpt::Policy policy;
    policy.dir = dir;
    policy.interval_s = 0.0;
    opts.checkpoint = policy;
    opts.epoch_hook = [](std::size_t bi, TimeNs) { return bi < 3; };
    ObsDelta d;
    d.before = snapshot_obs();
    flowsim::Engine(in.scenario, in.matrix, opts).run();
    d.after = snapshot_obs();
    std::filesystem::remove_all(dir);
    const double gens = d.count("ckpt.generations_written");
    return gens > 0 ? d.count("ckpt.bytes_written") / gens : 0.0;
}

// --- gen2 sweep -------------------------------------------------------------

struct SweepInput {
    std::vector<orbit::GroundStation> cities = topo::top100_cities();
    std::vector<route::GsPair> pairs;
};

SweepInput make_sweep_input(const Config& cfg) {
    SweepInput in;
    // Distinct destinations: every seed computes the same number of
    // destination trees, so seeds differ in which pairs, not how much work.
    std::vector<int> gs(kNumGs);
    std::iota(gs.begin(), gs.end(), 0);
    std::mt19937_64 rng(cfg.seed);
    std::shuffle(gs.begin(), gs.end(), rng);
    for (int i = 0; i < kSweepPairs; ++i) {
        in.pairs.push_back({gs[static_cast<std::size_t>(i)],
                            gs[static_cast<std::size_t>(i + kSweepPairs)]});
    }
    return in;
}

/// True when the sample is a GS-to-GS path through satellites whose
/// summed hop lengths (recomputed from the node positions) give its RTT.
bool sample_ok(const route::PairSweeper::Sample& s, const route::GsPair& pair,
               const topo::ShellGroup& group,
               const std::vector<orbit::GroundStation>& cities, TimeNs t) {
    const int num_sats = group.num_satellites();
    if (!s.reachable() || s.path.size() < 3) return false;
    if (s.path.front() != num_sats + pair.src_gs || s.path.back() != num_sats + pair.dst_gs) {
        return false;
    }
    const auto pos = [&](int node) -> Vec3 {
        return node < num_sats ? group.position_ecef(node, t)
                               : cities[static_cast<std::size_t>(node - num_sats)].ecef();
    };
    double km = 0.0;
    for (std::size_t i = 0; i + 1 < s.path.size(); ++i) {
        if (i > 0 && s.path[i] >= num_sats) return false;
        km += pos(s.path[i]).distance_to(pos(s.path[i + 1]));
    }
    const double rtt = 2.0 * km / orbit::kSpeedOfLightKmPerS;
    return std::abs(rtt - s.rtt_s) <= 1e-9 * s.rtt_s;
}

Episode run_sweep(const SweepInput& in, Mode mode) {
    Episode ep;
    ep.mode = mode;
    const bool traced = mode == Mode::kTraced;
    obs::profiler().set_enabled(traced);
    route::SweepOptions opts;
    opts.dest_cluster_km = 0.0;  // exact per-destination trees
    constexpr TimeNs kStep = 100 * kNsPerMs;

    ObsDelta d;
    d.before = snapshot_obs();
    const Clock::time_point t0 = Clock::now();
    const topo::ShellGroup group(topo::constellation_shells("starlink_gen2"),
                                 topo::default_epoch());

    // Plain episodes step the public PairSweeper; traced ones make the
    // same per-step layer calls themselves and time each.
    std::optional<route::PairSweeper> sweeper;
    std::optional<route::SnapshotRefresher> refresher;
    route::ForwardingState fstate;
    std::vector<int> dst_nodes;
    std::vector<route::PairSweeper::Sample> samples(in.pairs.size());
    double mobility_s = 0.0, snapshot_s = 0.0, forwarding_s = 0.0, paths_s = 0.0;
    if (traced) {
        route::SnapshotOptions sopts;
        refresher.emplace(group, in.cities, sopts);
        for (const auto& p : in.pairs) dst_nodes.push_back(group.num_satellites() + p.dst_gs);
        std::sort(dst_nodes.begin(), dst_nodes.end());
        dst_nodes.erase(std::unique(dst_nodes.begin(), dst_nodes.end()), dst_nodes.end());
    } else {
        sweeper.emplace(group, in.cities, in.pairs, opts);
    }
    const auto step = [&](TimeNs t) -> const std::vector<route::PairSweeper::Sample>& {
        if (!traced) return sweeper->step(t);
        Clock::time_point a = Clock::now();
        const auto lap = [&](double& acc) {
            const Clock::time_point b = Clock::now();
            acc += std::chrono::duration<double>(b - a).count();
            a = b;
        };
        group.warm_caches(t);
        lap(mobility_s);
        const route::Graph& graph = refresher->refresh(t);
        lap(snapshot_s);
        route::compute_forwarding_into(graph, dst_nodes, fstate);
        lap(forwarding_s);
        for (std::size_t i = 0; i < in.pairs.size(); ++i) {
            const int src_node = group.num_satellites() + in.pairs[i].src_gs;
            const int dst_node = group.num_satellites() + in.pairs[i].dst_gs;
            const double km = fstate.distance_km(src_node, dst_node);
            samples[i].rtt_s =
                km == route::kInfDistance ? km : 2.0 * km / orbit::kSpeedOfLightKmPerS;
            samples[i].path = km == route::kInfDistance
                                  ? std::vector<int>{}
                                  : route::extract_path(*fstate.tree(dst_node), src_node);
        }
        lap(paths_s);
        return samples;
    };

    ckpt::Digest digest;
    std::uint64_t failed = 0;
    const int steps = mode == Mode::kSetup ? 1 : kSweepSteps;
    for (int k = 0; k < steps; ++k) {
        const TimeNs t = k * kStep;
        const Clock::time_point s0 = Clock::now();
        const auto& out = step(t);
        const double dt = since(s0);
        if (k == 0) {
            ep.setup_s = since(t0);
        } else {
            ep.step_s.push_back(dt);
        }
        pipeline_bench::mix_sweep_step(digest, out);
        bool ok = true;
        for (std::size_t i = 0; i < out.size(); ++i) {
            ok = ok && sample_ok(out[i], in.pairs[i], group, in.cities, t);
        }
        failed += ok ? 0 : 1;
    }
    ep.wall_s = since(t0);
    d.after = snapshot_obs();
    ep.digest = digest.value();
    if (mode == Mode::kSetup) return ep;
    count_checks(ep, kSweepSteps, failed, true);
    if (traced) {
        std::map<std::string, double> v = common_layers(d);
        v["mobility.self_s"] = mobility_s;
        v["snapshot.self_s"] = snapshot_s;
        v["forwarding.wall_s"] = forwarding_s;
        v["attributed_s"] = mobility_s + snapshot_s + forwarding_s + paths_s;
        set_layers(ep, std::move(v));
    }
    return ep;
}

// --- packet-level TCP (Fig 2) -----------------------------------------------

Episode run_packet(const Config& cfg, Mode mode) {
    Episode ep;
    ep.mode = mode;
    const bool traced = mode == Mode::kTraced;
    obs::profiler().set_enabled(traced);
    core::Scenario scenario = core::Scenario::paper_default("kuiper_k1");
    scenario.isl_rate_bps = kPacketLineRateBps;
    scenario.gsl_rate_bps = kPacketLineRateBps;
    const auto pairs = route::random_permutation_pairs(kNumGs, seed32(cfg.seed));
    const TimeNs interval = scenario.fstate_interval;
    const TimeNs duration = mode == Mode::kSetup ? 0 : kPacketIntervals * interval;

    if (traced) obs::metrics().gauge("sim.event_queue_peak").reset();
    ObsDelta d;
    d.before = snapshot_obs();
    const Clock::time_point t0 = Clock::now();
    core::LeoNetwork leo(scenario);
    const auto flows = core::attach_tcp_flows(leo, pairs, "newreno", {}, 1 * kNsPerMs);

    // Per-interval checks: the event loop made progress, and no flow's
    // delivered bytes went backwards or beat its line rate.
    std::vector<std::uint64_t> delivered(flows.size(), 0);
    std::uint64_t events_seen = 0;
    std::uint64_t failed = 0;
    std::size_t hooks = 0;
    Clock::time_point last;
    leo.on_fstate_update = [&](TimeNs now_ns) {
        const Clock::time_point now = Clock::now();
        if (hooks == 0) {
            ep.setup_s = std::chrono::duration<double>(now - t0).count();
        } else {
            ep.step_s.push_back(std::chrono::duration<double>(now - last).count());
            bool ok = leo.simulator().events_executed() > events_seen;
            const double bound_bytes = kPacketLineRateBps / 8.0 * ns_to_seconds(now_ns);
            for (std::size_t i = 0; i < flows.size(); ++i) {
                const std::uint64_t b = flows[i]->delivered_bytes();
                ok = ok && b >= delivered[i] && static_cast<double>(b) <= bound_bytes;
                delivered[i] = b;
            }
            failed += ok ? 0 : 1;
        }
        events_seen = leo.simulator().events_executed();
        last = now;
        ++hooks;
    };
    leo.run(duration);
    ep.wall_s = since(t0);
    d.after = snapshot_obs();

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
        delivered[i] = flows[i]->delivered_bytes();
        total += delivered[i];
    }
    ep.digest = pipeline_bench::packet_digest(delivered, leo.simulator().events_executed());
    if (mode == Mode::kSetup) return ep;
    const bool episode_ok = total > 0 && ep.step_s.size() == kPacketIntervals;
    count_checks(ep, ep.step_s.size(), failed, episode_ok);
    if (traced) {
        std::map<std::string, double> v = common_layers(d);
        v["forwarding.wall_s"] = d.total_s("routing.dijkstra");
        v["sim.event_loop.self_s"] = d.self_s("sim.event_loop");
        v["sim.events_executed"] = d.count("sim.events_executed");
        v["sim.event_queue_peak"] = queue_peak_gauge();
        v["tcp.retransmissions"] = d.count("tcp.retransmissions");
        v["attributed_s"] = d.total_s("sim.event_loop");
        set_layers(ep, std::move(v));
    }
    return ep;
}

// --- output -----------------------------------------------------------------

/// The instruction-set extensions the SGP4 and routing kernels can use.
std::string isa() {
#if defined(__x86_64__)
    std::string s = "x86_64";
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) s += "+avx2";
    if (__builtin_cpu_supports("fma")) s += "+fma";
    if (__builtin_cpu_supports("avx512f")) s += "+avx512f";
    return s;
#elif defined(__aarch64__)
    return "aarch64";
#else
    return "other";
#endif
}

void write_json(const std::string& path, const Config& cfg, std::size_t lanes,
                double step_virtual_s, const std::vector<Episode>& episodes,
                double image_bytes) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"lanes\": %zu, \"isa\": \"%s\", "
                 "\"step_virtual_s\": %.17g, "
                 "\"peak_rss_mb\": %.17g, \"ckpt_image_bytes\": %.17g, \"episodes\": [",
                 cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), lanes,
                 isa().c_str(), step_virtual_s,
                 static_cast<double>(ru.ru_maxrss) / 1024.0, image_bytes);
    for (std::size_t i = 0; i < episodes.size(); ++i) {
        const Episode& e = episodes[i];
        std::fprintf(f,
                     "%s\n  {\"mode\": \"%s\", \"setup_s\": %.17g, \"wall_s\": %.17g, "
                     "\"digest\": \"%016llx\", \"checks_attempted\": %llu, "
                     "\"checks_failed\": %llu, \"step_s\": [",
                     i == 0 ? "" : ",", mode_name(e.mode), e.setup_s, e.wall_s,
                     static_cast<unsigned long long>(e.digest),
                     static_cast<unsigned long long>(e.checks_attempted),
                     static_cast<unsigned long long>(e.checks_failed));
        for (std::size_t s = 0; s < e.step_s.size(); ++s) {
            std::fprintf(f, "%s%.9g", s == 0 ? "" : ", ", e.step_s[s]);
        }
        std::fprintf(f, "], \"layers\": {");
        for (std::size_t l = 0; l < e.layers.size(); ++l) {
            std::fprintf(f, "%s\"%s\": %.17g", l == 0 ? "" : ", ",
                         e.layers[l].first.c_str(), e.layers[l].second);
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    cli.describe("workload", "flowsim_steady | flowsim_churn_ckpt | gen2_sweep | packet_tcp");
    cli.describe("seed", "input seed (traffic matrix, permutation or pair choice)");
    cli.describe("seconds", "wall seconds for the process, inputs included (at least one round)");
    cli.describe("trace", "1: alternate plain and traced episodes");
    cli.describe("lanes", "thread-pool lanes");
    cli.describe("work-dir", "directory for the checkpoint workload's files");
    cli.describe("out", "JSON file receiving the raw episodes");
    Config cfg;
    cfg.workload = cli.get_string("workload", "");
    cfg.seed = std::stoull(cli.get_string("seed", "1"));
    cfg.work_dir = cli.get_string("work-dir", "pipeline_bench_work");
    const double seconds = cli.get_double("seconds", 10.0);
    const bool trace = cli.get_long("trace", 0) != 0;
    const long lanes = cli.get_long("lanes", 1);
    const std::string out = cli.get_string("out", "");
    cli.finish("pipeline_bench", "Runs one pipeline-benchmark workload.");
    if (out.empty() || lanes < 1) {
        std::fprintf(stderr, "pipeline_bench: --out and --lanes >= 1 are required\n");
        return 2;
    }
    // --seconds counts from here, so making the inputs is inside it.
    const Clock::time_point start = Clock::now();
    util::ThreadPool::set_global_threads(static_cast<std::size_t>(lanes));
    std::filesystem::create_directories(cfg.work_dir);

    // Inputs come from the seed alone and are made before any timing.
    std::function<Episode(Mode)> episode;
    std::optional<FlowsimInput> flow_in;
    std::optional<SweepInput> sweep_in;
    double step_virtual_s = 0.0;
    if (cfg.workload == "flowsim_steady" || cfg.workload == "flowsim_churn_ckpt") {
        flow_in = make_flowsim_input(cfg);
        episode = [&](Mode m) { return run_flowsim(cfg, *flow_in, m); };
        step_virtual_s = 1.0;
    } else if (cfg.workload == "gen2_sweep") {
        sweep_in = make_sweep_input(cfg);
        episode = [&](Mode m) { return run_sweep(*sweep_in, m); };
        step_virtual_s = 0.1;
    } else if (cfg.workload == "packet_tcp") {
        episode = [&](Mode m) { return run_packet(cfg, m); };
        step_virtual_s = 0.1;
    } else {
        std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n", cfg.workload.c_str());
        return 2;
    }

    // One round = one episode of each mode the run needs. Rounds repeat
    // while the next one is expected to end within half a round of
    // --seconds; at least one runs. Untraced rounds add set-up-only
    // episodes (construction plus first epoch), so set-up time is a
    // median over many samples.
    std::vector<Mode> round = {Mode::kPlain};
    if (trace) {
        round.push_back(Mode::kTraced);
        if (flow_in.has_value() && flow_in->churn) round.push_back(Mode::kCkptOff);
    } else {
        round.insert(round.end(), kSetupsPerRound, Mode::kSetup);
    }
    std::vector<Episode> episodes;
    const Clock::time_point rounds_start = Clock::now();
    for (std::size_t r = 0;; ++r) {
        if (r > 0) {
            const double round_s = since(rounds_start) / static_cast<double>(r);
            if (since(start) + 0.5 * round_s > seconds) break;
        }
        for (const Mode m : round) episodes.push_back(episode(m));
    }
    double image_bytes = 0.0;
    if (trace && flow_in.has_value() && flow_in->churn) {
        image_bytes = churn_image_bytes(cfg, *flow_in);
    }
    write_json(out, cfg, static_cast<std::size_t>(lanes), step_virtual_s, episodes, image_bytes);
    return 0;
}
