// The repository benchmark: three fixed, closed-loop workloads driven through
// the public harness API (run_many, run_fleet, CcaZoo::train_all).
//
//   perfbench --workload <paper_sweep|fleet_parking_lot|zoo_train>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 sets up the workload five times (setup_s is the median), then
// repeats the workload's fixed batch until --seconds have passed and prints
// the end-to-end metrics as medians over those batches. --trace 1 runs one
// untraced and one traced batch (plus the mode variants a layer ratio needs)
// and prints the per-layer metrics. Every batch's outputs are checked and
// digested; the last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The line before it records the build, the output digest and the
// workload-specific figures that are not gated. README.md has the details.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/fleet_scenario.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "harness/zoo.h"
#include "probes.h"
#include "rl/simd.h"

namespace perfbench {
namespace {

using namespace libra;

// ---------------------------------------------------------------- metrics --

struct Metric {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"sim_s_per_wall_s", "s/s"},
    {"run_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A workload reports 0 for a layer it does not exercise (the README lists
// which workload defines which metric).
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.max_pending", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.fleet.shard_imbalance", "ratio"},
    {"sim.fleet.parallel_speedup", "ratio"},
    {"sim.fleet.rss_kb_per_flow", "kB"},
    {"classic.calls", "count"},
    {"classic.ns_per_call", "ns"},
    {"classic.share", "ratio"},
    {"learned.calls", "count"},
    {"learned.ns_per_call", "ns"},
    {"learned.share", "ratio"},
    {"core.calls", "count"},
    {"core.ns_per_call", "ns"},
    {"core.share", "ratio"},
    {"trace.synth_ms_p50", "ms"},
    {"trace.lookups", "count"},
    {"trace.ns_per_lookup", "ns"},
    {"harness.queue_wait_ms_p95", "ms"},
    {"harness.pool_busy_frac", "ratio"},
    {"harness.train_scaling", "ratio"},
    {"rl.updates", "count"},
    {"rl.transitions", "count"},
    {"rl.update_ms", "ms"},
    {"rl.infer_ns", "ns"},
    {"obs.health_overhead", "ratio"},
    {"obs.incidents", "count"},
    {"model.sweep.utilization_mean", "ratio"},
    {"model.sweep.delay_ms_mean", "ms"},
    {"model.fleet.jain", "ratio"},
    {"model.fleet.goodput_mbps", "Mbps"},
    {"tracing.overhead", "ratio"},
    {"tracing.coverage", "ratio"},
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::string digest;
  /// Workload-specific figures printed on the info line, not gated.
  std::map<std::string, double> extra;
  std::vector<std::string> errors;

  void fail(std::uint64_t ops, const std::string& why) {
    correct = false;
    failed += ops;
    errors.push_back(why);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

bool finite_all(std::initializer_list<double> xs) {
  for (double x : xs)
    if (!std::isfinite(x)) return false;
  return true;
}

// Utilization can exceed 1 by the queue drained past the window edge; a
// larger excess means the accounting is wrong.
constexpr double kUtilizationSlack = 0.02;

std::size_t pool_threads() { return default_pool().thread_count(); }

double peak_rss_mb() { return static_cast<double>(status_kb("VmHWM")) / 1024.0; }

/// Runs `setup` five times and returns the median wall time; the caller
/// keeps the state of the last one.
double timed_setups(const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over a combined key: distinct, seed-dependent run
  // seeds for every (scenario, repeat).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL + b + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The zoo every workload builds: the default ZooConfig (seed included) with
/// no brain cache and no telemetry files, so no run reads or writes outside
/// the process. The zoo seed stays fixed because it decides the training
/// environments and the learned policies, and with them how much simulation
/// a batch holds: a 5-seed probe of zoo_train measured 3.4-4.4 s per
/// train_all, and sweep brains trained on other seeds moved the sweep's
/// throughput by up to 3x. A seed-dependent zoo would measure the seed, not
/// the code.
ZooConfig zoo_config() {
  ZooConfig cfg;
  cfg.brain_dir = "";
  cfg.train_telemetry = false;
  return cfg;
}

// ------------------------------------------------------- rl layer probes --

/// Greedy inference and one PPO update, timed at each trained brain's shape
/// (the shapes CcaZoo trains: every family, zoo hidden width).
void probe_rl(CcaZoo& zoo, Result& r) {
  std::vector<double> infer_ns, update_ms;
  double updates = 0, transitions = 0;
  for (const std::string& family : CcaZoo::brain_families()) {
    auto brain = zoo.brain(family);
    const PpoAgent& agent = brain->agent;
    updates += agent.update_count();
    transitions += static_cast<double>(agent.update_count()) *
                       static_cast<double>(agent.config().horizon) +
                   static_cast<double>(agent.buffered_transitions());

    const Vector state(agent.config().state_dim, 0.25);
    constexpr int kCalls = 2000;
    double sink = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) sink += agent.act_greedy(state);
    infer_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    if (!std::isfinite(sink)) r.fail(0, family + ": non-finite policy output");

    // A fresh agent of the same shape, so the probe never touches the brain.
    PpoAgent fresh(agent.config());
    std::vector<double> walls;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < agent.config().horizon; ++i) {
        fresh.act(state);
        fresh.give_reward(0.01 * static_cast<double>(i % 7), false);
      }
      const std::int64_t t1 = now_ns();
      fresh.flush_update(0.0);
      walls.push_back(static_cast<double>(now_ns() - t1) * 1e-6);
    }
    update_ms.push_back(median(walls));
  }
  r.metrics["rl.updates"] = updates;
  r.metrics["rl.transitions"] = transitions;
  r.metrics["rl.infer_ns"] = median(infer_ns);
  r.metrics["rl.update_ms"] = median(update_ms);
}

// ------------------------------------------------------------ paper_sweep --

const std::vector<std::string> kSweepCcas = {"cubic", "bbr",    "copa",    "vivace",
                                             "aurora", "orca", "c-libra", "b-libra"};
constexpr int kSweepSeeds = 4;
constexpr SimDuration kSweepDuration = sec(30);
// Enough PPO rounds to give every learned family a policy; the sweep times
// inference, not training quality.
constexpr int kSweepTrainEpisodes = 16;

enum Layer { kClassic = 0, kLearned = 1, kCore = 2 };

Layer layer_of(const std::string& cca) {
  if (cca == "c-libra" || cca == "b-libra") return kCore;
  if (cca == "vivace" || cca == "aurora" || cca == "orca") return kLearned;
  return kClassic;
}

struct SweepSetup {
  std::unique_ptr<CcaZoo> zoo;
  std::vector<Scenario> scenarios;
  std::vector<CcaFactory> factories;
  std::vector<std::uint64_t> seeds;  // scenario-major, kSweepSeeds each
};

SweepSetup setup_sweep(std::uint64_t seed) {
  SweepSetup s;
  ZooConfig cfg = zoo_config();
  cfg.train_episodes = kSweepTrainEpisodes;
  s.zoo = std::make_unique<CcaZoo>(cfg);
  s.zoo->train_all(default_pool());
  for (const std::string& name : kSweepCcas) s.factories.push_back(s.zoo->factory(name));
  s.scenarios = fig1_scenarios();
  s.scenarios.push_back(wan_inter_continental());
  s.scenarios.push_back(step_scenario());
  for (std::size_t i = 0; i < s.scenarios.size(); ++i) {
    s.scenarios[i].duration = kSweepDuration;
    for (int k = 0; k < kSweepSeeds; ++k) s.seeds.push_back(mix_seed(seed, i, k));
  }
  return s;
}

/// What the benchmark observes of one run from outside the harness.
struct RunRecord {
  std::int64_t start_ns = 0;  // make_trace entry: the run's first call
  std::int64_t end_ns = 0;    // inspect hook: after summarize
  std::int64_t synth_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t max_pending = 0;
  double sim_wall_s = 0;  // Network::wall_time_s, inside run_until
  bool flows_consistent = true;
  Layer layer = kClassic;
  LayerTally cca;
  LayerTally trace;
};

struct SweepPass {
  std::int64_t start_ns = 0;
  double wall_s = 0;
  std::vector<RunSummary> summaries;
  std::unique_ptr<RunRecord[]> records;
  std::size_t runs = 0;
  std::string digest;
  std::uint64_t bad_runs = 0;
  std::string first_error;
};

SweepPass run_sweep_pass(const SweepSetup& s, bool traced) {
  SweepPass p;
  p.runs = s.scenarios.size() * kSweepSeeds * kSweepCcas.size();
  p.records = std::make_unique<RunRecord[]>(p.runs);
  std::vector<RunRequest> requests;
  requests.reserve(p.runs);
  for (std::size_t sc = 0; sc < s.scenarios.size(); ++sc) {
    for (int k = 0; k < kSweepSeeds; ++k) {
      for (std::size_t c = 0; c < kSweepCcas.size(); ++c) {
        RunRecord* rec = &p.records[requests.size()];
        rec->layer = layer_of(kSweepCcas[c]);
        Scenario scenario = s.scenarios[sc];
        scenario.make_trace = [inner = s.scenarios[sc].make_trace, rec,
                               traced](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
          const std::int64_t t0 = now_ns();
          if (rec->start_ns == 0) rec->start_ns = t0;
          std::shared_ptr<RateTrace> trace = inner(seed);
          rec->synth_ns = now_ns() - t0;
          if (!traced) return trace;
          return std::make_shared<TimedTrace>(std::move(trace), &rec->trace);
        };
        CcaFactory factory = s.factories[c];
        if (traced) {
          factory = [inner = factory, rec] {
            return std::make_unique<TimedCca>(inner(), &rec->cca);
          };
        }
        RunRequest req = RunRequest::single(std::move(scenario), std::move(factory),
                                            s.seeds[sc * kSweepSeeds + k]);
        req.inspect = [rec](const Network& net) {
          rec->end_ns = now_ns();
          rec->events = net.events().processed();
          rec->max_pending = net.events().max_pending();
          rec->sim_wall_s = net.wall_time_s();
          for (int f = 0; f < net.flow_count(); ++f) {
            const Sender& snd = net.flow(f).sender();
            if (snd.packets_acked() + snd.packets_lost() > snd.packets_sent())
              rec->flows_consistent = false;
          }
        };
        requests.push_back(std::move(req));
      }
    }
  }

  p.start_ns = now_ns();
  try {
    p.summaries = run_many(requests, default_pool());
  } catch (const std::exception& e) {
    p.wall_s = seconds_since(p.start_ns);
    p.bad_runs = p.runs;
    p.first_error = std::string("run_many threw: ") + e.what();
    return p;
  }
  p.wall_s = seconds_since(p.start_ns);

  Digest d;
  for (std::size_t i = 0; i < p.runs; ++i) {
    const RunSummary& sum = p.summaries[i];
    std::ostringstream line;
    line << Digest::fmt(sum.link_utilization) << ',' << Digest::fmt(sum.avg_delay_ms) << ','
         << Digest::fmt(sum.total_throughput_bps) << ',' << Digest::fmt(sum.sim_time_s);
    bool ok = finite_all({sum.link_utilization, sum.avg_delay_ms, sum.total_throughput_bps,
                          sum.sim_time_s}) &&
              sum.link_utilization >= 0 && sum.link_utilization <= 1 + kUtilizationSlack &&
              sum.avg_delay_ms >= 0 && !sum.flows.empty() && p.records[i].flows_consistent;
    for (const FlowSummary& f : sum.flows) {
      line << ';' << Digest::fmt(f.throughput_bps) << ',' << Digest::fmt(f.avg_rtt_ms) << ','
           << Digest::fmt(f.loss_rate);
      ok = ok && finite_all({f.throughput_bps, f.avg_rtt_ms, f.loss_rate}) &&
           f.loss_rate >= 0 && f.loss_rate <= 1;
    }
    line << '\n';
    d.add(line.str());
    if (!ok) {
      ++p.bad_runs;
      if (p.first_error.empty())
        p.first_error = "run " + std::to_string(i) + " failed its output check";
    }
  }
  p.digest = d.hex();
  return p;
}

/// Books one batch of `ops` operations: `bad` of them failed their output
/// check; otherwise the batch must reproduce the run's first digest.
void record_batch(Result& r, std::uint64_t ops, std::uint64_t bad, const std::string& error,
                  const std::string& digest, const std::string& what) {
  r.attempted += ops;
  if (bad > 0) {
    r.fail(bad, what + ": " + error);
  } else if (r.digest.empty()) {
    r.digest = digest;
  } else if (digest != r.digest) {
    r.fail(ops, what + ": digest " + digest + " != " + r.digest);
  }
}

Result sweep_end_to_end(std::uint64_t seed, double seconds) {
  Result r;
  SweepSetup s;
  r.metrics["setup_s"] = timed_setups([&] { s = setup_sweep(seed); });

  std::vector<double> rates, run_ms;
  const std::int64_t t0 = now_ns();
  do {
    SweepPass p = run_sweep_pass(s, /*traced=*/false);
    record_batch(r, p.runs, p.bad_runs, p.first_error, p.digest, "sweep batch");
    double sim_s = 0;
    for (std::size_t i = 0; i < p.runs && i < p.summaries.size(); ++i) {
      sim_s += p.summaries[i].sim_time_s;
      run_ms.push_back(static_cast<double>(p.records[i].end_ns - p.records[i].start_ns) * 1e-6);
    }
    rates.push_back(sim_s / p.wall_s);
  } while (seconds_since(t0) < seconds);

  r.metrics["sim_s_per_wall_s"] = median(rates);
  r.metrics["run_ms_p50"] = median(run_ms);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.extra["batches"] = static_cast<double>(rates.size());
  r.extra["runs_timed"] = static_cast<double>(run_ms.size());
  if (auto p95 = tail_percentile(run_ms, 0.95)) r.extra["run_ms_p95"] = *p95;
  return r;
}

Result sweep_traced(std::uint64_t seed) {
  Result r;
  SweepSetup s = setup_sweep(seed);
  SweepPass plain = run_sweep_pass(s, /*traced=*/false);
  record_batch(r, plain.runs, plain.bad_runs, plain.first_error, plain.digest, "untraced sweep");
  SweepPass traced = run_sweep_pass(s, /*traced=*/true);
  record_batch(r, traced.runs, traced.bad_runs, traced.first_error, traced.digest,
               "traced sweep");

  double run_wall = 0, sim_wall = 0, synth = 0, events = 0, max_pending = 0;
  double utilization = 0, delay = 0;
  double layer_ns[3] = {0, 0, 0}, layer_calls[3] = {0, 0, 0};
  double lookups = 0, lookup_ns = 0;
  std::vector<double> synth_ms, queue_wait_ms;
  for (std::size_t i = 0; i < traced.runs && i < traced.summaries.size(); ++i) {
    const RunRecord& rec = traced.records[i];
    run_wall += static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9;
    sim_wall += rec.sim_wall_s;
    synth += static_cast<double>(rec.synth_ns) * 1e-9;
    synth_ms.push_back(static_cast<double>(rec.synth_ns) * 1e-6);
    queue_wait_ms.push_back(static_cast<double>(rec.start_ns - traced.start_ns) * 1e-6);
    events += static_cast<double>(rec.events);
    max_pending = std::max(max_pending, static_cast<double>(rec.max_pending));
    layer_ns[rec.layer] += static_cast<double>(rec.cca.ns.load());
    layer_calls[rec.layer] += static_cast<double>(rec.cca.calls.load());
    lookups += static_cast<double>(rec.trace.calls.load());
    lookup_ns += static_cast<double>(rec.trace.ns.load());
    utilization += traced.summaries[i].link_utilization;
    delay += traced.summaries[i].avg_delay_ms;
  }
  const double n = static_cast<double>(traced.runs);
  const double cca_ns = layer_ns[0] + layer_ns[1] + layer_ns[2];
  const char* names[3] = {"classic", "learned", "core"};
  for (int l = 0; l < 3; ++l) {
    const std::string name = names[l];
    r.metrics[name + ".calls"] = layer_calls[l];
    r.metrics[name + ".ns_per_call"] = layer_calls[l] > 0 ? layer_ns[l] / layer_calls[l] : 0;
    r.metrics[name + ".share"] = layer_ns[l] * 1e-9 / run_wall;
  }
  r.metrics["sim.events"] = events;
  r.metrics["sim.max_pending"] = max_pending;
  // Event-loop self time: time inside run_until minus the decorated layers.
  r.metrics["sim.ns_per_event"] = (sim_wall * 1e9 - cca_ns - lookup_ns) / events;
  r.metrics["trace.synth_ms_p50"] = median(synth_ms);
  r.metrics["trace.lookups"] = lookups;
  r.metrics["trace.ns_per_lookup"] = lookups > 0 ? lookup_ns / lookups : 0;
  r.metrics["harness.queue_wait_ms_p95"] = tail_percentile(queue_wait_ms, 0.95).value_or(0);
  r.metrics["harness.pool_busy_frac"] =
      run_wall / (traced.wall_s * static_cast<double>(pool_threads()));
  r.metrics["model.sweep.utilization_mean"] = utilization / n;
  r.metrics["model.sweep.delay_ms_mean"] = delay / n;
  r.metrics["tracing.overhead"] = traced.wall_s / plain.wall_s;
  // Layer self times (event loop, decorated CCAs and lookups, trace
  // synthesis) over the runs' wall; the rest is network construction and
  // summarize.
  r.metrics["tracing.coverage"] = (sim_wall + synth) / run_wall;
  probe_rl(*s.zoo, r);
  return r;
}

// ------------------------------------------------------ fleet_parking_lot --

const std::vector<std::string> kFleetCcas = {"cubic", "bbr", "copa", "newreno"};

FleetSpec fleet_spec() {
  FleetSpec spec = parking_lot_fleet(4, 1000, 4, 960);
  spec.churn.enabled = true;
  return spec;
}

struct FleetSetup {
  FleetSpec spec;
  std::vector<CcaFactory> factories;
  std::size_t flows = 0;
};

struct FleetPass {
  double wall_s = 0;
  FleetSummary summary;
  FleetObsResult obs;
  std::string text;  // canonical rendering of every deterministic field
  bool ok = false;
  std::string error;
  LayerTally cca;
};

std::string render(const FleetSummary& s) {
  std::ostringstream o;
  o << "{\"sim_time_s\":" << Digest::fmt(s.sim_time_s)
    << ",\"window_s\":" << Digest::fmt(s.window_s)
    << ",\"total_throughput_bps\":" << Digest::fmt(s.total_throughput_bps)
    << ",\"avg_delay_ms\":" << Digest::fmt(s.avg_delay_ms)
    << ",\"jain_fairness\":" << Digest::fmt(s.jain_fairness)
    << ",\"events_processed\":" << s.events_processed << ",\"hop_utilization\":[";
  for (std::size_t i = 0; i < s.hop_utilization.size(); ++i)
    o << (i ? "," : "") << Digest::fmt(s.hop_utilization[i]);
  o << "],\"flows\":[";
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const FleetFlowSummary& f = s.flows[i];
    o << (i ? "," : "") << '[' << Digest::fmt(f.throughput_bps) << ','
      << Digest::fmt(f.avg_rtt_ms) << ',' << Digest::fmt(f.loss_rate) << ','
      << Digest::fmt(f.completion_s) << ']';
  }
  o << "]}";
  return o.str();
}

/// Empty when the summary passes its output check, else what failed.
std::string fleet_summary_error(const FleetSummary& s) {
  if (!finite_all({s.sim_time_s, s.window_s, s.total_throughput_bps, s.avg_delay_ms,
                   s.jain_fairness}) ||
      s.jain_fairness <= 0 || s.jain_fairness > 1 + 1e-9 || s.events_processed == 0 ||
      s.flows.empty())
    return "fleet totals out of range";
  for (std::size_t h = 0; h < s.hop_utilization.size(); ++h) {
    const double u = s.hop_utilization[h];
    if (!std::isfinite(u) || u < 0 || u > 1 + kUtilizationSlack)
      return "hop " + std::to_string(h) + " utilization " + Digest::fmt(u);
  }
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const FleetFlowSummary& f = s.flows[i];
    if (!finite_all({f.throughput_bps, f.avg_rtt_ms, f.loss_rate, f.completion_s}) ||
        f.throughput_bps < 0 || f.loss_rate < 0)
      return "flow " + std::to_string(i) + " summary out of range: " +
             Digest::fmt(f.throughput_bps) + " bps, " + Digest::fmt(f.avg_rtt_ms) + " ms, loss " +
             Digest::fmt(f.loss_rate);
  }
  return "";
}

/// `pass` is filled in place: its tally must outlive the run's controllers.
void run_fleet_pass(const FleetSetup& s, std::uint64_t seed, FleetMode mode, bool health,
                    bool traced, FleetPass& pass) {
  FleetRunOptions opt;
  opt.mode = mode;
  opt.threads = pool_threads();
  opt.health = health;
  const auto& f = s.factories;
  LayerTally* tally = &pass.cca;
  auto make = [&f, tally, traced](int flow) -> std::unique_ptr<CongestionControl> {
    auto cca = f[static_cast<std::size_t>(flow) % f.size()]();
    if (!traced) return cca;
    return std::make_unique<TimedCca>(std::move(cca), tally);
  };
  const std::int64_t t0 = now_ns();
  try {
    pass.summary = run_fleet(s.spec, make, seed, opt, &pass.obs);
  } catch (const std::exception& e) {
    pass.wall_s = seconds_since(t0);
    pass.error = std::string("run_fleet threw: ") + e.what();
    return;
  }
  pass.wall_s = seconds_since(t0);
  pass.text = render(pass.summary);
  pass.error = fleet_summary_error(pass.summary);
  pass.ok = pass.error.empty();
  if (traced && pass.cca.inconsistent_flows.load() > 0) {
    pass.ok = false;
    pass.error = std::to_string(pass.cca.inconsistent_flows.load()) +
                 " flows saw more ACKs + losses than sends";
  }
}

FleetSetup setup_fleet(std::uint64_t seed) {
  FleetSetup s;
  s.spec = fleet_spec();
  CcaZoo zoo(zoo_config());
  for (const std::string& name : kFleetCcas) s.factories.push_back(zoo.factory(name));
  s.flows = plan_fleet_flows(s.spec, seed).size();
  // Warm-up: one simulated second of the same fleet builds every flow and
  // touches the allocator and the shard pool before anything is timed.
  FleetSetup warm = s;
  warm.spec.duration = sec(1);
  warm.spec.warmup = msec(500);
  FleetPass pass;
  run_fleet_pass(warm, seed, FleetMode::kSharded, /*health=*/true, /*traced=*/false, pass);
  if (!pass.ok) throw std::runtime_error("fleet warm-up: " + pass.error);
  return s;
}

std::string digest_of(const std::string& text) {
  Digest d;
  d.add(text);
  return d.hex();
}

void check_fleet_pass(Result& r, const FleetPass& p, const std::string& what) {
  record_batch(r, 1, p.ok ? 0 : 1, p.error, digest_of(p.text), what);
}

Result fleet_end_to_end(std::uint64_t seed, double seconds) {
  Result r;
  FleetSetup s;
  r.metrics["setup_s"] = timed_setups([&] { s = setup_fleet(seed); });
  std::vector<double> rates, walls;
  const std::int64_t t0 = now_ns();
  do {
    FleetPass p;
    run_fleet_pass(s, seed, FleetMode::kSharded, /*health=*/true, /*traced=*/false, p);
    check_fleet_pass(r, p, "sharded fleet");
    rates.push_back(to_seconds(s.spec.duration) / p.wall_s);
    walls.push_back(p.wall_s * 1e3);
  } while (seconds_since(t0) < seconds);
  r.metrics["sim_s_per_wall_s"] = median(rates);
  r.metrics["run_ms_p50"] = median(walls);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.extra["batches"] = static_cast<double>(rates.size());
  r.extra["flows"] = static_cast<double>(s.flows);
  return r;
}

Result fleet_traced(std::uint64_t seed) {
  Result r;
  const double rss_before_kb = static_cast<double>(status_kb("VmRSS"));
  FleetSetup s = setup_fleet(seed);
  // Untraced sharded (the timed configuration), traced serial, untraced
  // serial, untraced sharded without health: each layer ratio compares two
  // runs that differ in one switch. Every pass must reproduce the first
  // pass's digest of its canonical summary, so serial == sharded, traced ==
  // untraced and health-on == health-off are all checked.
  FleetPass sharded, traced, serial, no_health;
  run_fleet_pass(s, seed, FleetMode::kSharded, true, false, sharded);
  check_fleet_pass(r, sharded, "untraced sharded fleet");
  const double rss_after_kb = static_cast<double>(status_kb("VmHWM"));
  run_fleet_pass(s, seed, FleetMode::kSerial, true, true, traced);
  check_fleet_pass(r, traced, "traced serial fleet");
  run_fleet_pass(s, seed, FleetMode::kSerial, true, false, serial);
  check_fleet_pass(r, serial, "untraced serial fleet");
  run_fleet_pass(s, seed, FleetMode::kSharded, false, false, no_health);
  check_fleet_pass(r, no_health, "health-off sharded fleet");

  const double events = static_cast<double>(traced.summary.events_processed);
  const double cca_ns = static_cast<double>(traced.cca.ns.load());
  const double cca_calls = static_cast<double>(traced.cca.calls.load());
  double shard_max = 0, shard_sum = 0;
  for (std::uint64_t e : sharded.obs.shard_events) {
    shard_max = std::max(shard_max, static_cast<double>(e));
    shard_sum += static_cast<double>(e);
  }
  const double shards = static_cast<double>(sharded.obs.shard_events.size());
  r.metrics["sim.events"] = events;
  r.metrics["sim.ns_per_event"] = (traced.summary.wall_time_s * 1e9 - cca_ns) / events;
  r.metrics["sim.fleet.shard_imbalance"] = shard_sum > 0 ? shard_max * shards / shard_sum : 0;
  r.metrics["sim.fleet.parallel_speedup"] = serial.wall_s / sharded.wall_s;
  r.metrics["sim.fleet.rss_kb_per_flow"] =
      (rss_after_kb - rss_before_kb) / static_cast<double>(s.flows);
  r.metrics["classic.calls"] = cca_calls;
  r.metrics["classic.ns_per_call"] = cca_calls > 0 ? cca_ns / cca_calls : 0;
  r.metrics["classic.share"] = cca_ns * 1e-9 / traced.wall_s;
  r.metrics["obs.health_overhead"] = sharded.wall_s / no_health.wall_s;
  r.metrics["obs.incidents"] = static_cast<double>(sharded.obs.health.incidents.size());
  r.metrics["model.fleet.jain"] = sharded.summary.jain_fairness;
  r.metrics["model.fleet.goodput_mbps"] = sharded.summary.total_throughput_bps * 1e-6;
  r.metrics["tracing.overhead"] = traced.wall_s / serial.wall_s;
  // Event loop plus decorated CCAs cover the time inside the engine's run;
  // the rest of run_fleet is planning, construction and summarize.
  r.metrics["tracing.coverage"] = traced.summary.wall_time_s / traced.wall_s;
  r.extra["flows"] = static_cast<double>(s.flows);
  r.extra["sharded_wall_s"] = sharded.wall_s;
  r.extra["serial_wall_s"] = serial.wall_s;
  return r;
}

// -------------------------------------------------------------- zoo_train --

struct TrainPass {
  double wall_s = 0;
  std::string digest;
  bool ok = false;
  std::string error;
  std::unique_ptr<CcaZoo> zoo;
};

TrainPass train_pass(const ZooConfig& cfg) {
  TrainPass p;
  p.zoo = std::make_unique<CcaZoo>(cfg);
  const std::int64_t t0 = now_ns();
  try {
    p.zoo->train_all(default_pool());
  } catch (const std::exception& e) {
    p.wall_s = seconds_since(t0);
    p.error = std::string("train_all threw: ") + e.what();
    return p;
  }
  p.wall_s = seconds_since(t0);
  Digest d;
  p.ok = true;
  for (const std::string& family : CcaZoo::brain_families()) {
    std::ostringstream text;
    auto brain = p.zoo->brain(family);
    brain->agent.save(text);
    brain->normalizer.save(text);
    const std::string s = text.str();
    if (s.find("nan") != std::string::npos || s.find("inf") != std::string::npos) {
      p.ok = false;
      p.error = family + " brain holds non-finite weights";
    }
    d.add(family + "\n" + s);
  }
  p.digest = d.hex();
  return p;
}

double zoo_episodes(const ZooConfig& cfg) {
  return static_cast<double>(cfg.train_episodes) *
         static_cast<double>(CcaZoo::brain_families().size());
}

Result zoo_end_to_end(double seconds) {
  Result r;
  const ZooConfig cfg = zoo_config();
  r.metrics["setup_s"] = timed_setups([&] {
    // Warm-up: one rollout round per family on the same pool and shapes.
    ZooConfig warm = cfg;
    warm.train_episodes = warm.rollout_round;
    CcaZoo(warm).train_all(default_pool());
  });
  const double episodes = zoo_episodes(cfg);
  const double sim_s = episodes * to_seconds(TrainEnvRanges{}.episode_length);
  std::vector<double> rates, walls;
  const std::int64_t t0 = now_ns();
  do {
    TrainPass p = train_pass(cfg);
    const auto ops = static_cast<std::uint64_t>(episodes);
    record_batch(r, ops, p.ok ? 0 : ops, p.error, p.digest, "zoo training");
    rates.push_back(sim_s / p.wall_s);
    walls.push_back(p.wall_s * 1e3);
  } while (seconds_since(t0) < seconds);
  r.metrics["sim_s_per_wall_s"] = median(rates);
  r.metrics["run_ms_p50"] = median(walls);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.extra["batches"] = static_cast<double>(rates.size());
  r.extra["episodes_per_s"] = episodes / (median(walls) * 1e-3);
  return r;
}

/// Trains the zoo in a child process whose default pool has one thread
/// (the pool size is fixed on first use, so it cannot change in-process).
bool train_single_thread(double& wall_s, std::string& digest, std::string& error) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) {
    error = "cannot locate own executable";
    return false;
  }
  self[n] = '\0';
  const std::string cmd = "LIBRA_THREADS=1 '" + std::string(self) +
                          "' --train-once";
  FILE* child = popen(cmd.c_str(), "r");
  if (!child) {
    error = "cannot start single-thread training";
    return false;
  }
  char line[256] = {0};
  const bool got = std::fgets(line, sizeof line, child) != nullptr;
  const int status = pclose(child);
  char hex[64] = {0};
  if (!got || status != 0 || std::sscanf(line, "%lf %63s", &wall_s, hex) != 2) {
    error = "single-thread training failed";
    return false;
  }
  digest = hex;
  return true;
}

Result zoo_traced() {
  Result r;
  const ZooConfig cfg = zoo_config();
  const auto episodes = static_cast<std::uint64_t>(zoo_episodes(cfg));
  TrainPass pooled = train_pass(cfg);
  record_batch(r, episodes, pooled.ok ? 0 : episodes, pooled.error, pooled.digest,
               "pooled training");

  double serial_wall = 0;
  std::string serial_digest, error;
  const bool serial_ok = train_single_thread(serial_wall, serial_digest, error);
  record_batch(r, episodes, serial_ok ? 0 : episodes, error, serial_digest,
               "1-thread training");

  r.metrics["harness.train_scaling"] = serial_ok ? serial_wall / pooled.wall_s : 0;
  probe_rl(*pooled.zoo, r);
  // Training has no traced pass (the decorators must stay out of it), so
  // tracing.overhead is left undefined; the rl figures are exact counts and
  // separate probes. Coverage: share of single-thread training wall spent in
  // PPO updates.
  r.metrics["tracing.coverage"] =
      serial_ok ? r.metrics["rl.updates"] * r.metrics["rl.update_ms"] * 1e-3 / serial_wall : 0;
  r.extra["pooled_wall_s"] = pooled.wall_s;
  r.extra["serial_wall_s"] = serial_wall;
  return r;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool train_once = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_sweep|fleet_parking_lot|zoo_train> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--train-once") {
      a.train_once = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
      } else if (flag == "--trace") {
        a.trace = std::stoi(value, &used);
        if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
      } else {
        usage("unknown flag " + flag);
      }
      if (used != value.size()) usage("bad value for " + flag + ": " + value);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  return a;
}

/// Refuses to time a build whose numbers would not describe the shipped
/// configuration.
const char* unfit_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "assertions on or optimization off";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  return nullptr;
}

void print(const Args& a, Result& r) {
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"threads\":%zu,"
      "\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\",\"simd\":\"%s\"},"
      "\"digest\":\"%s\",\"extra\":{",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace, pool_threads(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      simd::isa_name(simd::active()), r.digest.c_str());
  bool first = true;
  for (const auto& [k, v] : r.extra) {
    std::printf("%s\"%s\":%.10g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("},\"errors\":[");
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(r.errors[i]).c_str());
  std::printf("]}\n");

  std::string metrics;
  auto emit = [&](const Metric& m) {
    double v = r.metrics.count(m.name) ? r.metrics[m.name] : 0.0;
    if (!std::isfinite(v)) {
      r.fail(0, std::string("metric ") + m.name + " is not finite");
      v = 0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name, v, m.unit);
    metrics += buf;
  };
  if (a.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.train_once) {
    TrainPass p = train_pass(zoo_config());
    if (!p.ok) {
      std::fprintf(stderr, "perfbench: %s\n", p.error.c_str());
      return 1;
    }
    std::printf("%.9f %s\n", p.wall_s, p.digest.c_str());
    return 0;
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to time this build (%s)\n", why);
    return 2;
  }
  Result r;
  try {
    if (a.workload == "paper_sweep") {
      r = a.trace ? sweep_traced(a.seed) : sweep_end_to_end(a.seed, a.seconds);
    } else if (a.workload == "fleet_parking_lot") {
      r = a.trace ? fleet_traced(a.seed) : fleet_end_to_end(a.seed, a.seconds);
    } else if (a.workload == "zoo_train") {
      r = a.trace ? zoo_traced() : zoo_end_to_end(a.seconds);
    } else {
      usage("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    // Set-up failures land here; batch failures are booked where they occur.
    r = Result{};
    r.attempted = 1;
    r.fail(1, e.what());
  }
  print(a, r);
  for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
