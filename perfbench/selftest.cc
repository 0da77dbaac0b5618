// Tests of the benchmark's own probes: the timing decorators must forward
// every virtual (a traced run simulates exactly what an untraced run does),
// the percentile helper must refuse thin tails, and the RSS reader must see
// memory the process touches.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/fleet_scenario.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"
#include "obs/telemetry.h"
#include "probes.h"

namespace perfbench {
namespace {

using namespace libra;

// A controller whose every answer is distinctive, recording what reached it.
class FakeCca final : public CongestionControl {
 public:
  struct Seen {
    int sent = 0, acks = 0, losses = 0, ticks = 0;
    FlightRecorder* recorder = nullptr;
    Telemetry* telemetry = nullptr;
    int flow = -1;
  };
  explicit FakeCca(Seen* seen) : seen_(seen) {}
  void on_packet_sent(const SendEvent&) override { ++seen_->sent; }
  void on_ack(const AckEvent&) override { ++seen_->acks; }
  void on_loss(const LossEvent&) override { ++seen_->losses; }
  void on_tick(SimTime) override { ++seen_->ticks; }
  bool wants_tick() const override { return false; }
  RateBps pacing_rate() const override { return 12345; }
  std::int64_t cwnd_bytes() const override { return 6789; }
  std::string name() const override { return "fake"; }
  std::int64_t memory_bytes() const override { return 4242; }
  int telemetry_stage() const override { return 3; }
  void bind_recorder(FlightRecorder* rec, int flow_id) override {
    seen_->recorder = rec;
    seen_->flow = flow_id;
  }
  void bind_telemetry(Telemetry* telemetry, int flow_id) override {
    seen_->telemetry = telemetry;
    seen_->flow = flow_id;
  }

 private:
  Seen* seen_;
};

TEST(TimedCca, ForwardsEveryVirtualAndTalliesOnDestruction) {
  FakeCca::Seen seen;
  LayerTally tally;
  {
    TimedCca cca(std::make_unique<FakeCca>(&seen), &tally);
    EXPECT_FALSE(cca.wants_tick());
    EXPECT_EQ(cca.pacing_rate(), 12345);
    EXPECT_EQ(cca.cwnd_bytes(), 6789);
    EXPECT_EQ(cca.name(), "fake");
    EXPECT_EQ(cca.memory_bytes(), 4242);
    EXPECT_EQ(cca.telemetry_stage(), 3);
    FlightRecorder rec;
    Telemetry telemetry;
    cca.bind_recorder(&rec, 7);
    EXPECT_EQ(seen.recorder, &rec);
    EXPECT_EQ(seen.flow, 7);
    cca.bind_telemetry(&telemetry, 8);
    EXPECT_EQ(seen.telemetry, &telemetry);
    EXPECT_EQ(seen.flow, 8);
    cca.on_packet_sent({});
    cca.on_packet_sent({});
    cca.on_ack({});
    cca.on_loss({});
    cca.on_tick(0);
    EXPECT_EQ(tally.calls.load(), 0u) << "tallied before the controller is gone";
  }
  EXPECT_EQ(seen.sent, 2);
  EXPECT_EQ(seen.acks, 1);
  EXPECT_EQ(seen.losses, 1);
  EXPECT_EQ(seen.ticks, 1);
  EXPECT_EQ(tally.calls.load(), 5u);
  EXPECT_EQ(tally.flows.load(), 1u);
  EXPECT_EQ(tally.inconsistent_flows.load(), 0u);
}

TEST(TimedCca, FlagsFlowsWithMoreFeedbackThanSends) {
  FakeCca::Seen seen;
  LayerTally tally;
  {
    TimedCca cca(std::make_unique<FakeCca>(&seen), &tally);
    cca.on_packet_sent({});
    cca.on_ack({});
    cca.on_loss({});
  }
  EXPECT_EQ(tally.inconsistent_flows.load(), 1u);
}

TEST(TimedTrace, ForwardsLookupsAndClonesShareTheTally) {
  LayerTally tally;
  {
    auto inner = std::shared_ptr<RateTrace>(make_step_trace({mbps(10), mbps(20)}, sec(1)));
    TimedTrace trace(inner, &tally);
    EXPECT_EQ(trace.rate_at(msec(1500)), inner->rate_at(msec(1500)));
    EXPECT_EQ(trace.average_rate(0, sec(2)), inner->average_rate(0, sec(2)));
    std::unique_ptr<RateTrace> copy = trace.clone();
    ASSERT_NE(dynamic_cast<TimedTrace*>(copy.get()), nullptr);
    EXPECT_EQ(copy->rate_at(msec(500)), inner->rate_at(msec(500)));
  }
  EXPECT_EQ(tally.calls.load(), 3u);
}

void expect_same(const RunSummary& a, const RunSummary& b, const std::string& cca) {
  EXPECT_EQ(a.link_utilization, b.link_utilization) << cca;
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms) << cca;
  EXPECT_EQ(a.total_throughput_bps, b.total_throughput_bps) << cca;
  ASSERT_EQ(a.flows.size(), b.flows.size()) << cca;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].throughput_bps, b.flows[i].throughput_bps) << cca;
    EXPECT_EQ(a.flows[i].avg_rtt_ms, b.flows[i].avg_rtt_ms) << cca;
    EXPECT_EQ(a.flows[i].loss_rate, b.flows[i].loss_rate) << cca;
  }
}

// One short run per controller the benchmark decorates: the traced run must
// simulate exactly what the untraced one does, down to the last bit.
TEST(Decorators, TracedRunEqualsUntracedForEveryBenchmarkedCca) {
  ZooConfig cfg;
  cfg.brain_dir = "";
  cfg.train_telemetry = false;
  cfg.train_episodes = 8;
  CcaZoo zoo(cfg);
  Scenario plain = lte_scenario(LteProfile::kWalking, "lte-walking");
  plain.duration = sec(6);
  for (const std::string name : {"cubic", "bbr", "copa", "newreno", "vivace", "aurora", "orca",
                                 "c-libra", "b-libra"}) {
    const CcaFactory factory = zoo.factory(name);
    const RunSummary untraced = run_single(plain, factory, 11);

    LayerTally cca_tally, trace_tally;
    Scenario traced = plain;
    traced.make_trace = [&](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
      return std::make_shared<TimedTrace>(plain.make_trace(seed), &trace_tally);
    };
    const RunSummary with_probes = run_single(
        traced, [&] { return std::make_unique<TimedCca>(factory(), &cca_tally); }, 11);
    expect_same(untraced, with_probes, name);
    EXPECT_GT(cca_tally.calls.load(), 0u) << name;
    EXPECT_GT(trace_tally.calls.load(), 0u) << name;
    EXPECT_EQ(cca_tally.inconsistent_flows.load(), 0u) << name;
  }
}

TEST(Decorators, TracedFleetEqualsUntraced) {
  FleetSpec spec = parking_lot_fleet(2, 20, 2, 96);
  spec.duration = sec(3);
  spec.churn.enabled = true;
  CcaZoo zoo(ZooConfig{});
  std::vector<CcaFactory> f;
  for (const std::string name : {"cubic", "bbr", "copa", "newreno"}) f.push_back(zoo.factory(name));
  auto pick = [&f](int flow) { return f[static_cast<std::size_t>(flow) % f.size()](); };
  LayerTally tally;
  FleetRunOptions opt;
  opt.mode = FleetMode::kSharded;
  opt.threads = 2;
  opt.health = true;
  const FleetSummary untraced = run_fleet(spec, pick, 5, opt);
  const FleetSummary traced = run_fleet(
      spec, [&](int flow) { return std::make_unique<TimedCca>(pick(flow), &tally); }, 5, opt);
  EXPECT_TRUE(deterministically_equal(untraced, traced));
  EXPECT_GT(tally.calls.load(), 0u);
  EXPECT_EQ(tally.flows.load(), untraced.flows.size());
  EXPECT_EQ(tally.inconsistent_flows.load(), 0u);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile({}, 0.95).has_value());
  // 199 samples: rank 190, 9 beyond.
  EXPECT_FALSE(tail_percentile(one_to(199), 0.95).has_value());
  // 200 samples: rank 190, exactly 10 beyond.
  ASSERT_TRUE(tail_percentile(one_to(200), 0.95).has_value());
  EXPECT_EQ(*tail_percentile(one_to(200), 0.95), 190.0);
  EXPECT_EQ(*tail_percentile(one_to(256), 0.95), 244.0);
  EXPECT_EQ(*tail_percentile(one_to(21), 0.5), 11.0);
  EXPECT_FALSE(tail_percentile(one_to(20), 0.99).has_value());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(StatusKb, SeesTouchedMemory) {
  const std::int64_t before = status_kb("VmHWM");
  ASSERT_GT(before, 0);
  EXPECT_GT(status_kb("VmRSS"), 0);
  EXPECT_EQ(status_kb("NoSuchField"), -1);
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> block(kBytes);
  std::memset(block.data(), 1, block.size());
  const std::int64_t after = status_kb("VmHWM");
  EXPECT_GE(after - before, static_cast<std::int64_t>(kBytes / 1024) * 9 / 10);
  EXPECT_EQ(block[kBytes - 1], 1);
}

}  // namespace
}  // namespace perfbench
