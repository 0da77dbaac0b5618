// Probes the benchmark puts around the program's public interfaces: timing
// decorators for congestion controllers and capacity traces, a percentile
// that refuses thin tails, a /proc RSS reader and an output digest.
//
// Everything here times calls from outside the library; nothing in src/ is
// instrumented. A decorator keeps its totals in plain members on the thread
// that drives it and adds them to a shared, atomic tally once, when the
// network that owns it is destroyed.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/congestion_control.h"
#include "trace/rate_trace.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one layer and the nanoseconds they took, summed across threads.
struct LayerTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
  /// Controllers whose flow ever saw more ACK + loss callbacks than sends.
  std::atomic<std::uint64_t> inconsistent_flows{0};
  std::atomic<std::uint64_t> flows{0};
};

/// Times every feedback callback of a top-level controller. Never wrap the
/// controllers inside Libra (it dynamic_casts its inner CUBIC/BBR) or a
/// training controller (the trainer dynamic_casts to read episode rewards).
class TimedCca final : public libra::CongestionControl {
 public:
  TimedCca(std::unique_ptr<libra::CongestionControl> inner, LayerTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TimedCca() override {
    tally_->calls.fetch_add(calls_, std::memory_order_relaxed);
    tally_->ns.fetch_add(ns_, std::memory_order_relaxed);
    tally_->flows.fetch_add(1, std::memory_order_relaxed);
    if (acks_ + losses_ > sends_)
      tally_->inconsistent_flows.fetch_add(1, std::memory_order_relaxed);
  }
  TimedCca(const TimedCca&) = delete;
  TimedCca& operator=(const TimedCca&) = delete;

  void on_packet_sent(const libra::SendEvent& ev) override {
    ++sends_;
    const std::int64_t t0 = now_ns();
    inner_->on_packet_sent(ev);
    stop(t0);
  }
  void on_ack(const libra::AckEvent& ack) override {
    ++acks_;
    const std::int64_t t0 = now_ns();
    inner_->on_ack(ack);
    stop(t0);
  }
  void on_loss(const libra::LossEvent& loss) override {
    ++losses_;
    const std::int64_t t0 = now_ns();
    inner_->on_loss(loss);
    stop(t0);
  }
  void on_tick(libra::SimTime now) override {
    const std::int64_t t0 = now_ns();
    inner_->on_tick(now);
    stop(t0);
  }

  // Untimed forwards: getters the sender polls land in the caller's layer.
  bool wants_tick() const override { return inner_->wants_tick(); }
  libra::RateBps pacing_rate() const override { return inner_->pacing_rate(); }
  std::int64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  std::string name() const override { return inner_->name(); }
  std::int64_t memory_bytes() const override { return inner_->memory_bytes(); }
  int telemetry_stage() const override { return inner_->telemetry_stage(); }
  void bind_recorder(libra::FlightRecorder* rec, int flow_id) override {
    CongestionControl::bind_recorder(rec, flow_id);
    inner_->bind_recorder(rec, flow_id);
  }
  void bind_telemetry(libra::Telemetry* telemetry, int flow_id) override {
    CongestionControl::bind_telemetry(telemetry, flow_id);
    inner_->bind_telemetry(telemetry, flow_id);
  }

 private:
  void stop(std::int64_t t0) {
    ns_ += now_ns() - t0;
    ++calls_;
  }

  std::unique_ptr<libra::CongestionControl> inner_;
  LayerTally* tally_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
  std::int64_t sends_ = 0, acks_ = 0, losses_ = 0;
};

/// Times every capacity lookup of a trace. Clones share the tally.
class TimedTrace final : public libra::RateTrace {
 public:
  TimedTrace(std::shared_ptr<const libra::RateTrace> inner, LayerTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TimedTrace() override {
    tally_->calls.fetch_add(calls_, std::memory_order_relaxed);
    tally_->ns.fetch_add(ns_, std::memory_order_relaxed);
  }
  TimedTrace(const TimedTrace&) = delete;
  TimedTrace& operator=(const TimedTrace&) = delete;

  libra::RateBps rate_at(libra::SimTime t) const override {
    const std::int64_t t0 = now_ns();
    const libra::RateBps r = inner_->rate_at(t);
    stop(t0);
    return r;
  }
  libra::RateBps average_rate(libra::SimTime t0, libra::SimTime t1) const override {
    const std::int64_t start = now_ns();
    const libra::RateBps r = inner_->average_rate(t0, t1);
    stop(start);
    return r;
  }
  std::unique_ptr<libra::RateTrace> clone() const override {
    return std::make_unique<TimedTrace>(
        std::shared_ptr<const libra::RateTrace>(inner_->clone()), tally_);
  }

 private:
  void stop(std::int64_t t0) const {
    ns_ += now_ns() - t0;
    ++calls_;
  }

  std::shared_ptr<const libra::RateTrace> inner_;
  LayerTally* tally_;
  // Lookups are const; the counters are the decorator's own bookkeeping.
  mutable std::uint64_t calls_ = 0;
  mutable std::int64_t ns_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, reported only when
/// at least `min_beyond` samples lie above it; a thinner tail is one or two
/// outliers, not a percentile.
inline std::optional<double> tail_percentile(std::vector<double> values, double q,
                                             std::size_t min_beyond = 10) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Value in kB of a "<key>: <n> kB" line of /proc/self/status, e.g. VmHWM
/// (peak resident set) or VmRSS (current); -1 when the line is absent.
inline std::int64_t status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    try {
      return std::stoll(line.substr(prefix.size()));
    } catch (const std::exception&) {
      return -1;
    }
  }
  return -1;
}

/// FNV-1a over a canonical text rendering of simulated outputs.
class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }
  /// Round-trip-exact rendering, so equal digests mean equal bits.
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
