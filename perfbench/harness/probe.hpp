// Per-layer call accounting for the traced benchmark run.
//
// The harness wraps every call it makes into a library layer in a Scope.
// A Scope adds one call and its wall time to its layer's totals on every
// call, and keeps a full span (layer, parent, start, end) only for the
// first kMaxSpans calls of a simulation: a hijack run makes ~10 M layer
// calls, far too many spans to hold. A null Probe turns every Scope into
// a branch and nothing else; that is the untraced run.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace intox::perfbench {

enum class Layer : std::uint8_t {
  kSchedRun,       // sim::Scheduler::run_until
  kLinkTransmit,   // sim::Link::transmit from a harness sink
  kBottleneck,     // sim::Link::transmit into the PCC bottleneck (tap too)
  kSwitchReceive,  // dataplane::RoutedSwitch::receive (+ egress transmit)
  kBlinkProcess,   // blink::BlinkNode::process
  kPccOnAck,       // pcc::PccSender::on_ack
  kPccOnData,      // pcc::PccReceiver::on_data (+ the ACK's transmit)
  kPccSetup,       // PccSender construction, MitM attach, PccSender::start
  kSynth,          // trafficgen::synthesize_trace / _malicious_flows
  kPopulate,       // trafficgen::FlowPopulation::add_*
  kStart,          // trafficgen::FlowPopulation::start_all
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames{
      "sched.run_until",     "link.transmit",   "link.transmit_bottleneck",
      "switch.receive",      "blink.process",   "pcc.on_ack",
      "pcc.on_data",         "pcc.setup",       "trafficgen.synth",
      "trafficgen.populate", "trafficgen.start"};
  return kNames[static_cast<std::size_t>(layer)];
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kCount;
  std::int32_t parent = -1;  // index into the same span list; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Probe {
 public:
  static constexpr std::size_t kMaxSpans = 4096;

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  [[nodiscard]] const Totals& at(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Wall time of the calls made directly inside run_until; run_until's
  /// own total minus this is the scheduler's self time.
  [[nodiscard]] std::int64_t sched_child_ns() const { return sched_child_ns_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Adds another simulation's totals (not its spans).
  void add_totals(const Probe& other) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      totals_[i].calls += other.totals_[i].calls;
      totals_[i].ns += other.totals_[i].ns;
    }
    sched_child_ns_ += other.sched_child_ns_;
  }

 private:
  friend class Scope;
  static constexpr int kMaxDepth = 8;

  std::int64_t open(Layer layer) {
    std::int32_t index = -1;
    const std::int64_t start = now_ns();
    if (spans_.size() < kMaxSpans) {
      index = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(Span{layer, depth_ > 0 ? open_span_[depth_ - 1] : -1,
                            start, 0});
    }
    if (depth_ < kMaxDepth) {
      open_layer_[depth_] = layer;
      open_span_[depth_] = index;
    }
    ++depth_;
    return start;
  }

  void close(Layer layer, std::int64_t start) {
    const std::int64_t end = now_ns();
    --depth_;
    Totals& t = totals_[static_cast<std::size_t>(layer)];
    ++t.calls;
    t.ns += end - start;
    if (depth_ < kMaxDepth && open_span_[depth_] >= 0) {
      spans_[static_cast<std::size_t>(open_span_[depth_])].end_ns = end;
    }
    if (depth_ > 0 && depth_ <= kMaxDepth &&
        open_layer_[depth_ - 1] == Layer::kSchedRun) {
      sched_child_ns_ += end - start;
    }
  }

  std::array<Totals, kLayerCount> totals_{};
  std::int64_t sched_child_ns_ = 0;
  std::vector<Span> spans_;
  int depth_ = 0;
  std::array<Layer, kMaxDepth> open_layer_{};
  std::array<std::int32_t, kMaxDepth> open_span_{};
};

/// Times one call into a layer; a no-op when `probe` is null.
class Scope {
 public:
  Scope(Probe* probe, Layer layer) : probe_(probe), layer_(layer) {
    if (probe_) start_ = probe_->open(layer_);
  }
  ~Scope() {
    if (probe_) probe_->close(layer_, start_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe* probe_;
  Layer layer_;
  std::int64_t start_ = 0;
};

}  // namespace intox::perfbench
