// Span arithmetic for the traced run: nested spans in, per-layer self time
// out.
//
// A span is opened and closed around one call into a layer's entry point.
// Its self time is its duration minus the durations of the spans opened
// inside it (its children). Host time outside every top-level span is
// "uncovered". By construction the self times of all layers plus the
// uncovered time add up to the traced total exactly, in integer
// nanoseconds; balanced() checks it.
//
// The ledger takes timestamps as arguments and reads no clock itself, so the
// self-test can drive it with a synthetic span set.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

enum class Layer : std::uint8_t {
  kSimDeliver,   // a simulator step that ran a host handler
  kSimTimer,     // a simulator step that ran none (timers, service ends)
  kLb,           // LoadBalancer::handle_batch
  kCorePick,     // RoutingPolicy::pick into InbandLbPolicy
  kCoreOnPacket, // RoutingPolicy::on_packet into InbandLbPolicy
  kTcpServer,    // TcpHost::handle_batch on a server host
  kTcpClient,    // TcpHost::handle_batch on a client host
  kFault,        // SendInterceptor calls into FaultLayer
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t items = 0;    // packets (or steps) the spans carried
};

class SpanLedger {
 public:
  static constexpr std::size_t kMaxDepth = 16;

  // Marks the start of the traced interval.
  void start(std::int64_t now_ns) { start_ns_ = now_ns; }

  void begin(Layer layer, std::int64_t now_ns) {
    stack_[depth_++] = Frame{layer, now_ns, 0, false};
    if (layer == Layer::kLb || layer == Layer::kTcpServer ||
        layer == Layer::kTcpClient) {
      // A host handler: its enclosing simulator step is a delivery step.
      for (std::size_t i = 0; i + 1 < depth_; ++i) stack_[i].ran_handler = true;
    }
  }

  // Closes the innermost span, which carried `items` units of work. A
  // kSimTimer span that ran a host handler is booked as kSimDeliver.
  void end(std::int64_t now_ns, std::uint64_t items = 1) {
    const Frame f = stack_[--depth_];
    const std::int64_t dur = now_ns - f.start_ns;
    Layer layer = f.layer;
    if (layer == Layer::kSimTimer && f.ran_handler) layer = Layer::kSimDeliver;
    LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
    t.self_ns += dur - f.child_ns;
    ++t.spans;
    t.items += items;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    } else {
      covered_ns_ += dur;
    }
  }

  // Marks the end of the traced interval; every span must be closed.
  void stop(std::int64_t now_ns) { total_ns_ = now_ns - start_ns_; }

  std::size_t depth() const { return depth_; }
  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  std::int64_t total_ns() const { return total_ns_; }
  std::int64_t uncovered_ns() const { return total_ns_ - covered_ns_; }

  // Self times plus uncovered time equal the traced total.
  bool balanced() const {
    std::int64_t sum = uncovered_ns();
    for (const LayerTotals& t : totals_) sum += t.self_ns;
    return depth_ == 0 && sum == total_ns_;
  }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    bool ran_handler;
  };

  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::int64_t start_ns_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t covered_ns_ = 0;
};

}  // namespace perfbench
