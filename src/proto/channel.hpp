// Simulated control channel.
//
// A bidirectional message channel between the GRIPhoN controller and one
// EMS, carried over the carrier's DCN (data communications network). The
// channel delivers whole frames with a propagation+processing latency and
// an optional loss probability (DCN links do drop; the request client
// retries). Delivery order per direction is FIFO.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "proto/wire.hpp"
#include "sim/engine.hpp"

namespace griphon::proto {

class ControlChannel;

/// One end of a channel. Handlers receive whole frames (Bytes).
class Endpoint {
 public:
  using Handler = std::function<void(const Bytes&)>;

  void on_receive(Handler handler) { handler_ = std::move(handler); }
  /// Send a frame to the peer endpoint.
  void send(Bytes frame);

 private:
  friend class ControlChannel;
  void deliver(const Bytes& frame) {
    if (handler_) handler_(frame);
  }

  ControlChannel* channel_ = nullptr;
  Endpoint* peer_ = nullptr;
  Handler handler_;
};

/// What a fault hook decided for one frame: lose it, deliver it twice, or
/// hold it back before the normal latency sample. Discarding a decision
/// would silently skip an injected fault, so the producer must consume it.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  SimTime extra_delay{};
};

/// Chaos interface: consulted once per transmitted frame. Implemented by
/// the fault injector; null (the default) keeps transmit() on a one-pointer-
/// test fast path.
class ChannelFaultHook {
 public:
  virtual ~ChannelFaultHook() = default;
  [[nodiscard]] virtual FaultDecision on_frame() = 0;
};

class ControlChannel {
 public:
  struct Params {
    LatencyModel latency = LatencyModel::fixed(milliseconds(5));  // griphon-lint: allow(unset-option) test_proto Channel.FifoEvenWithJitter: jittered latency reaches the FIFO clamp
    double loss_probability = 0.0;  // griphon-lint: allow(unset-option) test_proto Channel.LossDropsFrames, RequestClient.RetriesOnLossAndRecovers: the frame-loss and retransmit paths
  };

  ControlChannel(sim::Engine* engine, Params params);

  [[nodiscard]] Endpoint& a() noexcept { return a_; }
  [[nodiscard]] Endpoint& b() noexcept { return b_; }

  [[nodiscard]] std::size_t frames_sent() const noexcept { return sent_; }
  [[nodiscard]] std::size_t frames_dropped() const noexcept {
    return dropped_;
  }

  /// Attach/detach the chaos hook (null detaches).
  void set_fault_hook(ChannelFaultHook* hook) noexcept { fault_hook_ = hook; }

 private:
  friend class Endpoint;
  void transmit(Endpoint* to, Bytes frame);

  sim::Engine* engine_;
  Params params_;
  ChannelFaultHook* fault_hook_ = nullptr;
  Endpoint a_;
  Endpoint b_;
  SimTime last_to_a_{};
  SimTime last_to_b_{};
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace griphon::proto
