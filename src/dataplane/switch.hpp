// A routed switch node: LPM forwarding + a chain of programmable
// pipeline stages, plus the TTL/ICMP behaviour traceroute depends on.
#pragma once

#include <memory>
#include <vector>

#include "dataplane/pipeline.hpp"
#include "net/lpm.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace intox::dataplane {

class RoutedSwitch : public sim::Node {
 public:
  RoutedSwitch(std::string name, sim::Scheduler& sched,
               net::Ipv4Addr router_addr)
      : sim::Node(std::move(name)), sched_(sched), addr_(router_addr) {}

  /// Installs prefix -> egress port.
  void add_route(const net::Prefix& prefix, int port) {
    routes_.insert(prefix, static_cast<std::uint32_t>(port));
  }

  /// Appends a pipeline stage; stages run in insertion order and may
  /// override the routing decision. The switch does not own processors.
  void add_processor(PacketProcessor* p) { pipeline_.push_back(p); }

  /// Address used as the source of ICMP time-exceeded replies — the
  /// identity this hop reveals to traceroute. NetHide-style obfuscation
  /// (and malicious topology faking) works by rewriting this.
  void set_reply_addr(net::Ipv4Addr a) { reply_addr_ = a; }
  [[nodiscard]] net::Ipv4Addr addr() const { return addr_; }
  [[nodiscard]] net::Ipv4Addr reply_addr() const {
    return reply_addr_.value_or(addr_);
  }

  void receive(net::Packet pkt, int ingress_port) override;

  struct Counters {
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_pipeline = 0;
    std::uint64_t ttl_expired = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void send_time_exceeded(const net::Packet& expired);

  sim::Scheduler& sched_;
  net::Ipv4Addr addr_;
  std::optional<net::Ipv4Addr> reply_addr_;
  net::LpmTable<std::uint32_t> routes_;
  std::vector<PacketProcessor*> pipeline_;
  Counters counters_;
};

/// A terminal node that hands every received packet to a callback —
/// used for hosts, measurement sinks, and protocol endpoints.
class CallbackNode : public sim::Node {
 public:
  using Handler = std::function<void(net::Packet, int)>;
  CallbackNode(std::string name, Handler handler)
      : sim::Node(std::move(name)), handler_(std::move(handler)) {}

  void receive(net::Packet pkt, int ingress_port) override {
    if (handler_) handler_(std::move(pkt), ingress_port);
  }
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Exposes Node::send for driving traffic into the network.
  void inject(int port, net::Packet pkt) { send(port, std::move(pkt)); }

 private:
  Handler handler_;
};

}  // namespace intox::dataplane
