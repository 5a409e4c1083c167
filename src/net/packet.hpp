// Structural packet model shared by the simulator and the data-plane code.
//
// Packets carry real protocol fields (the ones the attacks manipulate:
// TCP sequence numbers and flags, TTL, ICMP type/code) but model payloads
// by size only — the systems under study never inspect payload bytes.
// There is no wire format: every component passes `Packet` values, and
// `size_bytes` is the one place header lengths enter the model.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "net/ipv4.hpp"

namespace intox::net {

enum class IpProto : std::uint8_t { kIcmp = 1, kTcp = 6, kUdp = 17 };

/// The flow key used by every hash-indexed data-plane structure.
struct FiveTuple {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProto proto = IpProto::kTcp;

  friend constexpr auto operator<=>(const FiveTuple&,
                                    const FiveTuple&) = default;

  /// Key for the reverse direction of the same conversation.
  [[nodiscard]] constexpr FiveTuple reversed() const {
    return {dst, src, dst_port, src_port, proto};
  }
};

/// Stable 32-bit hash of a 5-tuple (CRC32 over the packed fields), as a
/// programmable switch would compute it. Public and seedable — attackers
/// in this codebase use the very same function to engineer collisions.
std::uint32_t flow_hash(const FiveTuple& t, std::uint32_t seed = 0);

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  std::uint16_t window = 65535;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

struct IcmpHeader {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
};

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint8_t ttl = 64;
  std::variant<TcpHeader, UdpHeader, IcmpHeader> l4 = TcpHeader{};
  /// Payload length in bytes (modeled, not materialized).
  std::uint32_t payload_bytes = 0;
  /// Simulator-side ground-truth tag identifying the originating flow.
  /// NOT part of the wire format; never read by systems under test.
  std::uint64_t flow_tag = 0;

  [[nodiscard]] IpProto proto() const {
    if (std::holds_alternative<TcpHeader>(l4)) return IpProto::kTcp;
    if (std::holds_alternative<UdpHeader>(l4)) return IpProto::kUdp;
    return IpProto::kIcmp;
  }
  [[nodiscard]] FiveTuple five_tuple() const;
  [[nodiscard]] const TcpHeader* tcp() const {
    return std::get_if<TcpHeader>(&l4);
  }
  [[nodiscard]] TcpHeader* tcp() { return std::get_if<TcpHeader>(&l4); }
  [[nodiscard]] const UdpHeader* udp() const {
    return std::get_if<UdpHeader>(&l4);
  }
  [[nodiscard]] const IcmpHeader* icmp() const {
    return std::get_if<IcmpHeader>(&l4);
  }

  /// Total on-wire size: IPv4 header + L4 header + payload.
  [[nodiscard]] std::uint32_t size_bytes() const;
};

/// Human-readable one-line description, for logs and debugging.
std::string to_string(const Packet& p);

}  // namespace intox::net
