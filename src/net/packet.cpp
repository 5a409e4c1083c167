#include "net/packet.hpp"

#include <array>
#include <cstring>

#include "net/hash.hpp"

namespace intox::net {

namespace {

constexpr std::size_t kIpv4HeaderLen = 20;
constexpr std::size_t kTcpHeaderLen = 20;
constexpr std::size_t kUdpHeaderLen = 8;
constexpr std::size_t kIcmpHeaderLen = 8;

std::size_t l4_header_len(const Packet& p) {
  switch (p.proto()) {
    case IpProto::kTcp: return kTcpHeaderLen;
    case IpProto::kUdp: return kUdpHeaderLen;
    case IpProto::kIcmp: return kIcmpHeaderLen;
  }
  return 0;
}

}  // namespace

std::uint32_t flow_hash(const FiveTuple& t, std::uint32_t seed) {
  // Pack fields explicitly; hashing the struct directly would include
  // padding bytes with unspecified contents.
  std::array<std::byte, 13> key{};
  std::uint32_t src = t.src.value();
  std::uint32_t dst = t.dst.value();
  std::memcpy(key.data(), &src, 4);
  std::memcpy(key.data() + 4, &dst, 4);
  std::memcpy(key.data() + 8, &t.src_port, 2);
  std::memcpy(key.data() + 10, &t.dst_port, 2);
  key[12] = static_cast<std::byte>(t.proto);
  return crc32(key, seed);
}

FiveTuple Packet::five_tuple() const {
  FiveTuple t;
  t.src = src;
  t.dst = dst;
  t.proto = proto();
  if (const auto* h = tcp()) {
    t.src_port = h->src_port;
    t.dst_port = h->dst_port;
  } else if (const auto* u = udp()) {
    t.src_port = u->src_port;
    t.dst_port = u->dst_port;
  }
  return t;
}

std::uint32_t Packet::size_bytes() const {
  return static_cast<std::uint32_t>(kIpv4HeaderLen + l4_header_len(*this)) +
         payload_bytes;
}

std::string to_string(const Packet& p) {
  std::string out = to_string(p.src) + " > " + to_string(p.dst);
  if (const auto* t = p.tcp()) {
    out += " tcp " + std::to_string(t->src_port) + ">" +
           std::to_string(t->dst_port) + " seq=" + std::to_string(t->seq);
    if (t->syn) out += " SYN";
    if (t->ack_flag) out += " ACK";
    if (t->fin) out += " FIN";
    if (t->rst) out += " RST";
  } else if (const auto* u = p.udp()) {
    out += " udp " + std::to_string(u->src_port) + ">" +
           std::to_string(u->dst_port);
  } else if (const auto* ic = p.icmp()) {
    out += " icmp type=" + std::to_string(static_cast<int>(ic->type)) +
           " code=" + std::to_string(ic->code);
  }
  out += " len=" + std::to_string(p.size_bytes()) +
         " ttl=" + std::to_string(p.ttl);
  return out;
}

}  // namespace intox::net
