#include "net/packet.hpp"

#include <gtest/gtest.h>

namespace intox::net {
namespace {

Packet make_tcp_packet() {
  Packet p;
  p.src = Ipv4Addr{10, 0, 0, 1};
  p.dst = Ipv4Addr{10, 0, 0, 2};
  p.ttl = 61;
  TcpHeader t;
  t.src_port = 43210;
  t.dst_port = 443;
  t.seq = 0xdeadbeef;
  t.ack = 0x1234;
  t.syn = true;
  t.ack_flag = true;
  t.window = 29200;
  p.l4 = t;
  p.payload_bytes = 100;
  return p;
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  FiveTuple t{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1000, 80,
              IpProto::kTcp};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src, t.dst);
  EXPECT_EQ(r.dst, t.src);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FlowHash, StableAndSeedable) {
  FiveTuple t{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1000, 80,
              IpProto::kTcp};
  EXPECT_EQ(flow_hash(t), flow_hash(t));
  EXPECT_NE(flow_hash(t, 0), flow_hash(t, 7));
  FiveTuple u = t;
  u.src_port = 1001;
  EXPECT_NE(flow_hash(t), flow_hash(u));
}

TEST(Packet, FiveTupleExtraction) {
  Packet p = make_tcp_packet();
  FiveTuple t = p.five_tuple();
  EXPECT_EQ(t.src, p.src);
  EXPECT_EQ(t.src_port, 43210);
  EXPECT_EQ(t.dst_port, 443);
  EXPECT_EQ(t.proto, IpProto::kTcp);
}

TEST(Packet, SizeAccounting) {
  Packet p = make_tcp_packet();
  EXPECT_EQ(p.size_bytes(), 20u + 20u + 100u);
  Packet u;
  u.l4 = UdpHeader{53, 53};
  u.payload_bytes = 10;
  EXPECT_EQ(u.size_bytes(), 20u + 8u + 10u);
  // An ICMP TTL-exceeded reply as RoutedSwitch builds it (28 bytes of
  // quoted header). Link charges this size for serialization delay,
  // queue bytes and RED.
  Packet ic;
  ic.l4 = IcmpHeader{IcmpType::kTimeExceeded, 0, 0, 0};
  ic.payload_bytes = 28;
  EXPECT_EQ(ic.size_bytes(), 20u + 8u + 28u);
}

TEST(Packet, ToStringMentionsFlags) {
  const std::string s = to_string(make_tcp_packet());
  EXPECT_NE(s.find("SYN"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1"), std::string::npos);
}

}  // namespace
}  // namespace intox::net
