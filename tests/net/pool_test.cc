#include "net/pool.h"

#include <gtest/gtest.h>

#include <utility>

#include "net/network.h"
#include "net/queue.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"

namespace pert::net {
namespace {

TEST(PacketPool, FirstAcquireAllocatesReleaseParksReuseRecycles) {
  PacketPool pool;
  auto p = pool.acquire();
  Packet* raw = p.get();
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().recycled, 0u);
  EXPECT_EQ(pool.outstanding(), 1u);

  p.reset();  // deleter routes the packet back into the pool
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.parked(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);

  auto q = pool.acquire();
  EXPECT_EQ(q.get(), raw) << "released packet must be reused, not re-allocated";
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(PacketPool, ReuseResetsEveryFieldToDefaults) {
  PacketPool pool;
  auto p = pool.acquire();
  // Dirty every field a stale reuse could leak.
  p->uid = 77;
  p->flow = 5;
  p->src = 1;
  p->dst = 2;
  p->src_port = 3;
  p->dst_port = 4;
  p->size_bytes = 40;
  p->ttl = 1;
  p->is_ack = true;
  p->seq = 123;
  p->ack = 456;
  p->fin = true;
  p->ece = true;
  p->cwr = true;
  p->ecn = Ecn::Ce;
  p->ts_echo = 1.5;
  p->ts_rx = 2.5;
  p->sack[0] = SackBlock{10, 20};
  p->sack[1] = SackBlock{30, 40};
  p->n_sack = 2;
  p.reset();

  auto q = pool.acquire();
  const Packet fresh;
  EXPECT_EQ(q->uid, fresh.uid);
  EXPECT_EQ(q->flow, fresh.flow);
  EXPECT_EQ(q->src, fresh.src);
  EXPECT_EQ(q->dst, fresh.dst);
  EXPECT_EQ(q->src_port, fresh.src_port);
  EXPECT_EQ(q->dst_port, fresh.dst_port);
  EXPECT_EQ(q->size_bytes, fresh.size_bytes);
  EXPECT_EQ(q->ttl, fresh.ttl);
  EXPECT_EQ(q->is_ack, fresh.is_ack);
  EXPECT_EQ(q->seq, fresh.seq);
  EXPECT_EQ(q->ack, fresh.ack);
  EXPECT_EQ(q->fin, fresh.fin);
  EXPECT_EQ(q->ece, fresh.ece);
  EXPECT_EQ(q->cwr, fresh.cwr);
  EXPECT_EQ(q->ecn, fresh.ecn);
  EXPECT_EQ(q->ts_echo, fresh.ts_echo);
  EXPECT_EQ(q->ts_rx, fresh.ts_rx);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q->sack[static_cast<std::size_t>(i)].start, 0);
    EXPECT_EQ(q->sack[static_cast<std::size_t>(i)].end, 0);
  }
  EXPECT_EQ(q->n_sack, 0);
}

TEST(PacketPool, CopyingAPooledPacketDoesNotInheritThePool) {
  PacketPool pool;
  auto p = pool.acquire();
  // A by-value copy is a plain heap packet: destroying it must delete it,
  // not release it into the pool (which would double-manage the slot).
  auto copy = PacketPtr{new Packet(*p)};
  EXPECT_EQ(copy->uid, p->uid);
  copy.reset();
  EXPECT_EQ(pool.stats().releases, 0u);
  EXPECT_EQ(pool.parked(), 0u);
  p.reset();
  EXPECT_EQ(pool.stats().releases, 1u);
}

TEST(PacketPool, UnpooledMakePacketBypassesAnyPool) {
  auto p = make_packet();
  EXPECT_NE(p, nullptr);
  // Destroying it is a plain delete (ASan would catch a mismatch).
}

TEST(PacketPool, NetworkMakePacketAssignsFreshUidsAcrossReuse) {
  Network net(1);
  auto a = net.make_packet();
  const std::uint64_t uid_a = a->uid;
  Packet* raw = a.get();
  a.reset();
  auto b = net.make_packet();
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(b->uid, uid_a + 1) << "uids stay globally unique across reuse";
}

TEST(PacketPool, DroppedPacketsReturnToTheirPool) {
  Network net(1);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 1e6, 0.001,
               std::make_unique<DropTailQueue>(net.sched(), 2));
  net.compute_routes();
  // Flood a 2-packet queue: overflow drops must come back to the pool.
  for (int i = 0; i < 16; ++i) {
    auto p = net.make_packet();
    p->dst = b->id();
    p->dst_port = 1;  // no listener: delivered packets die in routing too
    a->send(std::move(p));
  }
  net.run_until(5.0);
  EXPECT_EQ(net.packet_pool().outstanding(), 0u)
      << "every packet (dropped, delivered, or expired) returns to the pool";
  EXPECT_EQ(net.packet_pool().stats().acquires, 16u);
}

TEST(PacketPool, NetworkPoolFollowsShardCursor) {
  Network net(1);
  net.set_shards(2);
  PacketPtr held;
  {
    const Network::ShardCursor at1(net, 1);
    held = net.make_packet();
    EXPECT_EQ(net.packet_pool().outstanding(), 1u)
        << "packet_pool() is the active shard's pool";
  }
  EXPECT_EQ(net.packet_pool().outstanding(), 0u) << "shard 0 lent nothing";
  held.reset();
  const Network::ShardCursor at1(net, 1);
  EXPECT_EQ(net.packet_pool().stats().releases, 1u);
}

/// The acceptance gate for the allocation-free hot path: once a loaded
/// dumbbell reaches steady state, the simulation performs zero further
/// packet allocations — every make_packet is served from the free list.
TEST(PacketPool, SteadyStateDumbbellAllocatesZeroPackets) {
  Network net(1);
  auto* lhs = net.add_node();
  auto* r1 = net.add_node();
  auto* r2 = net.add_node();
  auto* rhs = net.add_node();
  net.add_duplex_droptail(lhs, r1, 100e6, 0.002, 1000);
  net.add_duplex_droptail(r1, r2, 10e6, 0.02, 100);
  net.add_duplex_droptail(r2, rhs, 100e6, 0.002, 1000);
  net.compute_routes();
  tcp::TcpConfig cfg;
  for (int i = 0; i < 4; ++i) {
    net.add_agent<tcp::TcpSink>(rhs, 10 + i, net, cfg);
    auto* s = net.add_agent<tcp::TcpSender>(lhs, 10 + i, net, cfg, i);
    s->connect(rhs->id(), 10 + i);
    s->start(0.0);
  }
  net.run_until(2.0);  // warm-up: pool grows to the in-flight high-water mark
  const auto warm = net.packet_pool().stats();
  EXPECT_GT(warm.allocations, 0u);

  net.run_until(8.0);  // steady state: three times the warm-up span
  const auto steady = net.packet_pool().stats();
  EXPECT_EQ(steady.allocations, warm.allocations)
      << "steady-state forwarding must not allocate packets";
  EXPECT_GT(steady.acquires, warm.acquires)
      << "traffic kept flowing (reuse, not silence)";
  EXPECT_GT(steady.recycled, warm.recycled);
}

}  // namespace
}  // namespace pert::net
