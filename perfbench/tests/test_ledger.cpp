// Self-time analysis and queue reconstruction on synthetic span sets.
#include <gtest/gtest.h>

#include "ledger.hpp"

namespace {

using perfbench::SpanRecord;

SpanRecord span(std::uint32_t lane, const char* category, const char* name,
                std::uint64_t start, std::uint64_t end) {
  SpanRecord s;
  s.lane = lane;
  s.category = category;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(Ledger, SelfTimeSubtractsDirectChildrenOnly) {
  const std::vector<SpanRecord> spans = {
      span(0, "bench", "run_spec", 0, 100),
      span(0, "shard", "execute:ab", 10, 40),
      span(0, "cache", "lookup", 15, 25),
      span(0, "shard", "assemble", 50, 60),
  };
  const perfbench::SpanForest forest = perfbench::build_forest(spans);
  EXPECT_EQ(forest.parent, (std::vector<std::ptrdiff_t>{-1, 0, 1, 0}));
  EXPECT_DOUBLE_EQ(forest.self_us[0], 60.0);
  EXPECT_DOUBLE_EQ(forest.self_us[1], 20.0);
  EXPECT_DOUBLE_EQ(forest.self_us[2], 10.0);
  EXPECT_DOUBLE_EQ(forest.self_us[3], 10.0);
}

TEST(Ledger, SpansOnOtherLanesAreNotChildren) {
  // Lane 1 runs inside lane 0's interval but on another thread: both
  // keep their whole duration as self time.
  const std::vector<SpanRecord> spans = {
      span(1, "solve", "solve:lifo", 10, 90),
      span(0, "batch", "solve_batch:1", 0, 100),
      span(1, "validate", "validate", 90, 95),
  };
  const perfbench::SpanForest forest = perfbench::build_forest(spans);
  EXPECT_EQ(forest.parent, (std::vector<std::ptrdiff_t>{-1, -1, -1}));
  EXPECT_DOUBLE_EQ(forest.self_us[0], 80.0);
  EXPECT_DOUBLE_EQ(forest.self_us[1], 100.0);
  EXPECT_DOUBLE_EQ(forest.self_us[2], 5.0);
}

TEST(Ledger, SpanKeyDropsNameDetail) {
  EXPECT_EQ(perfbench::span_key(span(0, "solve", "solve:affine_subset", 0, 1)),
            "solve/solve");
  EXPECT_EQ(perfbench::span_key(span(0, "daemon", "admit", 0, 1)),
            "daemon/admit");
}

TEST(Ledger, AdmitsMatchBatchesInFifoOrder) {
  // Two connections admit three misses; the batcher takes two, then one.
  const std::vector<SpanRecord> spans = {
      span(1, "daemon", "admit", 0, 10),
      span(2, "daemon", "admit", 5, 12),
      span(1, "daemon", "admit", 20, 25),
      span(3, "daemon", "batch:2", 30, 100),
      span(4, "daemon", "settle", 60, 62),
      span(5, "daemon", "settle", 90, 95),
      span(3, "daemon", "batch:1", 110, 150),
      span(3, "daemon", "settle", 140, 145),
  };
  const perfbench::QueueMatch q =
      perfbench::match_queue(spans, perfbench::build_forest(spans));
  EXPECT_EQ(q.batches, 2u);
  EXPECT_EQ(q.batched_requests, 3u);
  EXPECT_EQ(q.matched, 3u);
  EXPECT_DOUBLE_EQ(q.wait_us, (30 - 10) + (30 - 12) + (110 - 25));
  EXPECT_DOUBLE_EQ(q.residence_us, (62 + 95 - 0 - 5) + (145 - 20));
  EXPECT_EQ(q.hit_admits, 0u);
}

TEST(Ledger, HitAdmitsStayOutOfTheQueue) {
  // The first admit answered from the cache: it encodes its reply inside
  // its own span, so the batch takes the second admit.
  const std::vector<SpanRecord> spans = {
      span(1, "daemon", "admit", 0, 10),
      span(1, "cache", "lookup", 1, 4),
      span(1, "wire", "encode_frame", 5, 7),
      span(2, "daemon", "admit", 12, 14),
      span(2, "cache", "lookup", 12, 13),
      span(3, "daemon", "batch:1", 20, 40),
      span(3, "daemon", "settle", 30, 31),
  };
  const perfbench::QueueMatch q =
      perfbench::match_queue(spans, perfbench::build_forest(spans));
  EXPECT_EQ(q.hit_admits, 1u);
  EXPECT_DOUBLE_EQ(q.hit_residence_us, 10.0);
  EXPECT_EQ(q.matched, 1u);
  EXPECT_DOUBLE_EQ(q.wait_us, 20.0 - 14.0);
  EXPECT_DOUBLE_EQ(q.residence_us, 31.0 - 12.0);
}

TEST(Ledger, SweepPoolAccountingAndUnattributedShare) {
  perfbench::TracedPhase phase;
  phase.spans = {
      span(0, "bench", "run_spec", 0, 1000),
      span(0, "shard", "execute:x", 100, 900),
      span(0, "batch", "solve_batch:2", 200, 800),
      span(1, "solve", "solve:lifo", 210, 500),
      span(1, "validate", "validate", 510, 520),
      span(2, "solve", "solve:affine_subset", 210, 700),
  };
  phase.ops = 2;
  phase.passes = 1;
  phase.shards = 1;
  phase.threads = 2;
  const std::map<std::string, double> m = perfbench::layer_metrics(phase);
  EXPECT_DOUBLE_EQ(m.at("core.solve_us"), (290.0 + 490.0) / 2);
  EXPECT_DOUBLE_EQ(m.at("core.validate_us"), 5.0);
  // Busiest lane: 490 us of a 600 us batch.
  EXPECT_DOUBLE_EQ(m.at("core.batch_overhead_us"), (600.0 - 490.0) / 2);
  EXPECT_DOUBLE_EQ(m.at("core.pool_busy_share"), 790.0 / 1200.0);
  EXPECT_DOUBLE_EQ(m.at("experiments.shard_overhead_us"), 200.0 / 2);
  EXPECT_DOUBLE_EQ(m.at("affine.solve_s"), 490e-6);
  EXPECT_DOUBLE_EQ(m.at("bench.unattributed_share"), 0.2);
  EXPECT_DOUBLE_EQ(m.at("service.wire_us"), 0.0);
}

TEST(Ledger, ServeTransportIsRoundTripMinusResidence) {
  // One cache-hit request: the client round trip on lane 0 encodes and
  // decodes (6 us of wire), the daemon admits it in 20 us.
  perfbench::TracedPhase phase;
  phase.spans = {
      span(0, "bench", "roundtrip", 0, 100),
      span(0, "wire", "encode_frame", 0, 2),
      span(0, "wire", "decode_frame", 96, 100),
      span(1, "wire", "decode_frame", 30, 31),
      span(1, "daemon", "admit", 40, 60),
      span(1, "cache", "lookup", 41, 50),
      span(1, "wire", "encode_frame", 55, 57),
  };
  phase.ops = 1;
  phase.latency_total_us = 100.0;
  const std::map<std::string, double> m = perfbench::layer_metrics(phase);
  EXPECT_DOUBLE_EQ(m.at("service.wire_us"), 2.0 + 4.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(m.at("service.admit_us"), 20.0 - 9.0 - 2.0);
  EXPECT_DOUBLE_EQ(m.at("service.transport_us"), 100.0 - 20.0 - 6.0 - 1.0);
  EXPECT_DOUBLE_EQ(m.at("experiments.cache_lookup_us"), 9.0);
  // The residence is the admit span and its children: nothing is left.
  EXPECT_DOUBLE_EQ(m.at("bench.unattributed_share"), 0.0);
}

TEST(Ledger, ServeMissResidenceSplitsIntoQueueBatchAndSolve) {
  // One miss: admitted 10-20, batched at 30, solved 35-75 on a pool lane
  // and settled 80-82, inside a client round trip of 0-100.
  perfbench::TracedPhase phase;
  phase.spans = {
      span(0, "bench", "roundtrip", 0, 100),
      span(1, "daemon", "admit", 10, 20),
      span(2, "daemon", "batch:1", 30, 85),
      span(2, "batch", "solve_batch:1", 31, 84),
      span(3, "solve", "solve:fifo_optimal", 35, 75),
      span(2, "daemon", "settle", 80, 82),
  };
  phase.ops = 1;
  phase.threads = 4;
  phase.latency_total_us = 100.0;
  const std::map<std::string, double> m = perfbench::layer_metrics(phase);
  EXPECT_DOUBLE_EQ(m.at("service.queue_wait_us"), 10.0);
  // Residence 10-82: admit 10, queue 10, batch overhead 53 - 40 = 13,
  // solve 40, settle 2: 75 of 72 us, so the ledger over-explains by 3.
  EXPECT_DOUBLE_EQ(m.at("core.batch_overhead_us"), 13.0);
  EXPECT_DOUBLE_EQ(m.at("service.transport_us"), 100.0 - 72.0);
  EXPECT_NEAR(m.at("bench.unattributed_share"), -0.03, 1e-12);
}

}  // namespace
