#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string_view>

namespace perfbench {

namespace {

double duration_us(const SpanRecord& span) {
  return static_cast<double>(span.end_us - span.start_us);
}

/// N of a "batch:N" or "solve_batch:N" span name (0 when absent).
std::size_t name_count(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(name.c_str() + colon + 1, nullptr, 10));
}

std::vector<std::size_t> indices_with_key(const std::vector<SpanRecord>& spans,
                                          std::string_view key) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (span_key(spans[i]) == key) out.push_back(i);
  }
  return out;
}

}  // namespace

std::string span_key(const SpanRecord& span) {
  const std::size_t colon = span.name.find(':');
  return span.category + "/" +
         (colon == std::string::npos ? span.name : span.name.substr(0, colon));
}

SpanForest build_forest(const std::vector<SpanRecord>& spans) {
  SpanForest forest;
  forest.parent.assign(spans.size(), -1);
  forest.self_us.resize(spans.size());
  std::vector<double> covered(spans.size(), 0.0);

  // Outer spans first: by lane, then start, then the longer one.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    return a < b;
  });

  std::vector<std::size_t> open;  // spans enclosing the current one
  std::uint32_t lane = 0;
  for (const std::size_t i : order) {
    const SpanRecord& span = spans[i];
    if (open.empty() || span.lane != lane) {
      open.clear();
      lane = span.lane;
    }
    while (!open.empty() && spans[open.back()].end_us <= span.start_us) {
      open.pop_back();
    }
    if (!open.empty()) {
      const std::size_t parent = open.back();
      forest.parent[i] = static_cast<std::ptrdiff_t>(parent);
      // Clip to the parent: timestamps are whole microseconds, so a child
      // may round past its parent's end by one tick.
      const std::uint64_t end = std::min(span.end_us, spans[parent].end_us);
      covered[parent] += static_cast<double>(end - span.start_us);
    }
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    forest.self_us[i] = std::max(0.0, duration_us(spans[i]) - covered[i]);
  }
  return forest;
}

QueueMatch match_queue(const std::vector<SpanRecord>& spans,
                       const SpanForest& forest) {
  QueueMatch match;
  // A hit admit encodes its reply frame inside its own span; a miss leaves
  // the encoding to the batch.
  std::set<std::size_t> hit_admits;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::ptrdiff_t parent = forest.parent[i];
    if (parent >= 0 && span_key(spans[i]) == "wire/encode_frame" &&
        span_key(spans[static_cast<std::size_t>(parent)]) == "daemon/admit") {
      hit_admits.insert(static_cast<std::size_t>(parent));
    }
  }
  std::vector<std::size_t> admits;
  for (const std::size_t i : indices_with_key(spans, "daemon/admit")) {
    if (hit_admits.count(i) != 0) {
      ++match.hit_admits;
      match.hit_residence_us += duration_us(spans[i]);
    } else {
      admits.push_back(i);
    }
  }
  std::stable_sort(admits.begin(), admits.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans[a].end_us < spans[b].end_us;
                   });
  std::vector<std::size_t> batches = indices_with_key(spans, "daemon/batch");
  std::stable_sort(batches.begin(), batches.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans[a].start_us < spans[b].start_us;
                   });
  std::vector<std::size_t> settles = indices_with_key(spans, "daemon/settle");
  std::sort(settles.begin(), settles.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });

  std::size_t next_admit = 0;
  std::size_t next_settle = 0;
  for (const std::size_t b : batches) {
    const SpanRecord& batch = spans[b];
    const std::size_t size = name_count(batch.name);
    ++match.batches;
    match.batched_requests += size;
    double admit_starts = 0.0;
    std::size_t taken = 0;
    for (; taken < size && next_admit < admits.size(); ++taken) {
      const SpanRecord& admit = spans[admits[next_admit++]];
      match.wait_us += std::max(
          0.0, static_cast<double>(batch.start_us) -
                   static_cast<double>(admit.end_us));
      admit_starts += static_cast<double>(admit.start_us);
    }
    match.matched += taken;
    // The batch's settles all start inside it: batches run one at a time.
    double settle_ends = 0.0;
    std::size_t settled = 0;
    while (next_settle < settles.size() &&
           spans[settles[next_settle]].start_us < batch.start_us) {
      ++next_settle;
    }
    while (next_settle < settles.size() &&
           spans[settles[next_settle]].start_us <= batch.end_us) {
      settle_ends += static_cast<double>(spans[settles[next_settle]].end_us);
      ++settled;
      ++next_settle;
    }
    if (settled == taken) match.residence_us += settle_ends - admit_starts;
  }
  return match;
}

std::map<std::string, double> layer_metrics(const TracedPhase& phase) {
  const std::vector<SpanRecord>& spans = phase.spans;
  const SpanForest forest = build_forest(spans);
  const QueueMatch queue = match_queue(spans, forest);

  std::set<std::uint32_t> client_lanes;
  for (const SpanRecord& span : spans) {
    if (span_key(span) == "bench/roundtrip") client_lanes.insert(span.lane);
  }
  std::map<std::string, double> self_by_key;
  std::map<std::string, double> wall_by_key;
  double client_wire = 0.0;
  double daemon_decode = 0.0;  // request decoding, before the admit
  double affine_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string key = span_key(spans[i]);
    self_by_key[key] += forest.self_us[i];
    wall_by_key[key] += duration_us(spans[i]);
    if (spans[i].category == "wire") {
      if (client_lanes.count(spans[i].lane) != 0) {
        client_wire += forest.self_us[i];
      } else if (key == "wire/decode_frame") {
        daemon_decode += forest.self_us[i];
      }
    }
    if (spans[i].name.rfind("solve:affine_", 0) == 0) {
      affine_self += forest.self_us[i];
    }
  }
  const auto self = [&](const std::string& key) {
    const auto it = self_by_key.find(key);
    return it == self_by_key.end() ? 0.0 : it->second;
  };
  const auto wall = [&](const std::string& key) {
    const auto it = wall_by_key.find(key);
    return it == wall_by_key.end() ? 0.0 : it->second;
  };
  const auto category_self = [&](const std::string& category) {
    double sum = 0.0;
    for (const auto& [key, us] : self_by_key) {
      if (key.rfind(category + "/", 0) == 0) sum += us;
    }
    return sum;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double ops = static_cast<double>(std::max<std::size_t>(phase.ops, 1));

  // Pool accounting per solve_batch call: the calls run one at a time, so
  // every solve/validate span inside a call's window belongs to it.
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].category == "solve" || spans[i].category == "validate") {
      work.push_back(i);
    }
  }
  std::sort(work.begin(), work.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  double batch_overhead = 0.0;
  double batch_overhead_seen = 0.0;  // ... once per job it delays
  double pool_busy = 0.0;
  double pool_capacity = 0.0;
  for (const std::size_t b : indices_with_key(spans, "batch/solve_batch")) {
    const SpanRecord& batch = spans[b];
    const auto first = std::lower_bound(
        work.begin(), work.end(), batch.start_us,
        [&](std::size_t i, std::uint64_t t) { return spans[i].start_us < t; });
    std::map<std::uint32_t, double> lane_busy;
    for (auto it = first;
         it != work.end() && spans[*it].start_us <= batch.end_us; ++it) {
      if (spans[*it].end_us <= batch.end_us) {
        lane_busy[spans[*it].lane] += duration_us(spans[*it]);
      }
    }
    double busiest = 0.0;
    for (const auto& [lane, us] : lane_busy) {
      busiest = std::max(busiest, us);
      pool_busy += us;
    }
    const double batch_wall = duration_us(batch);
    batch_overhead += std::max(0.0, batch_wall - busiest);
    batch_overhead_seen += static_cast<double>(name_count(batch.name)) *
                           std::max(0.0, batch_wall - busiest);
    const std::size_t lanes = std::max<std::size_t>(
        1, std::min(phase.threads, std::max<std::size_t>(
                                       name_count(batch.name), 1)));
    pool_capacity += static_cast<double>(lanes) * batch_wall;
  }

  double lag_total_us = 0.0;
  for (const double lag : phase.send_lag_ms) lag_total_us += lag * 1000.0;
  const double roundtrips = wall("bench/roundtrip");
  const double residence = queue.residence_us + queue.hit_residence_us;
  // The round trip is client wire, the daemon's request decode, the
  // daemon residence (admit start to reply settled) and the transport
  // between them: sockets, wake-ups and copies.
  const double transport =
      roundtrips - residence - client_wire - daemon_decode;

  double unattributed = 0.0;
  if (phase.passes > 0) {
    // Sweeps: the caller's lane; run_spec's own self time is the part of
    // the call no program span covers.
    unattributed = ratio(self("bench/run_spec"), wall("bench/run_spec"));
  } else if (phase.latency_total_us > 0.0) {
    // Serve: latency = send lag + round trip, the round trip is client
    // wire, request decode, transport and the daemon residence.  A
    // residence is its admit span, then for a miss the queue wait, the
    // batch overhead (every job of a batch waits it out), its own solve
    // and validation, and its settle.  What that leaves over is
    // unattributed.
    const double inside_residence =
        wall("daemon/admit") + queue.wait_us + batch_overhead_seen +
        category_self("solve") + category_self("validate") +
        self("daemon/settle");
    const double attributed = lag_total_us + client_wire + daemon_decode +
                              transport + inside_residence;
    unattributed = 1.0 - attributed / phase.latency_total_us;
  }

  std::map<std::string, double> m;
  m["service.wire_us"] = category_self("wire") / ops;
  m["service.admit_us"] = self("daemon/admit") / ops;
  m["service.transport_us"] = client_lanes.empty() ? 0.0 : transport / ops;
  m["service.queue_wait_us"] = queue.wait_us / ops;
  m["service.batch_size"] =
      ratio(static_cast<double>(queue.batched_requests),
            static_cast<double>(queue.batches));
  m["service.settle_us"] = self("daemon/settle") / ops;
  m["service.hit_ratio"] = phase.hit_ratio;
  m["core.solve_us"] = category_self("solve") / ops;
  m["core.validate_us"] = category_self("validate") / ops;
  m["core.batch_overhead_us"] = batch_overhead / ops;
  m["core.pool_busy_share"] = ratio(pool_busy, pool_capacity);
  m["lp.pivots"] = static_cast<double>(phase.lp_pivots) / ops;
  m["numeric.arena_hit_ratio"] =
      ratio(static_cast<double>(phase.arena_pool_hits),
            static_cast<double>(phase.arena_acquires));
  m["affine.solve_s"] =
      affine_self * 1e-6 /
      static_cast<double>(std::max<std::size_t>(phase.passes, 1));
  m["affine.subsets_skipped_ratio"] =
      ratio(static_cast<double>(phase.affine_skipped),
            static_cast<double>(phase.affine_tried));
  m["experiments.cache_lookup_us"] = self("cache/lookup") / ops;
  m["experiments.cache_stores"] =
      static_cast<double>(phase.cache_stores) / ops;
  m["experiments.shard_overhead_us"] = self("shard/execute") / ops;
  m["experiments.assemble_us"] =
      ratio(wall("shard/assemble"), static_cast<double>(phase.shards));
  m["experiments.plan_ms"] =
      wall("shard/plan") * 1e-3 /
      static_cast<double>(std::max<std::size_t>(phase.passes, 1));
  m["bench.send_lag_p99_ms"] = quantile(phase.send_lag_ms, 0.99);
  m["bench.unattributed_share"] = unattributed;
  m["bench.trace_overhead"] =
      ratio(phase.traced_p50_ms, phase.untraced_p50_ms);
  return m;
}

}  // namespace perfbench
