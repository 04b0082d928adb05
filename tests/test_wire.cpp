// Tests of the service wire codec: bit-exact round-trips of the request /
// result / reject bodies, the canonical JSON field list, and adversarial
// frame decoding -- the decoder must classify garbage, never crash on it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "core/solver.hpp"
#include "experiments/emitter.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace dlsched::service {
namespace {

SolveRecord sample_record() {
  SolveRecord r;
  r.solver = "fifo_optimal";
  r.solved = true;
  r.validated = true;
  r.throughput = 0.1 + 0.2;  // a value with a non-trivial bit pattern
  r.alpha = {0.25, 0.0, 1.0 / 3.0, 5e-324};  // includes a denormal
  r.send_order = {2, 0, 3, 1};
  r.return_order = {1, 3, 0, 2};
  r.workers_used = 3;
  r.participants = {0, 2, 3};
  r.replayed = true;
  r.replay_makespan = 123.456789;
  r.replay_rel_error = 1e-12;
  r.provably_optimal = true;
  r.exact = false;
  r.has_alt = true;
  r.alt_throughput = 0.75;
  r.scenarios_tried = 7;
  r.lp_evaluations = 19;
  r.best_rounds = 2;
  r.lp_pivots = 31;
  r.lp_fallbacks = 1;
  r.subsets_pruned = 5;
  r.subsets_screened = 11;
  r.arena_acquires = 101;
  r.arena_pool_hits = 99;
  r.wall_seconds = 0.03125;
  r.validate_seconds = 1e-7;
  return r;
}

SolveRequest sample_request() {
  SolveRequest request;
  request.platform = StarPlatform::bus(0.25, 0.125, {0.5, 1.0, 2.0});
  request.scenario = Scenario::general(std::vector<std::size_t>{1, 0, 2},
                                       std::vector<std::size_t>{2, 1, 0});
  request.participants = {0, 2};
  request.two_port = true;
  request.costs.send_latency = 0.01;
  request.costs.return_latency = 0.02;
  request.costs.send_latency_per_worker = {0.01, 0.015, 0.02};
  request.precision = Precision::Fast;
  request.horizon = 2.5;
  request.seed = 42;
  request.time_budget_seconds = 0.125;
  request.max_workers_subset = 9;
  return request;
}

TEST(WireBodies, ResultRoundTripsBitExactly) {
  const SolveRecord r = sample_record();
  const std::string body = encode_result_body(r);
  const SolveRecord back = decode_result_body(body);
  // Re-encoding must reproduce the same bytes: the cache, the daemon and
  // the replay dumps all rely on encode(decode(b)) == b.
  EXPECT_EQ(encode_result_body(back), body);
  EXPECT_EQ(back.solver, r.solver);
  EXPECT_EQ(back.alpha.size(), r.alpha.size());
  for (std::size_t i = 0; i < r.alpha.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.alpha[i]),
              std::bit_cast<std::uint64_t>(r.alpha[i]));
  }
  EXPECT_EQ(back.send_order, r.send_order);
  EXPECT_EQ(back.participants, r.participants);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.wall_seconds),
            std::bit_cast<std::uint64_t>(r.wall_seconds));
}

TEST(WireBodies, UnsolvedResultCarriesTheErrorText) {
  SolveRecord r;
  r.solver = "brute_force";
  r.error = "time budget exhausted\nwith a second line";
  const SolveRecord back = decode_result_body(encode_result_body(r));
  EXPECT_FALSE(back.solved);
  EXPECT_EQ(back.error, r.error);
}

TEST(WireBodies, RequestRoundTripsIdentityAndNames) {
  const SolveRequest request = sample_request();
  const std::string body = encode_request_body("scenario_lp", request);
  const WireRequest back = decode_request_body(body);
  EXPECT_EQ(back.solver, "scenario_lp");
  // The canonical key is the request's identity: equality there means
  // the daemon solves exactly the job the client described.
  EXPECT_EQ(request_canonical_key(back.request),
            request_canonical_key(request));
  // And the worker names, which the key leaves out, survive too.
  EXPECT_EQ(back.request.platform.worker(1).name,
            request.platform.worker(1).name);
  EXPECT_EQ(encode_request_body(back.solver, back.request), body);
}

TEST(WireBodies, MalformedBodiesThrowInsteadOfMisparsing) {
  const std::string result = encode_result_body(sample_record());
  EXPECT_THROW((void)decode_result_body(""), Error);
  EXPECT_THROW((void)decode_result_body("dlsched-wire-result 999\n"), Error);
  EXPECT_THROW((void)decode_result_body(result.substr(0, result.size() / 2)),
               Error);
  const std::string request =
      encode_request_body("fifo_optimal", sample_request());
  EXPECT_THROW((void)decode_request_body(result), Error);  // wrong body kind
  EXPECT_THROW(
      (void)decode_request_body(request.substr(0, request.size() - 10)),
      Error);
}

/// `body` with its first line replaced by `header`.
std::string with_header(const std::string& body, const std::string& header) {
  return header + body.substr(body.find('\n'));
}

/// The message of the `Error` that decoding `body` throws.
template <class Decode>
std::string decode_error(Decode decode, const std::string& body) {
  try {
    (void)decode(body);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(WireBodies, FormerVersionBodiesAreRefusedByName) {
  // Version 1 bodies carried the warm-start counters and hint; a decoder
  // of version 2 names the header it expects instead of misreading them.
  const std::string result = encode_result_body(sample_record());
  const std::string request =
      encode_request_body("fifo_optimal", sample_request());
  EXPECT_EQ(result.rfind("dlsched-wire-result 2\n", 0), 0u);
  EXPECT_EQ(request.rfind("dlsched-wire-request 2\n", 0), 0u);
  EXPECT_NE(decode_error(decode_result_body,
                         with_header(result, "dlsched-wire-result 1"))
                .find("'dlsched-wire-result 2' header"),
            std::string::npos);
  EXPECT_NE(decode_error(decode_request_body,
                         with_header(request, "dlsched-wire-request 1"))
                .find("'dlsched-wire-request 2' header"),
            std::string::npos);
}

TEST(WireBodies, AnInfiniteWorkerCostIsRefusedAtDecode) {
  // The first worker's w as the bits of +inf: the platform constructor
  // refuses it, so the request never reaches a solver.
  std::string body = encode_request_body("fifo_optimal", sample_request());
  const std::size_t cwd = body.find("\ncwd ") + 5;
  const std::size_t w = body.find(' ', cwd) + 1;
  body.replace(w, body.find(' ', w) - w, "7ff0000000000000");
  EXPECT_NE(decode_error(decode_request_body, body).find("finite"),
            std::string::npos);
}

TEST(WireBodies, RejectRoundTrips) {
  const RejectInfo info{25.0, "admission queue full"};
  const RejectInfo back = decode_reject_body(encode_reject_body(info));
  EXPECT_EQ(back.retry_after_ms, info.retry_after_ms);
  EXPECT_EQ(back.reason, info.reason);
}

TEST(WireBodies, LeaseRequestRoundTripsBothKinds) {
  LeaseRequestBody acquire;
  acquire.kind = LeaseRequestBody::Kind::Acquire;
  acquire.worker_id = "w-42";
  acquire.retirable = true;
  const LeaseRequestBody a = decode_lease_request(encode_lease_request(acquire));
  EXPECT_EQ(a.kind, LeaseRequestBody::Kind::Acquire);
  EXPECT_EQ(a.worker_id, "w-42");
  EXPECT_TRUE(a.retirable);

  LeaseRequestBody renew;
  renew.kind = LeaseRequestBody::Kind::Renew;
  renew.worker_id = "w-43";
  renew.shard_index = 7;
  renew.shard_id = "0123456789abcdef0123456789abcdef";
  const LeaseRequestBody r = decode_lease_request(encode_lease_request(renew));
  EXPECT_EQ(r.kind, LeaseRequestBody::Kind::Renew);
  EXPECT_EQ(r.shard_index, 7u);
  EXPECT_EQ(r.shard_id, renew.shard_id);
  EXPECT_FALSE(r.retirable);
}

TEST(WireBodies, LeaseGrantRoundTripsWorkWithRecords) {
  LeaseGrantBody grant;
  grant.kind = LeaseGrantBody::Kind::Work;
  grant.shard_index = 3;
  grant.shard_id = "00ff00ff00ff00ff00ff00ff00ff00ff";
  grant.plan_fingerprint = "fp";
  grant.lease_ttl_seconds = 0.25;  // exact in binary: bit-equal after decode
  grant.traced = true;
  grant.spec_toml = "name = \"smoke\"\nworkers = [4, 6]\n";
  grant.records.push_back(
      {"hash-a", "key a\nwith newline", encode_result_body(sample_record())});
  grant.records.push_back(
      {"hash-b", "key b", std::string("opaque\0\x01 bytes", 14)});
  const LeaseGrantBody back = decode_lease_grant(encode_lease_grant(grant));
  EXPECT_EQ(back.kind, LeaseGrantBody::Kind::Work);
  EXPECT_EQ(back.shard_index, 3u);
  EXPECT_EQ(back.shard_id, grant.shard_id);
  EXPECT_EQ(back.lease_ttl_seconds, grant.lease_ttl_seconds);
  EXPECT_TRUE(back.traced);
  EXPECT_EQ(back.spec_toml, grant.spec_toml);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].key, grant.records[0].key);
  EXPECT_EQ(back.records[0].body, grant.records[0].body);
  EXPECT_EQ(back.records[1].body, grant.records[1].body);

  for (const LeaseGrantBody::Kind kind :
       {LeaseGrantBody::Kind::Wait, LeaseGrantBody::Kind::Retire,
        LeaseGrantBody::Kind::Done}) {
    LeaseGrantBody signal;
    signal.kind = kind;
    signal.retry_after_ms = 50.0;
    const LeaseGrantBody round = decode_lease_grant(encode_lease_grant(signal));
    EXPECT_EQ(round.kind, kind);
    EXPECT_FALSE(round.traced);
  }
}

TEST(WireBodies, FragmentPushAndAckRoundTrip) {
  FragmentPushBody push;
  push.worker_id = "w-crash";
  push.shard_index = 11;
  push.shard_id = "aa";
  push.plan_fingerprint = "bb";
  push.fragment = "fragment bytes\nwith\nlines";
  push.records.push_back({"h", "k", encode_result_body(sample_record())});
  const FragmentPushBody back =
      decode_fragment_push(encode_fragment_push(push));
  EXPECT_EQ(back.worker_id, push.worker_id);
  EXPECT_EQ(back.shard_index, 11u);
  EXPECT_EQ(back.fragment, push.fragment);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].body, push.records[0].body);
  EXPECT_TRUE(back.trace.empty());  // no trace section encoded

  // The optional trace section rides between the records and "end".
  push.trace = "opaque trace\nbytes";
  const FragmentPushBody traced =
      decode_fragment_push(encode_fragment_push(push));
  EXPECT_EQ(traced.trace, push.trace);
  EXPECT_EQ(traced.fragment, push.fragment);

  const AckBody ok{true, "accepted"};
  const AckBody no{false, "plan fingerprint mismatch"};
  EXPECT_TRUE(decode_ack(encode_ack(ok)).ok);
  EXPECT_EQ(decode_ack(encode_ack(ok)).message, "accepted");
  EXPECT_FALSE(decode_ack(encode_ack(no)).ok);
  EXPECT_EQ(decode_ack(encode_ack(no)).message, no.message);
}

TEST(WireBodies, MalformedLeaseBodiesThrowInsteadOfMisparsing) {
  const std::string grant = encode_lease_grant(LeaseGrantBody{});
  EXPECT_THROW((void)decode_lease_request(""), Error);
  EXPECT_THROW((void)decode_lease_request(grant), Error);  // wrong body kind
  EXPECT_THROW((void)decode_lease_grant(grant.substr(0, grant.size() - 4)),
               Error);
  FragmentPushBody push;
  push.fragment = "x";
  const std::string bytes = encode_fragment_push(push);
  EXPECT_THROW((void)decode_fragment_push(bytes.substr(0, bytes.size() / 2)),
               Error);
  EXPECT_THROW((void)decode_ack("dlsched-wire-ack 999\n"), Error);
}

TEST(WireBodies, CanonicalJsonFieldListMatchesTheGridRowOrder) {
  experiments::JsonObject row;
  append_result_fields(row, sample_record());
  const std::string rendered = row.render();
  // The committed grid baselines depend on this exact field order.
  const char* expected[] = {
      "throughput",     "workers_used",    "validated",
      "provably_optimal", "exact",         "scenarios_tried",
      "lp_evaluations", "lp_pivots",       "lp_fallbacks",
      "subsets_pruned", "subsets_screened", "arena_acquires",
      "arena_pool_hits", "participants",   "replay_makespan",
      "replay_rel_error", "alt_throughput", "wall_seconds",
      "validate_seconds"};
  std::size_t at = 0;
  for (const char* field : expected) {
    const std::size_t found =
        rendered.find("\"" + std::string(field) + "\":", at);
    ASSERT_NE(found, std::string::npos) << field << " missing or misordered";
    at = found;
  }
}

// ------------------------------------------------------------------ frames --

TEST(WireFrames, RoundTripAndIncrementalDecode) {
  const std::string payload = encode_result_body(sample_record());
  const std::string frame = encode_frame(FrameType::SolveResult, payload);
  // Feeding the frame byte by byte must yield NeedMore until complete.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const FrameDecode partial =
        try_decode_frame(std::string_view(frame).substr(0, n));
    EXPECT_EQ(partial.status, DecodeStatus::NeedMore) << "at " << n;
  }
  const FrameDecode decode = try_decode_frame(frame + "trailing bytes");
  ASSERT_EQ(decode.status, DecodeStatus::Ok);
  EXPECT_EQ(decode.frame.type, FrameType::SolveResult);
  EXPECT_EQ(decode.frame.payload, payload);
  EXPECT_EQ(decode.consumed, frame.size());
}

TEST(WireFrames, RejectsWrongMagic) {
  const std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  const FrameDecode decode = try_decode_frame(garbage);
  EXPECT_EQ(decode.status, DecodeStatus::BadMagic);
  EXPECT_FALSE(decode.error.empty());
}

TEST(WireFrames, RejectsFutureVersionAndReportsIt) {
  std::string frame = encode_frame(FrameType::SolveRequest, "x");
  frame[0] = static_cast<char>((kWireVersion + 3) & 0xff);  // magic low byte
  const FrameDecode decode = try_decode_frame(frame);
  EXPECT_EQ(decode.status, DecodeStatus::BadVersion);
  EXPECT_EQ(decode.version, kWireVersion + 3);
  EXPECT_NE(decode.error.find(std::to_string(kWireVersion + 3)),
            std::string::npos);
}

TEST(WireFrames, RejectsUnknownFrameType) {
  std::string frame = encode_frame(FrameType::SolveRequest, "x");
  frame[4] = static_cast<char>(0xee);
  EXPECT_EQ(try_decode_frame(frame).status, DecodeStatus::BadType);
}

TEST(WireFrames, RejectsOversizedLengthBeforeAllocating) {
  std::string frame = encode_frame(FrameType::SolveRequest, "x");
  // Rewrite the length prefix to 2 GiB; only 10 bytes actually follow.
  frame[5] = 0;
  frame[6] = 0;
  frame[7] = 0;
  frame[8] = static_cast<char>(0x80);
  const FrameDecode decode = try_decode_frame(frame);
  EXPECT_EQ(decode.status, DecodeStatus::Oversized);
}

TEST(WireFrames, EveryByteMutationYieldsAStatusNotACrash) {
  const std::string frame =
      encode_frame(FrameType::StatsQuery, "not a real payload");
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xff}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      (void)try_decode_frame(mutated);  // must not throw or crash
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace dlsched::service
