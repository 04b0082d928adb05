// The dlsched service wire protocol: the ONE request/result codec.
//
// Before this module, three ad-hoc serializations of the same
// (SolveRequest, SolveResult) pair coexisted -- the result-cache entry
// format, the shard-fragment row renderer and `dlsched_cli compare
// --json` -- and adding a statistic meant editing all three.  This header
// owns the canonical encodings end to end:
//
//   * `SolveRecord` -- the canonical result projection (what a solve is,
//     once the exact arithmetic has been rendered to bit-exact doubles).
//     The experiment cache stores it, the daemon answers with it, the
//     JSON emitters render it.
//   * request/result/reject *bodies* -- line-oriented text (doubles as
//     64-bit hex bit patterns, free-form text length-prefixed) shared by
//     the cache entries and the socket protocol.
//   * *frames* -- the transport envelope for `dlsched_serve`: protocol
//     magic carrying the wire version, a frame type, and a length-prefixed
//     payload.  The decoder never throws and never crashes on garbage: it
//     reports malformed input (bad magic, future version, oversized
//     length, unknown type) as a status, and short input as NeedMore.
//
// Idiom reference: the IPS channelized transport (SNIPPETS.md Snippet 1)
// -- version-carrying protocol magic, fixed descriptor layout, command/ack
// plus stats mailboxes -- transplanted onto a local SOCK_STREAM socket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"

namespace dlsched::experiments {
class JsonObject;
}  // namespace dlsched::experiments

namespace dlsched::service {

// ------------------------------------------------------------ primitives --

// Line-oriented serialization primitives shared by every body codec, the
// cache entries and the shard-result fragments: doubles travel as 64-bit
// hex bit patterns so values round-trip bit-exactly, and free-form text
// (keys, rendered JSON rows, error messages) is length-prefixed.
void put_double(std::ostream& out, double value);
[[nodiscard]] double get_double(std::istream& in);
void put_blob(std::ostream& out, const std::string& label,
              const std::string& text);
[[nodiscard]] std::string get_blob(std::istream& in,
                                   const std::string& label);
void put_indices(std::ostream& out, const std::string& label,
                 const std::vector<std::size_t>& values);
[[nodiscard]] std::vector<std::size_t> get_indices(std::istream& in,
                                                   const std::string& label);
void put_doubles(std::ostream& out, const std::string& label,
                 const std::vector<double>& values);
[[nodiscard]] std::vector<double> get_doubles(std::istream& in,
                                              const std::string& label);

// ------------------------------------------------------------ the record --

/// The canonical result projection of a `BatchOutcome`: solution numbers
/// (as doubles -- all emitters and the DES consume doubles),
/// communication orders, provenance flags and diagnostics.  This is the
/// field list; every serialization of a solve result routes through it.
struct SolveRecord {
  std::string solver;
  bool solved = false;
  bool validated = false;
  std::string error;  ///< exception text when !solved

  double throughput = 0.0;
  std::vector<double> alpha;               ///< platform-indexed
  std::vector<std::size_t> send_order;     ///< sigma_1
  std::vector<std::size_t> return_order;   ///< sigma_2
  std::size_t workers_used = 0;            ///< alpha > 0 count
  /// Chosen participant set of a selection-style solver (sorted; empty
  /// when enrolment is implied by alpha > 0).
  std::vector<std::size_t> participants;

  // Affine DES-replay certificate (affine/replay.hpp).
  bool replayed = false;
  double replay_makespan = 0.0;
  double replay_rel_error = 0.0;

  bool provably_optimal = false;
  bool mirrored = false;
  bool used_two_port = false;
  bool exact = true;
  bool budget_exhausted = false;
  bool has_alt = false;
  double alt_throughput = 0.0;
  std::size_t scenarios_tried = 0;
  std::size_t lp_evaluations = 0;
  std::size_t best_rounds = 0;
  std::size_t lp_pivots = 0;           ///< simplex pivots of the final LP
  std::size_t lp_fallbacks = 0;        ///< Fast mode: exact re-solves
  std::size_t subsets_pruned = 0;      ///< bound-pruned subset candidates
  std::size_t subsets_screened = 0;    ///< margin-screened subset candidates
  std::uint64_t arena_acquires = 0;    ///< limb-arena buffer requests
  std::uint64_t arena_pool_hits = 0;   ///< ... served from the recycled pool

  double wall_seconds = 0.0;      ///< of the run that actually solved
  double validate_seconds = 0.0;
};

/// Projects a batch outcome into its canonical record.
[[nodiscard]] SolveRecord record_from_outcome(const BatchOutcome& outcome);

/// Appends the record's result fields to a JSON row, in the canonical
/// order shared by the experiment-grid rows, `compare --json` and the
/// daemon's own emitters.  Adding a statistic to `SolveRecord` extends
/// every consumer here, in one place.  Requires `record.solved`.
void append_result_fields(experiments::JsonObject& row,
                          const SolveRecord& record);

// ----------------------------------------------------------- body codecs --

/// Serializes a record as the versioned wire result body (also the value
/// part of a result-cache entry).  Bit-exact: decode(encode(r)) == r.
[[nodiscard]] std::string encode_result_body(const SolveRecord& record);

/// Parses a result body; throws `dlsched::Error` on any malformation.
[[nodiscard]] SolveRecord decode_result_body(std::string_view body);

/// A decoded solve-request frame: the solver name plus the full request.
/// Unlike `request_canonical_key` (a one-way identity), this codec is
/// reversible and carries worker names.
struct WireRequest {
  std::string solver;
  SolveRequest request;
};

/// Serializes a (solver, request) pair as the versioned wire request body.
[[nodiscard]] std::string encode_request_body(const std::string& solver,
                                              const SolveRequest& request);

/// Parses a request body; throws `dlsched::Error` on any malformation
/// (including platform values the library would reject, e.g. c <= 0).
[[nodiscard]] WireRequest decode_request_body(std::string_view body);

/// Backpressure reply: the admission queue was full (or the daemon is
/// draining).  `retry_after_ms < 0` means "do not retry" (drain).
struct RejectInfo {
  double retry_after_ms = 0.0;
  std::string reason;
};

[[nodiscard]] std::string encode_reject_body(const RejectInfo& info);
[[nodiscard]] RejectInfo decode_reject_body(std::string_view body);

// --------------------------------------------------- cluster lease bodies --
//
// The TCP shard board (service/coordinator.hpp).  A coordinator owns the
// claim board in memory -- shard leases with deadlines -- and workers
// stream serialized `ShardResult` fragments back over the same framed
// protocol.  The result cache is the
// synchronization medium: a Work grant ships the shard's cached records
// so warm workers replay them bit-exactly, and an accepted fragment ships
// the worker's fresh records back, keeping the coordinator's cache (and
// therefore any later single-process run over it) byte-identical to what
// the cluster produced.

/// One result-cache entry in flight: content hash, canonical request key,
/// and the encoded wire result body.
struct WireCacheEntry {
  std::string hash;
  std::string key;
  std::string body;
};

/// Worker -> coordinator: acquire a new shard lease, or renew a held one
/// (the heartbeat that keeps the lease from expiring).
struct LeaseRequestBody {
  enum class Kind : std::uint8_t { Acquire, Renew };
  Kind kind = Kind::Acquire;
  std::string worker_id;
  /// Coordinator-spawned local workers are retirable: the autoscaler may
  /// answer their next Acquire with a Retire grant as backlog drains.
  bool retirable = false;
  std::size_t shard_index = 0;  ///< Renew: the held shard
  std::string shard_id;         ///< Renew: cross-check against the plan
};

[[nodiscard]] std::string encode_lease_request(const LeaseRequestBody& body);
[[nodiscard]] LeaseRequestBody decode_lease_request(std::string_view body);

/// Coordinator -> worker: the answer to an Acquire.
struct LeaseGrantBody {
  enum class Kind : std::uint8_t {
    Work,    ///< a shard lease: spec, shard identity, TTL, cached records
    Wait,    ///< everything leased out; retry after `retry_after_ms`
    Retire,  ///< autoscaler: surplus retirable worker, exit now
    Done,    ///< every shard is finished, exit now
  };
  Kind kind = Kind::Wait;
  double retry_after_ms = 0.0;  ///< Wait only

  // Work only:
  std::size_t shard_index = 0;
  std::string shard_id;
  std::string plan_fingerprint;   ///< worker re-plans and must agree
  double lease_ttl_seconds = 0.0; ///< renew well before this expires
  bool traced = false;            ///< record obs spans, ship them in pushes
  std::string spec_toml;          ///< bit-exact spec (render_spec_toml)
  std::vector<WireCacheEntry> records;  ///< the shard's cached solves
};

[[nodiscard]] std::string encode_lease_grant(const LeaseGrantBody& body);
[[nodiscard]] LeaseGrantBody decode_lease_grant(std::string_view body);

/// Worker -> coordinator: one completed shard.  `fragment` is the
/// `serialize_shard_result` byte stream; `records` carries every cache entry
/// for the shard's jobs so the coordinator's cache ends up as if it had
/// executed the shard itself.
struct FragmentPushBody {
  std::string worker_id;
  std::size_t shard_index = 0;
  std::string shard_id;
  std::string plan_fingerprint;
  std::string fragment;
  std::vector<WireCacheEntry> records;
  /// Optional wire section: the worker's encoded `obs` trace buffer
  /// (spans since its previous push).  Empty = absent on the wire, so
  /// untraced runs ship exactly the bytes they always did.
  std::string trace;
};

[[nodiscard]] std::string encode_fragment_push(const FragmentPushBody& body);
[[nodiscard]] FragmentPushBody decode_fragment_push(std::string_view body);

/// Coordinator -> worker: reply to a FragmentPush or a Renew.  `ok =
/// false` means the push was discarded (duplicate/corrupt) or the lease
/// is no longer held; the message says why.
struct AckBody {
  bool ok = false;
  std::string message;
};

[[nodiscard]] std::string encode_ack(const AckBody& body);
[[nodiscard]] AckBody decode_ack(std::string_view body);

// ----------------------------------------------------------------- frames --

/// Protocol version, carried in the low byte of the magic.  A daemon and
/// a client disagree loudly (BadVersion, with both versions named), never
/// by misparsing each other's bytes.
inline constexpr std::uint32_t kWireVersion = 1;
/// Frame magic: "dlsched serve" upper bits | protocol version.
inline constexpr std::uint32_t kWireMagicBase = 0xd15c5e00u;
inline constexpr std::uint32_t kWireMagic = kWireMagicBase | kWireVersion;
/// Hard payload bound: an oversized length prefix is rejected before any
/// allocation, so garbage bytes can never balloon memory.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  SolveRequest = 1,   ///< request body -> SolveResult | Reject | ProtocolError
  SolveResult = 2,    ///< result body (solver errors travel IN the record)
  Reject = 3,         ///< reject body: backpressure / draining
  StatsQuery = 4,     ///< empty payload -> StatsReport
  StatsReport = 5,    ///< the stats mailbox, rendered as one JSON object
  ProtocolError = 6,  ///< human-readable reason; the connection closes
  LeaseRequest = 7,   ///< lease-request body -> LeaseGrant | Ack (renew)
  LeaseGrant = 8,     ///< lease-grant body: work / wait / retire / done
  FragmentPush = 9,   ///< fragment-push body -> Ack
  Ack = 10,           ///< ack body: fragment / renewal accepted or refused
  Drain = 11,         ///< coordinator draining; payload = reason, then EOF
};

struct Frame {
  FrameType type = FrameType::ProtocolError;
  std::string payload;
};

/// Frame envelope: magic (4 bytes LE), type (1), payload length (4, LE),
/// payload bytes.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

enum class DecodeStatus {
  Ok,          ///< `frame` is valid, drop `consumed` bytes
  NeedMore,    ///< the buffer holds a prefix of a valid frame
  BadMagic,    ///< not this protocol at all
  BadVersion,  ///< right protocol, different version (see `version`)
  BadType,     ///< unknown frame type
  Oversized,   ///< length prefix exceeds kMaxFramePayload
};

struct FrameDecode {
  DecodeStatus status = DecodeStatus::NeedMore;
  Frame frame;               ///< valid when status == Ok
  std::size_t consumed = 0;  ///< bytes consumed when status == Ok
  std::uint32_t version = 0; ///< version seen (BadVersion diagnostics)
  std::string error;         ///< human-readable reason for Bad*/Oversized
};

/// Attempts to decode one frame from the front of `bytes`.  Never throws;
/// any byte sequence yields a status (malformed input degrades to an
/// error status, short input to NeedMore).
[[nodiscard]] FrameDecode try_decode_frame(std::string_view bytes);

}  // namespace dlsched::service
