// The cluster coordinator: the work-stealing shard board, owned in
// memory and served over TCP.
//
// The board holds one slot per planned shard.  Workers (service/worker.hpp)
// speak the wire protocol to it:
//
//   * LeaseRequest kind=Acquire  ->  LeaseGrant: a shard lease with a
//                                    deadline (or Wait / Retire / Done)
//   * LeaseRequest kind=Renew    ->  Ack: the deadline moves out one TTL
//   * FragmentPush               ->  Ack: the shard's serialized result;
//                                    the first accepted push wins and
//                                    duplicates are discarded
//
// A lease whose deadline passes unrenewed re-pends on the next Acquire
// sweep, so a dead worker's shard goes to someone else.
//
// Byte-identity is preserved by making the coordinator's `ResultCache`
// the one synchronization medium: a Work grant ships the shard's cached
// records (a warm worker replays them bit for bit), and an accepted
// fragment ships the worker's fresh records back before the shard is
// marked done.  After a cluster run, a single-process run over the
// coordinator's cache directory renders the identical artifact; the
// cache directory is private to the coordinator host.
//
// Connections, framing and the StatsQuery answer belong to the shared
// `FramedListener` (service/listener.hpp); the coordinator supplies the
// LeaseRequest and FragmentPush handlers, and its stats report carries the
// claim-board gauges (`CoordinatorGauges`).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "experiments/cache.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec.hpp"
#include "obs/trace.hpp"
#include "service/listener.hpp"
#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";  ///< IPv4 listen address
  std::uint16_t port = 0;          ///< 0 = ephemeral (see `port()`)
  double lease_ttl_seconds = 30.0; ///< unrenewed leases re-pend after this
  /// Advertised retry delay for Wait grants (everything leased out).
  double wait_retry_ms = 50.0;
};

class Coordinator {
 public:
  /// Binds and listens; starts no thread (see `start`).  `shards` is the
  /// full plan in planner order; `cache` is the run's result cache
  /// (guarded here, shared with nobody else while the coordinator lives).
  /// Throws `dlsched::Error` when the socket cannot be set up.
  Coordinator(const experiments::ExperimentSpec& spec,
              std::vector<experiments::CompiledShard> shards,
              experiments::ResultCache& cache, CoordinatorConfig config);
  ~Coordinator();

  /// Starts serving.  Workers that connect earlier wait in the listen
  /// backlog, which lets the engine fork its local fleet while this
  /// process still has a single thread.
  void start();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// `tcp://host:port` -- what workers pass to `--worker`.
  [[nodiscard]] std::string endpoint() const;

  /// Stops granting leases: every subsequent LeaseRequest (acquire or
  /// renew) is answered with a Drain frame, so workers exit.  In-flight
  /// FragmentPushes are still accepted -- leased work is not wasted.
  void begin_drain();

  /// Shutdown: drain, close every connection, join the threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// True once every shard has an accepted fragment (records stored).
  [[nodiscard]] bool finished() const;
  /// Blocks until `finished()` or the timeout elapses; returns
  /// `finished()`.
  bool wait_finished(double timeout_seconds);

  /// The accepted shard results in planner order; requires `finished()`.
  [[nodiscard]] std::vector<experiments::ShardResult> take_results();

  /// The trace sections workers shipped inside their FragmentPushes,
  /// merged per worker id (empty when tracing was off).  Moves them out.
  [[nodiscard]] std::vector<obs::ProcessTrace> take_worker_traces();

  /// Autoscaler hooks: grant `count` further Retire answers to retirable
  /// workers' next Acquires, and account a spawned local worker.
  void request_retire(std::size_t count);
  void note_worker_spawned();

  [[nodiscard]] StatsSnapshot stats() const { return stats_.snapshot(); }
  [[nodiscard]] CoordinatorGauges gauges() const {
    return stats_.snapshot().board;
  }

 private:
  enum class SlotState : std::uint8_t {
    Pending,     ///< unleased (or lease expired)
    Leased,      ///< granted, deadline in the future
    Committing,  ///< a fragment is being accepted (records storing)
    Done,        ///< fragment accepted, records stored
  };
  struct Slot {
    SlotState state = SlotState::Pending;
    std::string holder;  ///< worker id of the live lease
    std::chrono::steady_clock::time_point deadline{};
    std::size_t reassignments = 0;
  };

  [[nodiscard]] std::string handle_lease_payload(const std::string& payload);
  [[nodiscard]] std::string handle_fragment_payload(
      const std::string& payload);
  /// Re-pends every expired lease (board lock held).
  void sweep_expired_locked();
  /// Mirrors the board shape into the stats mailbox (board lock held).
  void publish_gauges_locked();
  [[nodiscard]] std::string drain_frame() const;

  experiments::ExperimentSpec spec_;
  std::vector<experiments::CompiledShard> shards_;
  std::string spec_toml_;
  std::string fingerprint_;
  CoordinatorConfig config_;
  std::uint16_t port_ = 0;

  mutable std::mutex board_mutex_;
  std::vector<Slot> slots_;                                  // board lock
  std::vector<std::optional<experiments::ShardResult>> results_;  // board lock
  std::size_t done_count_ = 0;                               // board lock
  std::size_t retire_credits_ = 0;                           // board lock
  bool draining_ = false;                                    // board lock
  CoordinatorGauges gauges_;                                 // board lock
  std::condition_variable done_cv_;

  std::mutex cache_mutex_;
  experiments::ResultCache& cache_;  // guarded by cache_mutex_

  std::mutex trace_mutex_;
  std::vector<obs::ProcessTrace> worker_traces_;  // guarded by trace_mutex_

  ServiceStats stats_;

  FramedListener listener_;  // last: its handlers use everything above
  bool stopped_ = false;     // stop() ran (main-thread use only)
};

}  // namespace dlsched::service
