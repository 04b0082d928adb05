// The four workloads.  Each runs set-up one or more times, measures for a
// given time, then checks every answer it got; see README.md for why each
// workload exists.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "run_record.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  std::string work_dir;      ///< run-scoped scratch directory (relative)
  std::string golden_table;  ///< contents of the golden digest table
  std::size_t threads = 1;   ///< solve pool size: the machine's cores
  bool corrupt = false;      ///< corrupt one answer before the checks
};

/// One measured phase of a workload.
struct Phase {
  double seconds = 1.0;
  std::size_t setups = 1;  ///< set-ups timed; the last one's daemon and
                           ///< inputs are the ones measured
  bool traced = false;     ///< record spans and fill `Outcome::traced`
  std::string tag;         ///< distinguishes the phase's directories
};

/// What one phase measured.  An operation is a request on the serve
/// workloads and a run_spec pass on the sweeps.
struct Outcome {
  std::vector<double> setup_s;  ///< one value per set-up
  double p50_ms = 0.0;          ///< operation latency
  double p90_ms = 0.0;          ///< printed, not gated (README.md)
  double p99_ms = 0.0;          ///< printed, not gated
  double ops_per_s = 0.0;       ///< completed operations per second
  double jobs_per_s = 0.0;      ///< solve jobs answered per second
  double busy_s = 0.0;          ///< time the measured operations took
  double peak_rss_mb = 0.0;     ///< at the end of the measurement
  std::size_t attempted = 0;    ///< answers expected
  std::size_t failed = 0;       ///< answers missing or wrong
  std::vector<std::string> invalid;  ///< failed validity checks
  std::vector<std::string> notes;    ///< digests and check details
  TracedPhase traced;           ///< inputs of the per-layer metrics
};

[[nodiscard]] Outcome run_serve_cold(const Config& config, const Phase& phase);
[[nodiscard]] Outcome run_serve_warm(const Config& config, const Phase& phase);
/// `sweep_solvers` and `sweep_light`.
[[nodiscard]] Outcome run_sweep(const Config& config, const Phase& phase);

/// Golden digest of a workload's reference answers for the config's seed,
/// as the golden table records it: what `perfbench_driver golden` prints.
[[nodiscard]] std::string serve_reference_digest(const Config& config);
[[nodiscard]] std::string sweep_reference_digest(const Config& config);

/// Span recording over a traced phase, with the process metrics counters
/// the per-layer metrics difference across it.  Disabled, it does nothing.
class TraceWindow {
 public:
  explicit TraceWindow(bool enabled);
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;
  ~TraceWindow();

  /// Moves the spans recorded so far into `traced.spans`.
  void keep(TracedPhase& traced);
  /// `keep`, stop recording, and fill the counter deltas.
  void close(TracedPhase& traced);

 private:
  bool enabled_;
  std::uint64_t stores_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t pool_hits_ = 0;
};

/// Samples the host steal share of `windows` consecutive windows of
/// `width_s` seconds from `start`, on a thread of its own.
class StealSampler {
 public:
  StealSampler(std::chrono::steady_clock::time_point start, double width_s,
               std::size_t windows);
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  ~StealSampler();

  /// Waits for the last window to end; the steal share of each window.
  [[nodiscard]] std::vector<double> shares();

 private:
  std::vector<CpuTicks> ticks_;  ///< at each window boundary
  std::thread thread_;
};

/// SplitMix64 of (seed, salt): per-workload input seeds from --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

/// Checks the digest of the reference answers against the golden table
/// entry for the config's workload and seed, so a change in what the
/// solvers answer shows even where the program agrees with them.  Records
/// the verdict in `outcome.notes` and returns false only on a mismatch (an
/// unrecorded seed passes).
bool check_golden(const Config& config, const std::string& digest,
                  Outcome& outcome);

}  // namespace perfbench
