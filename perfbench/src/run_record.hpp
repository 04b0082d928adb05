// The run record every result is stamped with: what was measured, on
// what, and with which build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t nproc = 0;
  std::string build_type;
  bool optimized = false;
  std::string compiler;
  std::string commit;         ///< as given by the caller ("unknown" if none)
  std::string source_digest;  ///< of the library sources, from the caller
  bool cache_ram_backed = false;
};

[[nodiscard]] RunRecord make_run_record(const std::string& workload,
                                        std::uint64_t seed,
                                        const std::string& commit,
                                        const std::string& source_digest,
                                        const std::string& cache_dir);

/// One-line JSON rendering.
[[nodiscard]] std::string render_run_record(const RunRecord& record);

/// What makes the numbers unrepresentative: an unoptimized build, or a
/// cache on a disk instead of in RAM.
[[nodiscard]] std::vector<std::string> run_record_warnings(
    const RunRecord& record);

/// The process's peak resident set size so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Machine-wide CPU time counters from /proc/stat, in clock ticks: the
/// share of `steal` in `total` over a run is the CPU time a virtual
/// machine's host took away, which slows every timed figure.  Zero where
/// /proc/stat is missing.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Steal share of the machine's CPU time between two readings (0 when
/// none passed).
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

}  // namespace perfbench
