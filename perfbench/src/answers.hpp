// Answer checks: digests of the non-timing fields of solve records, the
// independent reference answer for a job, and the golden digest table
// recorded at the commit that defined the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "service/wire.hpp"

namespace perfbench {

using dlsched::SolveRequest;
using dlsched::service::SolveRecord;

/// 64-bit FNV-1a over what a correct answer must reproduce exactly:
/// solver, solved and validated flags, the throughput and alpha bit
/// patterns, both orders and the participant set.  Timing fields, solver
/// statistics and arena counters are left out.
[[nodiscard]] std::uint64_t record_digest(const SolveRecord& record);

/// Order-sensitive fold of answer digests into one workload digest.
[[nodiscard]] std::uint64_t fold_digest(std::uint64_t acc,
                                        std::uint64_t next);
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

/// `fold_digest` over the records' digests, in order.
[[nodiscard]] std::uint64_t fold_records(
    const std::vector<SolveRecord>& records);

[[nodiscard]] std::string digest_hex(std::uint64_t digest);

/// An answer is right when it is solved, validated and has the reference
/// answer's digest.
[[nodiscard]] bool answer_matches(const SolveRecord& answer,
                                  const SolveRecord& reference);

/// Flips the lowest bit of the answer's throughput: the deliberately wrong
/// answer of `--corrupt`, which every check must count as a failure.
void corrupt_record(SolveRecord& record);

/// A sweep's answers are the rows of its BENCH_<spec>.json artifact.  Each
/// row, as raw JSON value text by key, in artifact order.
using BenchRow = std::map<std::string, std::string>;
[[nodiscard]] std::vector<BenchRow> read_bench_rows(std::string_view artifact);

/// The row fields a correct sweep answer reproduces exactly, as the
/// artifact renders them: solver, solved, validated, throughput (17
/// significant digits, so its bits), workers_used and participants.
[[nodiscard]] std::string answer_fields(const BenchRow& row);
[[nodiscard]] std::string answer_fields(const SolveRecord& record);

/// 64-bit FNV-1a of a text.
[[nodiscard]] std::uint64_t text_digest(std::string_view text);

struct Job {
  std::string solver;
  SolveRequest request;
};

/// The reference answers: each job run straight through the solver
/// registry and the schedule validator -- no daemon, engine, cache or
/// batch -- on `threads` plain threads.
[[nodiscard]] std::vector<SolveRecord> reference_records(
    const std::vector<Job>& jobs, std::size_t threads);

/// Looks up the golden digest of (workload, seed) in a table of
/// "workload seed digest" lines; '#' starts a comment line.
[[nodiscard]] std::optional<std::string> golden_digest(
    const std::string& table, const std::string& workload,
    std::uint64_t seed);

}  // namespace perfbench
