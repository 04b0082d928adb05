#include "answers.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "experiments/emitter.hpp"
#include "schedule/validator.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix_byte(std::uint64_t& hash, unsigned char byte) {
  hash ^= byte;
  hash *= kFnvPrime;
}

void mix_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    mix_byte(hash, static_cast<unsigned char>(value >> (8 * i)));
  }
}

void mix_indices(std::uint64_t& hash, const std::vector<std::size_t>& v) {
  mix_u64(hash, v.size());
  for (const std::size_t i : v) mix_u64(hash, i);
}

}  // namespace

std::uint64_t record_digest(const SolveRecord& record) {
  std::uint64_t hash = kDigestSeed;
  for (const char ch : record.solver) {
    mix_byte(hash, static_cast<unsigned char>(ch));
  }
  mix_u64(hash, record.solved ? 1 : 0);
  mix_u64(hash, record.validated ? 1 : 0);
  mix_u64(hash, std::bit_cast<std::uint64_t>(record.throughput));
  mix_u64(hash, record.alpha.size());
  for (const double a : record.alpha) {
    mix_u64(hash, std::bit_cast<std::uint64_t>(a));
  }
  mix_indices(hash, record.send_order);
  mix_indices(hash, record.return_order);
  mix_indices(hash, record.participants);
  return hash;
}

std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t next) {
  mix_u64(acc, next);
  return acc;
}

std::uint64_t fold_records(const std::vector<SolveRecord>& records) {
  std::uint64_t digest = kDigestSeed;
  for (const SolveRecord& record : records) {
    digest = fold_digest(digest, record_digest(record));
  }
  return digest;
}

std::string digest_hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

std::uint64_t text_digest(std::string_view text) {
  std::uint64_t hash = kDigestSeed;
  for (const char ch : text) mix_byte(hash, static_cast<unsigned char>(ch));
  return hash;
}

void corrupt_record(SolveRecord& record) {
  record.throughput = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(record.throughput) ^ 1u);
}

std::vector<BenchRow> read_bench_rows(std::string_view artifact) {
  // The engine writes one row object per line, indented four spaces, in
  // the "rows" array; values are scalars, escaped strings or flat arrays.
  std::vector<BenchRow> rows;
  std::size_t at = 0;
  while (at < artifact.size()) {
    std::size_t end = artifact.find('\n', at);
    if (end == std::string_view::npos) end = artifact.size();
    const std::string_view line = artifact.substr(at, end - at);
    at = end + 1;
    if (line.rfind("    {", 0) != 0) continue;
    BenchRow row;
    std::size_t i = 5;
    while (i < line.size() && line[i] == '"') {
      const std::size_t key_end = line.find('"', i + 1);
      if (key_end == std::string_view::npos) break;
      const std::string key(line.substr(i + 1, key_end - i - 1));
      i = key_end + 3;  // past `": `
      const std::size_t start = i;
      if (i < line.size() && line[i] == '"') {
        for (++i; i < line.size() && line[i] != '"'; ++i) {
          if (line[i] == '\\') ++i;
        }
        ++i;
      } else if (i < line.size() && line[i] == '[') {
        i = line.find(']', i);
        i = i == std::string_view::npos ? line.size() : i + 1;
      } else {
        while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      }
      row[key] = std::string(line.substr(start, i - start));
      i += 2;  // past `, ` (or the closing brace)
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string answer_fields(const BenchRow& row) {
  std::string text;
  for (const char* key : {"solver", "solved", "validated", "throughput",
                          "workers_used", "participants"}) {
    const auto it = row.find(key);
    text += it == row.end() ? "-" : it->second;
    text += '|';
  }
  return text;
}

std::string answer_fields(const SolveRecord& record) {
  namespace ex = dlsched::experiments;
  BenchRow row;
  row["solver"] = "\"" + record.solver + "\"";
  row["solved"] = record.solved ? "true" : "false";
  if (record.solved) {
    row["validated"] = record.validated ? "true" : "false";
    row["throughput"] = ex::json_double(record.throughput);
    row["workers_used"] = std::to_string(record.workers_used);
    if (!record.participants.empty()) {
      row["participants"] = ex::json_index_array(record.participants);
    }
  }
  return answer_fields(row);
}

bool answer_matches(const SolveRecord& answer, const SolveRecord& reference) {
  return answer.solved && answer.validated &&
         record_digest(answer) == record_digest(reference);
}

std::vector<SolveRecord> reference_records(const std::vector<Job>& jobs,
                                           std::size_t threads) {
  std::vector<SolveRecord> records(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    const dlsched::SolverRegistry& registry =
        dlsched::SolverRegistry::instance();
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      dlsched::BatchOutcome outcome;
      outcome.solver = jobs[i].solver;
      try {
        outcome.result = registry.run(jobs[i].solver, jobs[i].request);
        outcome.solved = true;
        outcome.validation = dlsched::validate(
            outcome.result.schedule_platform, outcome.result.schedule);
        outcome.ok = outcome.validation.ok;
      } catch (const std::exception& e) {
        outcome.error = e.what();
      }
      records[i] = dlsched::service::record_from_outcome(outcome);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return records;
}

std::optional<std::string> golden_digest(const std::string& table,
                                         const std::string& workload,
                                         std::uint64_t seed) {
  std::istringstream in(table);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    std::uint64_t line_seed = 0;
    if (fields >> name >> line_seed >> digest && name == workload &&
        line_seed == seed) {
      return digest;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
