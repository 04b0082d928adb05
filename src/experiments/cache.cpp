#include "experiments/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace dlsched::experiments {

namespace fs = std::filesystem;

ScenarioSolutionD solution_from_cached(const CachedSolve& solve) {
  DLSCHED_EXPECT(solve.solved, "cannot replay an unsolved cache entry");
  ScenarioSolutionD solution;
  solution.throughput = solve.throughput;
  solution.alpha = solve.alpha;
  solution.scenario = Scenario::general(solve.send_order, solve.return_order);
  return solution;
}

// ----------------------------------------------------------- serialization --

// An entry file is the stored key followed by the versioned wire result
// body (service/wire.cpp): the cache, the shard fragments and the daemon's
// socket responses all carry the same bytes for the same solve.

namespace {

// Version 7 dropped the warm-start counters; version 6 delegated the
// value encoding to the wire codec; version 4 added the warm-start /
// pruning counters, version 3 the pivot / fallback / limb-arena counters,
// version 2 the participant set and the affine replay certificate.
// Entries of older versions degrade to misses and are re-solved.
constexpr int kEntryVersion = 7;

std::string serialize(const std::string& canonical_key,
                      const CachedSolve& s) {
  std::ostringstream out;
  out << "dlsched-cache " << kEntryVersion << '\n';
  service::put_blob(out, "key", canonical_key);
  out << service::encode_result_body(s);
  return out.str();
}

/// Parses an entry; returns nullopt (never throws) on any mismatch so a
/// corrupt or colliding file degrades to a cache miss.
std::optional<CachedSolve> deserialize(const std::string& text,
                                       const std::string& canonical_key) {
  try {
    std::istringstream in(text);
    std::string magic;
    int version = 0;
    in >> magic >> version;
    DLSCHED_EXPECT(magic == "dlsched-cache" && version == kEntryVersion,
                   "cache entry: bad header");
    in.ignore(1);
    if (service::get_blob(in, "key") != canonical_key) return std::nullopt;
    const auto body_start = in.tellg();
    DLSCHED_EXPECT(body_start != std::istringstream::pos_type(-1),
                   "cache entry: missing result body");
    return service::decode_result_body(
        std::string_view(text).substr(static_cast<std::size_t>(body_start)));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  DLSCHED_EXPECT(!directory_.empty(), "empty cache directory");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  DLSCHED_EXPECT(!ec, "cannot create cache directory '" + directory_ + "'");
}

std::optional<CachedSolve> ResultCache::lookup(
    const std::string& hash_hex, const std::string& canonical_key) {
  if (!enabled()) {
    ++stats.misses;
    obs::MetricsRegistry::process().add("cache.misses");
    return std::nullopt;
  }
  obs::ObsSpan span("cache", "lookup");
  const fs::path path = fs::path(directory_) / (hash_hex + ".entry");
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ++stats.misses;
    obs::MetricsRegistry::process().add("cache.misses");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<CachedSolve> value =
      deserialize(text.str(), canonical_key);
  if (value) {
    ++stats.hits;
    obs::MetricsRegistry::process().add("cache.hits");
    // Refresh the recency signal LRU eviction orders by.  Advisory: a
    // read-only cache directory still serves hits.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  } else {
    ++stats.misses;
    obs::MetricsRegistry::process().add("cache.misses");
  }
  return value;
}

void ResultCache::store(const std::string& hash_hex,
                        const std::string& canonical_key,
                        const CachedSolve& value) {
  if (!enabled()) return;
  obs::ObsSpan span("cache", "store");
  const fs::path path = fs::path(directory_) / (hash_hex + ".entry");
  // Write-then-rename so a crashed run never leaves a torn entry.  The
  // temp name embeds the pid plus a counter: workers in different
  // processes may store the same job concurrently (work stealing re-runs
  // an in-flight shard) and must never interleave writes into one file.
  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid()) +
                       "." + std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    DLSCHED_EXPECT(out.good(),
                   "cannot write cache entry under '" + directory_ + "'");
    out << serialize(canonical_key, value);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (!ec) {
    ++stats.stores;
    obs::MetricsRegistry::process().add("cache.stores");
  }
}

std::size_t ResultCache::evict_to(std::uint64_t max_bytes) {
  if (!enabled() || max_bytes == 0) return 0;
  obs::ObsSpan span("cache", "evict");
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& file :
       fs::directory_iterator(directory_, ec)) {
    if (ec) break;
    if (!file.is_regular_file(ec) || ec) continue;
    if (file.path().extension() != ".entry") continue;
    Entry entry;
    entry.path = file.path();
    entry.mtime = file.last_write_time(ec);
    if (ec) continue;
    entry.bytes = file.file_size(ec);
    if (ec) continue;
    total += entry.bytes;
    entries.push_back(std::move(entry));
  }
  if (total <= max_bytes) return 0;
  // Oldest first; filename tie-break keeps the order deterministic when a
  // burst of stores lands within one mtime granule.
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path.filename() < b.path.filename();
  });
  std::size_t evicted = 0;
  for (const Entry& entry : entries) {
    if (total <= max_bytes) break;
    std::error_code remove_ec;
    if (fs::remove(entry.path, remove_ec) && !remove_ec) {
      total -= entry.bytes;
      ++evicted;
    }
  }
  stats.evicted += evicted;
  obs::MetricsRegistry::process().add("cache.evicted", evicted);
  return evicted;
}

namespace {
constexpr const char* kLastRunFile = "last_run.stats";
}  // namespace

void ResultCache::write_last_run(const std::string& spec) const {
  if (!enabled()) return;
  const fs::path path = fs::path(directory_) / kLastRunFile;
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return;  // stats are advisory; never fail a run on them
  out << "dlsched-cache-stats 1\n"
      << "spec " << spec << '\n'
      << "hits " << stats.hits << '\n'
      << "misses " << stats.misses << '\n'
      << "stores " << stats.stores << '\n'
      << "evicted " << stats.evicted << '\n';
}

CacheInventory ResultCache::inspect(const std::string& directory) {
  CacheInventory inventory;
  std::error_code ec;
  if (!fs::is_directory(directory, ec) || ec) return inventory;
  inventory.exists = true;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(directory, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().extension() != ".entry") continue;
    ++inventory.entries;
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) inventory.total_bytes += size;
  }
  std::ifstream in(fs::path(directory) / kLastRunFile, std::ios::binary);
  if (in.good()) {
    std::string magic, label;
    int version = 0;
    in >> magic >> version;
    if (magic == "dlsched-cache-stats" && version == 1) {
      CacheInventory parsed = inventory;
      // Spec names may contain spaces (they come from user spec files):
      // take the rest of the line, not one >> token.
      bool ok = static_cast<bool>(in >> label) && label == "spec" &&
                static_cast<bool>(std::getline(in, parsed.last_spec));
      if (ok) {
        const std::size_t start = parsed.last_spec.find_first_not_of(' ');
        parsed.last_spec =
            start == std::string::npos ? "" : parsed.last_spec.substr(start);
      }
      parsed.has_last_run =
          ok && (in >> label >> parsed.last_run.hits) && label == "hits" &&
          (in >> label >> parsed.last_run.misses) && label == "misses" &&
          (in >> label >> parsed.last_run.stores) && label == "stores";
      // The eviction counter arrived after version 1 shipped; stats files
      // written before it simply report 0.
      if (parsed.has_last_run &&
          !((in >> label >> parsed.last_run.evicted) && label == "evicted")) {
        parsed.last_run.evicted = 0;
      }
      if (parsed.has_last_run) inventory = parsed;
    }
  }
  return inventory;
}

}  // namespace dlsched::experiments
