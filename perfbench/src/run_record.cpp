#include "run_record.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <fstream>
#include <string>
#include <thread>

#include "experiments/emitter.hpp"

namespace perfbench {

namespace {

constexpr long kTmpfsMagic = 0x01021994;
constexpr long kRamfsMagic = 0x858458f6;

bool ram_backed(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return false;
  const long type = static_cast<long>(info.f_type);
  return type == kTmpfsMagic || type == kRamfsMagic;
}

}  // namespace

RunRecord make_run_record(const std::string& workload, std::uint64_t seed,
                          const std::string& commit,
                          const std::string& source_digest,
                          const std::string& cache_dir) {
  RunRecord record;
  record.workload = workload;
  record.seed = seed;
  record.nproc = std::thread::hardware_concurrency();
  record.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  record.optimized = true;
#endif
#if defined(__clang__)
  record.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  record.compiler = "gcc " __VERSION__;
#else
  record.compiler = "unknown";
#endif
  record.commit = commit.empty() ? "unknown" : commit;
  record.source_digest = source_digest.empty() ? "unknown" : source_digest;
  record.cache_ram_backed = ram_backed(cache_dir);
  return record;
}

std::string render_run_record(const RunRecord& record) {
  dlsched::experiments::JsonObject json;
  json.add("workload", record.workload)
      .add("seed", record.seed)
      .add("nproc", record.nproc)
      .add("build_type", record.build_type)
      .add("optimized", record.optimized)
      .add("compiler", record.compiler)
      .add("commit", record.commit)
      .add("source_digest", record.source_digest)
      .add("cache_ram_backed", record.cache_ram_backed);
  return json.render();
}

std::vector<std::string> run_record_warnings(const RunRecord& record) {
  std::vector<std::string> warnings;
  if (!record.optimized) {
    warnings.push_back("the build is unoptimized (" + record.build_type +
                       "); timings are not representative");
  }
  if (!record.cache_ram_backed) {
    warnings.push_back(
        "the daemon's result cache sits on a disk, not in RAM; the serve "
        "workloads' cache stores and lookups measure the disk too");
  }
  return warnings;
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
