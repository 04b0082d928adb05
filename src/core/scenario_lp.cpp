#include "core/scenario_lp.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <span>

#include "lp/certificate.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dlsched {

namespace {

/// Per-scenario bookkeeping: position of each worker in both orders.
struct Positions {
  std::vector<std::size_t> send_pos;    // platform id -> position in sigma_1
  std::vector<std::size_t> return_pos;  // platform id -> position in sigma_2
};

/// Fills `pos` for `scenario`, reusing its storage, and checks the
/// scenario on the way.  A worker out of range, listed twice, or returned
/// without being sent is left to `Scenario::check` to report.
void index_positions(const StarPlatform& platform, const Scenario& scenario,
                     Positions& pos) {
  const std::size_t n = platform.size();
  const std::size_t q = scenario.send_order.size();
  pos.send_pos.assign(n, SIZE_MAX);
  pos.return_pos.assign(n, SIZE_MAX);
  bool valid = scenario.return_order.size() == q;
  for (std::size_t k = 0; valid && k < q; ++k) {
    const std::size_t w = scenario.send_order[k];
    valid = w < n && pos.send_pos[w] == SIZE_MAX;
    if (valid) pos.send_pos[w] = k;
  }
  for (std::size_t k = 0; valid && k < q; ++k) {
    const std::size_t w = scenario.return_order[k];
    valid = w < n && pos.return_pos[w] == SIZE_MAX &&
            pos.send_pos[w] != SIZE_MAX;
    if (valid) pos.return_pos[w] = k;
  }
  if (!valid) {
    scenario.check(platform);  // throws, naming the fault
    DLSCHED_FAIL("scenario does not match the platform");
  }
}

void check_latency_sizes(const StarPlatform& platform,
                         const LpOptions& options) {
  DLSCHED_EXPECT(options.send_latencies.empty() ||
                     options.send_latencies.size() == platform.size(),
                 "per-worker send latencies must be platform-indexed");
  DLSCHED_EXPECT(options.return_latencies.empty() ||
                     options.return_latencies.size() == platform.size(),
                 "per-worker return latencies must be platform-indexed");
}

// ---------------------------------------------------------------------------
// The double builder reproduces `build_scenario_lp(...).densify<double>()`
// bit for bit.  `densify` rounds each exact Rational coefficient and
// right-hand side with `Rational::to_double` and sums a row's duplicate
// terms per column with double adds from 0.0.  The helpers below give the
// same doubles without building the Rational model.

/// `Rational::from_double(x).to_double()`: x itself, except that the
/// Rational drops the sign of a zero.
double model_double(double x) { return x == 0.0 ? 0.0 : x; }

/// `(Rational::from_double(a) + Rational::from_double(b)).to_double()`.
/// The exact sum is a multiple of 2^lo below 2^(hi + 2), where lo and hi
/// are the lowest and highest set bits of the operands, so its reduced
/// numerator has at most hi + 2 - min(lo, 0) bits.  Up to 63 bits
/// `to_double` rounds the numerator once, to nearest even, and divides by
/// a power of two exactly: the rounding of the double add.  A wider
/// numerator would be rounded digit by digit (see bigint.hpp), which can
/// differ from a + b in the last place, so that sum is taken exactly.
double model_sum(double a, double b) {
  int lo = INT_MAX;
  int hi = INT_MIN;
  for (const double x : {a, b}) {
    const numeric::BinaryFraction fraction = numeric::binary_fraction(x);
    if (fraction.odd == 0) continue;
    lo = std::min(lo, fraction.exponent);
    const int width = static_cast<int>(std::bit_width(fraction.odd));
    hi = std::max(hi, fraction.exponent + width - 1);
  }
  if (lo != INT_MAX && lo >= -1023 && hi + 2 - std::min(lo, 0) <= 63) {
    return a + b;
  }
  return (Rational::from_double(a) + Rational::from_double(b)).to_double();
}

/// What the double builder computes per scenario besides the LP itself.
/// `solve_scenario_double` keeps one per thread, so its vectors keep
/// their capacity from one solve to the next.
struct DoubleBuildScratch {
  Positions pos;
  std::vector<double> c, w, d;             // platform constants, sigma_1
  std::vector<std::size_t> return_rank;    // sigma_2 rank, sigma_1 order
  std::vector<Rational> sent, returned;    // latency prefix/suffix sums
};

/// The exact latency constants of every row, as prefix and suffix sums:
/// `sent[k]` adds the send latencies of sigma_1 positions 0..k and
/// `returned[r]` the return latencies of sigma_2 positions r..q-1.  Chain
/// row k pays sent[k], the compute latency and returned[its sigma_2 rank];
/// the one-port row pays sent[q-1] + returned[0].  An exact sum does not
/// depend on its order, so each equals the row's term-by-term sum.
void latency_sums(const Scenario& scenario, const LpOptions& options,
                  std::vector<Rational>& sent,
                  std::vector<Rational>& returned) {
  const std::size_t q = scenario.size();
  sent.resize(q);
  returned.resize(q);
  Rational total;
  for (std::size_t k = 0; k < q; ++k) {
    total += Rational::from_double(
        options.send_latency_for(scenario.send_order[k]));
    sent[k] = total;
  }
  total = Rational();
  for (std::size_t r = q; r-- > 0;) {
    total += Rational::from_double(
        options.return_latency_for(scenario.return_order[r]));
    returned[r] = total;
  }
}

/// Right-hand sides `(1 - latency constants).to_double()` of the q chain
/// rows (sigma_1 order) followed by the one-port row's, written to
/// `rhs[0..q]`.
void latency_rhs(const Scenario& scenario, const LpOptions& options,
                 DoubleBuildScratch& scratch, std::vector<double>& rhs) {
  const std::size_t q = scenario.size();
  latency_sums(scenario, options, scratch.sent, scratch.returned);
  const std::vector<Rational>& sent = scratch.sent;
  const std::vector<Rational>& returned = scratch.returned;
  const Rational compute = Rational::from_double(options.compute_latency);
  rhs.resize(q + 1);
  for (std::size_t k = 0; k < q; ++k) {
    rhs[k] = (Rational(1) - (sent[k] + compute +
                             returned[scratch.return_rank[k]]))
                 .to_double();
  }
  rhs[q] = q == 0 ? 1.0 : (Rational(1) - (sent[q - 1] + returned[0]))
                              .to_double();
}

/// Builds the double LP of `scenario` into `dense`, in place; see
/// `build_scenario_lp_double`.
void fill_scenario_lp_double(const StarPlatform& platform,
                             const Scenario& scenario,
                             const LpOptions& options,
                             DoubleBuildScratch& scratch,
                             lp::DenseLp<double>& dense) {
  index_positions(platform, scenario, scratch.pos);
  check_latency_sizes(platform, options);
  const std::size_t q = scenario.size();

  // Platform constants in sigma_1 order, as `densify` reads them back, and
  // each position's rank in sigma_2.
  std::vector<double>& c = scratch.c;
  std::vector<double>& w = scratch.w;
  std::vector<double>& d = scratch.d;
  std::vector<std::size_t>& return_rank = scratch.return_rank;
  c.resize(q);
  w.resize(q);
  d.resize(q);
  return_rank.resize(q);
  for (std::size_t k = 0; k < q; ++k) {
    const std::size_t id = scenario.send_order[k];
    const Worker& worker = platform.worker(id);
    c[k] = model_double(worker.c);
    w[k] = model_double(worker.w);
    d[k] = model_double(worker.d);
    return_rank[k] = scratch.pos.return_pos[id];
  }

  const std::size_t m = q + (options.one_port ? 1 : 0);
  dense.num_vars = q;
  dense.objective.assign(q, 1.0);
  dense.coefficients.resize(m * q);
  dense.relations.assign(m, lp::Relation::LessEq);
  if (options.is_affine()) {
    latency_rhs(scenario, options, scratch, dense.rhs);
    dense.rhs.resize(m);  // two-port: no one-port row
  } else {
    dense.rhs.assign(m, 1.0);
  }
  // (2a) chain row k: column j sums, in the reference's term order, c_j
  // (sent no later than k), w_k (j = k) and d_j (returned no earlier).
  for (std::size_t k = 0; k < q; ++k) {
    const std::span<double> row = dense.row(k);
    for (std::size_t j = 0; j < q; ++j) {
      double value = 0.0;
      if (j <= k) value += c[j];
      if (j == k) value += w[j];
      if (return_rank[j] >= return_rank[k]) value += d[j];
      row[j] = value;
    }
  }
  // (2b) the one-port row: one exact c_k + d_k term per column.
  if (options.one_port) {
    const std::span<double> row = dense.row(q);
    for (std::size_t k = 0; k < q; ++k) {
      const Worker& worker = platform.worker(scenario.send_order[k]);
      row[k] = model_sum(worker.c, worker.d);
    }
  }
}

// ---------------------------------------------------------------------------
// `fill_scenario_lp_integer` writes the exact model of `build_scenario_lp`
// as integer rows for `lp::BasisCertificate`.  Every coefficient and
// right-hand side is a sum of doubles, and a double is odd * 2^exponent
// (`numeric::binary_fraction`), so one power of two, 2^-scale with scale
// the least exponent in the model, makes every entry an integer.  No
// Rational, no gcd: a term is a shifted odd part, and the latency
// constants are integer prefix and suffix sums.

/// What `fill_scenario_lp_integer` computes per scenario besides the LP
/// itself; entries are the platform constants and latencies times
/// 2^-scale.
struct IntegerBuildScratch {
  std::vector<numeric::BigInt> c, w, d;          // sigma_1 order
  std::vector<numeric::BigInt> sent, returned;   // as in `latency_sums`
  numeric::BigInt compute;
  numeric::BigInt term;
};

/// Least exponent of x's binary fraction into `scale` (zeros have none).
void lower_scale(double x, int& scale) {
  const numeric::BinaryFraction fraction = numeric::binary_fraction(x);
  if (fraction.odd != 0) scale = std::min(scale, fraction.exponent);
}

/// x * 2^-scale, an integer because scale is at most x's exponent.
void scaled_integer(double x, int scale, numeric::BigInt& out) {
  const numeric::BinaryFraction fraction = numeric::binary_fraction(x);
  out = numeric::BigInt(fraction.odd);
  if (fraction.odd == 0) return;
  out <<= static_cast<std::size_t>(fraction.exponent - scale);
  if (fraction.negative) out.negate();
}

/// Builds the exact LP of `scenario` as integer rows into `out`, reusing
/// the positions and sigma_2 ranks that `fill_scenario_lp_double` left in
/// `scratch` for the same scenario.  Row for row and entry for entry it is
/// `build_scenario_lp(...).densify<Rational>()` times 2^-scale.
void fill_scenario_lp_integer(const StarPlatform& platform,
                              const Scenario& scenario,
                              const LpOptions& options,
                              const DoubleBuildScratch& scratch,
                              IntegerBuildScratch& ints, lp::IntegerLp& out) {
  using numeric::BigInt;
  const std::size_t q = scenario.size();
  const bool affine = options.is_affine();
  int scale = 0;  // the right-hand sides' 1
  for (const std::size_t id : scenario.send_order) {
    const Worker& worker = platform.worker(id);
    lower_scale(worker.c, scale);
    lower_scale(worker.w, scale);
    lower_scale(worker.d, scale);
    if (affine) {
      lower_scale(options.send_latency_for(id), scale);
      lower_scale(options.return_latency_for(id), scale);
    }
  }
  if (affine) lower_scale(options.compute_latency, scale);

  ints.c.resize(q);
  ints.w.resize(q);
  ints.d.resize(q);
  for (std::size_t k = 0; k < q; ++k) {
    const Worker& worker = platform.worker(scenario.send_order[k]);
    scaled_integer(worker.c, scale, ints.c[k]);
    scaled_integer(worker.w, scale, ints.w[k]);
    scaled_integer(worker.d, scale, ints.d[k]);
  }

  const std::size_t m = q + (options.one_port ? 1 : 0);
  out.num_vars = q;
  out.objective.assign(q, BigInt(1));
  out.coefficients.resize(m * q);
  out.rhs.resize(m);
  const BigInt one_scaled = BigInt(1) << static_cast<std::size_t>(-scale);
  if (affine) {
    ints.sent.resize(q);
    ints.returned.resize(q);
    BigInt total;
    for (std::size_t k = 0; k < q; ++k) {
      scaled_integer(options.send_latency_for(scenario.send_order[k]), scale,
                     ints.term);
      total += ints.term;
      ints.sent[k] = total;
    }
    total = BigInt();
    for (std::size_t r = q; r-- > 0;) {
      scaled_integer(options.return_latency_for(scenario.return_order[r]),
                     scale, ints.term);
      total += ints.term;
      ints.returned[r] = total;
    }
    scaled_integer(options.compute_latency, scale, ints.compute);
    for (std::size_t k = 0; k < q; ++k) {
      BigInt& rhs = out.rhs[k];
      rhs = one_scaled;
      rhs -= ints.sent[k];
      rhs -= ints.compute;
      rhs -= ints.returned[scratch.return_rank[k]];
    }
    if (options.one_port) {
      BigInt& rhs = out.rhs[q];
      rhs = one_scaled;
      if (q > 0) {
        rhs -= ints.sent[q - 1];
        rhs -= ints.returned[0];
      }
    }
  } else {
    for (BigInt& rhs : out.rhs) rhs = one_scaled;
  }
  // (2a) chain row k: column j sums c_j (sent no later than k), w_k
  // (j = k) and d_j (returned no earlier).
  const std::vector<std::size_t>& rank = scratch.return_rank;
  for (std::size_t k = 0; k < q; ++k) {
    for (std::size_t j = 0; j < q; ++j) {
      BigInt& entry = out.coefficients[k * q + j];
      entry = j <= k ? ints.c[j] : BigInt();
      if (j == k) entry += ints.w[k];
      if (rank[j] >= rank[k]) entry += ints.d[j];
    }
  }
  // (2b) the one-port row: c_k + d_k per column.
  if (options.one_port) {
    for (std::size_t k = 0; k < q; ++k) {
      BigInt& entry = out.coefficients[q * q + k];
      entry = ints.c[k];
      entry += ints.d[k];
    }
  }
}

/// Per-thread storage of the double solve and of the exact certificate
/// that checks its basis: the LPs they build, the double solver with its
/// tableau and the solution it reads back, and the certificate's
/// elimination scratch.  Each buffer keeps its capacity, so once a thread
/// has solved its widest scenario no double solve allocates here.  A solve
/// uses the workspace from build to read-out and calls nothing in between
/// that could solve another scenario on the same thread (no fan_out), so
/// no two uses overlap.
struct ThreadWorkspace {
  DoubleBuildScratch scratch;
  lp::DenseLp<double> lp;
  lp::Simplex<double> simplex;
  lp::Solution<double> solution;
  IntegerBuildScratch ints;
  lp::IntegerLp exact_lp;
  lp::BasisCertificate certificate;
};

ThreadWorkspace& thread_workspace() noexcept {
  thread_local ThreadWorkspace instance;
  return instance;
}

}  // namespace

lp::LpProblem build_scenario_lp(const StarPlatform& platform,
                                const Scenario& scenario,
                                const LpOptions& options) {
  Positions pos;
  index_positions(platform, scenario, pos);
  check_latency_sizes(platform, options);
  const std::size_t q = scenario.size();
  const Rational comp_lat = Rational::from_double(options.compute_latency);
  // Exact latency constants (a latency, like the linear coefficients, is
  // paid by the *message*, so worker j's own constant accumulates wherever
  // its message appears in a chain), as prefix and suffix sums.
  std::vector<Rational> sent, returned;
  latency_sums(scenario, options, sent, returned);

  lp::LpProblem problem;
  // Variables: alpha_k ordered by sigma_1 position k.  The paper's idle
  // variables x_i are NOT explicit columns: x_i is exactly the slack of
  // chain row i, and modelling both would put two identical columns in
  // every row -- any optimum with a non-binding chain row would then have
  // a zero-reduced-cost twin, making every solution non-unique by
  // construction, so no certificate could hold.  Chain rows are added in
  // sigma_1 order, so `row_slack(k, values)` is the idle time of worker
  // send_order[k]; solves do not compute it.
  std::vector<std::size_t> alpha_var(q);
  for (std::size_t k = 0; k < q; ++k) {
    const std::size_t w = scenario.send_order[k];
    alpha_var[k] = problem.add_variable(
        "alpha_" + platform.worker(w).name);
  }
  for (std::size_t k = 0; k < q; ++k) {
    problem.set_objective(alpha_var[k], Rational(1));
  }

  // Exact copies of the platform constants.
  std::vector<Rational> c(q), w_cost(q), d(q);
  for (std::size_t k = 0; k < q; ++k) {
    const Worker& worker = platform.worker(scenario.send_order[k]);
    c[k] = Rational::from_double(worker.c);
    w_cost[k] = Rational::from_double(worker.w);
    d[k] = Rational::from_double(worker.d);
  }

  // (2a) one chain constraint per worker, iterated in sigma_1 order.
  // With affine latencies the constants accumulate like the linear terms;
  // they are moved to the right-hand side.
  for (std::size_t k = 0; k < q; ++k) {
    const std::size_t worker_id = scenario.send_order[k];
    std::vector<lp::Term> terms;
    // All sends up to and including worker k (sigma_1 prefix).
    for (std::size_t j = 0; j <= k; ++j) {
      terms.push_back({alpha_var[j], c[j]});
    }
    // Own computation.  (The idle time x_k is this row's slack.)
    terms.push_back({alpha_var[k], w_cost[k]});
    // All returns from this worker onward in sigma_2 order.
    const std::size_t my_return_pos = pos.return_pos[worker_id];
    for (std::size_t r = my_return_pos; r < q; ++r) {
      const std::size_t other = scenario.return_order[r];
      const std::size_t other_k = pos.send_pos[other];
      terms.push_back({alpha_var[other_k], d[other_k]});
    }
    problem.add_constraint(
        std::move(terms), lp::Relation::LessEq,
        Rational(1) - (sent[k] + comp_lat + returned[my_return_pos]),
        "chain_" + platform.worker(worker_id).name);
  }

  // (2b) the master's one-port budget: total communication time <= 1.
  // Absent in the two-port model of [7, 8], where the master may send and
  // receive simultaneously.
  if (options.one_port) {
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < q; ++k) {
      terms.push_back({alpha_var[k], c[k] + d[k]});
    }
    problem.add_constraint(
        std::move(terms), lp::Relation::LessEq,
        q == 0 ? Rational(1) : Rational(1) - (sent[q - 1] + returned[0]),
        "one_port");
  }
  return problem;
}

lp::DenseLp<double> build_scenario_lp_double(const StarPlatform& platform,
                                             const Scenario& scenario,
                                             const LpOptions& options) {
  DoubleBuildScratch scratch;
  lp::DenseLp<double> dense;
  fill_scenario_lp_double(platform, scenario, options, scratch, dense);
  return dense;
}

namespace {

/// The exact solve without the Bareiss tableau: solves the double LP
/// in the thread's workspace and certifies its final basis on the exact
/// integer model.  True when the certificate holds; then `out` is the
/// unique optimum, bit for bit what `build_scenario_lp(...).solve_exact()`
/// returns, and `out.pivots` counts the double simplex's pivots.
bool solve_certified(const StarPlatform& platform, const Scenario& scenario,
                     const LpOptions& options, lp::Solution<Rational>& out) {
  ThreadWorkspace& ws = thread_workspace();
  fill_scenario_lp_double(platform, scenario, options, ws.scratch, ws.lp);
  // Finite constants can still overflow a double sum (c + w + d past
  // DBL_MAX): the exact model holds such a row, the double LP cannot.
  if (!std::all_of(ws.lp.coefficients.begin(), ws.lp.coefficients.end(),
                   [](double x) { return std::isfinite(x); })) {
    return false;
  }
  ws.simplex.reset(ws.lp);
  ws.simplex.solve_into(ws.solution);
  if (ws.solution.status != lp::Status::Optimal) return false;
  fill_scenario_lp_integer(platform, scenario, options, ws.scratch, ws.ints,
                           ws.exact_lp);
  if (!ws.certificate.certify(ws.exact_lp, ws.solution.basis, out)) {
    return false;
  }
  out.pivots = ws.solution.pivots;
  return true;
}

}  // namespace

ScenarioSolution solve_scenario(const StarPlatform& platform,
                                const Scenario& scenario,
                                const LpOptions& options) {
  lp::Solution<Rational> lp_solution;
  const bool certified =
      solve_certified(platform, scenario, options, lp_solution);
  obs::MetricsRegistry::process().add(certified ? "lp.certified"
                                                : "lp.certify_fallbacks");
  if (!certified) {
    lp_solution = build_scenario_lp(platform, scenario, options).solve_exact();
  }

  ScenarioSolution out;
  out.scenario = scenario;
  if (lp_solution.status == lp::Status::Infeasible) {
    DLSCHED_EXPECT(options.is_affine(),
                   "linear-model scenario LP cannot be infeasible");
    out.lp_feasible = false;
    out.alpha.assign(platform.size(), Rational());
    return out;
  }
  DLSCHED_EXPECT(lp_solution.status == lp::Status::Optimal,
                 "scenario LP must be optimal");
  out.throughput = std::move(lp_solution.objective);
  out.lp_pivots = lp_solution.pivots;
  out.alpha.assign(platform.size(), Rational());
  for (std::size_t k = 0; k < scenario.size(); ++k) {
    out.alpha[scenario.send_order[k]] = std::move(lp_solution.values[k]);
  }
  return out;
}

ScenarioSolution solve_scenario(const StarPlatform& platform,
                                const Scenario& scenario) {
  return solve_scenario(platform, scenario, LpOptions{});
}

ScenarioSolutionD solve_scenario_double(const StarPlatform& platform,
                                        const Scenario& scenario) {
  return solve_scenario_double(platform, scenario, LpOptions{});
}

ScenarioSolutionD solve_scenario_double(const StarPlatform& platform,
                                        const Scenario& scenario,
                                        const LpOptions& options) {
  ThreadWorkspace& ws = thread_workspace();
  fill_scenario_lp_double(platform, scenario, options, ws.scratch, ws.lp);
  ws.simplex.reset(ws.lp);
  ws.simplex.solve_into(ws.solution);
  const lp::Solution<double>& lp_solution = ws.solution;
  ScenarioSolutionD out;
  out.scenario = scenario;
  if (lp_solution.status == lp::Status::Infeasible) {
    DLSCHED_EXPECT(options.is_affine(),
                   "linear-model scenario LP cannot be infeasible");
    out.lp_feasible = false;
    out.alpha.assign(platform.size(), 0.0);
    return out;
  }
  DLSCHED_EXPECT(lp_solution.status == lp::Status::Optimal,
                 "scenario LP must be optimal (alpha = 0 is feasible)");
  out.throughput = lp_solution.objective;
  out.lp_pivots = lp_solution.pivots;
  out.alpha.assign(platform.size(), 0.0);
  for (std::size_t k = 0; k < scenario.size(); ++k) {
    out.alpha[scenario.send_order[k]] =
        std::max(0.0, lp_solution.values[k]);
  }
  return out;
}

ScenarioSolution lift_solution(const ScenarioSolutionD& d) {
  ScenarioSolution s;
  s.throughput = Rational::from_double(d.throughput);
  s.alpha.reserve(d.alpha.size());
  for (double a : d.alpha) s.alpha.push_back(Rational::from_double(a));
  s.scenario = d.scenario;
  s.lp_pivots = d.lp_pivots;
  s.lp_feasible = d.lp_feasible;
  return s;
}

std::vector<std::size_t> ScenarioSolution::enrolled() const {
  std::vector<std::size_t> result;
  for (std::size_t k : scenario.send_order) {
    if (alpha[k].is_positive()) result.push_back(k);
  }
  return result;
}

std::vector<double> ScenarioSolution::alpha_double() const {
  std::vector<double> values(alpha.size(), 0.0);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    values[i] = alpha[i].to_double();
  }
  return values;
}

namespace {
Schedule realize(const StarPlatform& platform, const Scenario& scenario,
                 std::vector<double> alpha, double horizon) {
  for (double& a : alpha) a *= horizon;
  return make_packed_schedule(platform, scenario.send_order,
                              scenario.return_order, alpha, horizon);
}
}  // namespace

Schedule realize_schedule(const StarPlatform& platform,
                          const ScenarioSolution& solution, double horizon) {
  return realize(platform, solution.scenario, solution.alpha_double(),
                 horizon);
}

Schedule realize_schedule(const StarPlatform& platform,
                          const ScenarioSolutionD& solution, double horizon) {
  return realize(platform, solution.scenario, solution.alpha, horizon);
}

}  // namespace dlsched
