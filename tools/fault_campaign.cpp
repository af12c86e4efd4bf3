// fault_campaign: the bwresil survivability gate. Sweeps a seeded space
// of fault plans (fault kind x target rank x step-or-message position x
// intensity) over one application, runs every plan with the resilient
// Comm policy installed (crashes are recovered by the apps' buddy
// rollback, which needs no policy), and classifies each run:
//
//   survived-clean     terminated, checksum == fault-free to 1e-12, no
//                      degraded-mode continuation
//   survived-degraded  terminated, but degraded mode fired or the
//                      checksum drifted
//   hung               SimMPI diagnosed a deadlock (WatchdogError)
//   died               any other diagnosed failure (e.g. a rank and its
//                      buddy crashing at the same step)
//
// Same --seed + same sweep flags => the same plan list and the same
// classification vector (printed as a compact string — the determinism
// witness the tests diff). Results are recorded through bwbench, so
// --bench-json emits a schema-versioned BENCH_resil.json with per-kind
// survival rates that CI gates exactly like a perf number.
//
// Examples:
//   ./build/tools/fault_campaign --app=clover2d --n=24 --iters=8
//       --ranks=4 --plans=50 --mode=random --bench-json
//   ./build/tools/fault_campaign --kinds=drop,delay,crash --plans=60
//       --require-survival=1.0        # CI smoke: every cell must survive
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/cloverleaf/cloverleaf3d.hpp"
#include "apps/miniweather/miniweather.hpp"
#include "bench/bench_common.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/resil.hpp"
#include "common/rng.hpp"
#include "par/simmpi.hpp"

using namespace bwlab;

namespace {

enum class Outcome { SurvivedClean, SurvivedDegraded, Hung, Died };

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::SurvivedClean: return "survived-clean";
    case Outcome::SurvivedDegraded: return "survived-degraded";
    case Outcome::Hung: return "hung";
    case Outcome::Died: return "died";
  }
  return "?";
}

/// One classification letter for the compact campaign vector.
char letter(Outcome o) {
  switch (o) {
    case Outcome::SurvivedClean: return 'C';
    case Outcome::SurvivedDegraded: return 'D';
    case Outcome::Hung: return 'H';
    case Outcome::Died: return 'X';
  }
  return '?';
}

struct PlanCell {
  std::string kind;  ///< drop | delay | crash
  std::string spec;  ///< full bwfault plan clause
};

/// The swept plan space. Grid mode enumerates the full cross product of
/// kind x rank x position x intensity and truncates to `plans`; random
/// mode draws `plans` seeded samples from the same axes. Both are pure
/// functions of the flags, so a campaign is reproducible from its
/// command line alone.
std::vector<PlanCell> make_plans(const std::vector<std::string>& kinds, int ranks,
                             int iters, int plans, const std::string& mode,
                             std::uint64_t seed) {
  std::vector<PlanCell> out;
  const std::vector<long long> delays_us = {200, 5000, 40000};
  if (mode == "grid") {
    // Positions: early / middle / late in the run.
    std::set<long long> steps = {1, iters / 2, iters > 1 ? iters - 1 : 1};
    std::set<long long> msgs = {0, 3, 9};
    for (const std::string& k : kinds)
      for (int r = 0; r < ranks; ++r) {
        if (k == "crash") {
          for (long long s : steps)
            out.push_back({k, "crash:rank=" + std::to_string(r) +
                                  ",step=" + std::to_string(s)});
        } else if (k == "drop") {
          for (long long m : msgs)
            out.push_back({k, "drop:rank=" + std::to_string(r) +
                                  ",msg=" + std::to_string(m)});
        } else {
          for (long long m : msgs)
            for (long long us : delays_us)
              out.push_back({k, "delay:rank=" + std::to_string(r) +
                                    ",us=" + std::to_string(us) +
                                    ",msg=" + std::to_string(m)});
        }
      }
    if (static_cast<int>(out.size()) > plans) out.resize(plans);
    return out;
  }
  BWLAB_REQUIRE(mode == "random", "unknown --mode '" << mode
                                  << "' (grid or random)");
  SplitMix64 rng(seed);
  for (int p = 0; p < plans; ++p) {
    const std::string& k = kinds[rng.below(kinds.size())];
    const int r = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    if (k == "crash") {
      const long long s = 1 + static_cast<long long>(
                                  rng.below(static_cast<std::uint64_t>(
                                      iters > 1 ? iters - 1 : 1)));
      out.push_back({k, "crash:rank=" + std::to_string(r) +
                            ",step=" + std::to_string(s)});
    } else if (k == "drop") {
      const long long m = static_cast<long long>(rng.below(12));
      out.push_back({k, "drop:rank=" + std::to_string(r) +
                            ",msg=" + std::to_string(m)});
    } else {
      const long long m = static_cast<long long>(rng.below(12));
      const long long us = delays_us[rng.below(delays_us.size())];
      out.push_back({k, "delay:rank=" + std::to_string(r) +
                            ",us=" + std::to_string(us) +
                            ",msg=" + std::to_string(m)});
    }
  }
  return out;
}

apps::Result dispatch(const std::string& app, const apps::Options& opt) {
  if (app == "clover2d") return apps::clover2d::run(opt);
  if (app == "clover3d") return apps::clover3d::run(opt);
  if (app == "miniweather") return apps::miniweather::run(opt);
  BWLAB_REQUIRE(false, "unknown --app '" << app
                       << "'; one of: clover2d clover3d miniweather");
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: fault_campaign [options]\n"
        "  --app=clover2d|clover3d|miniweather  (default clover2d)\n"
        "  --n=N --iters=I --ranks=R --threads=T\n"
        "  --plans=N --mode=grid|random --kinds=drop,delay,crash\n"
        "  --seed=S --checkpoint-every=K --degraded\n"
        "  --require-survival=X   exit non-zero when survival < X\n"
        "  --list                 print the plan list and exit\n"
        "  --bench-json[=FILE]    write BENCH_resil.json\n");
    return 0;
  }
  const std::string app = cli.get("app", "clover2d");
  apps::Options opt;
  opt.n = cli.get_int("n", 24);
  opt.iterations = static_cast<int>(cli.get_int("iters", 8));
  opt.ranks = static_cast<int>(cli.get_int("ranks", 4));
  opt.threads = static_cast<int>(cli.get_int("threads", 1));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));
  opt.checkpoint_every = static_cast<int>(cli.get_int("checkpoint-every", 2));

  resil::Policy pol;
  pol.enabled = true;
  pol.degraded = cli.get_bool("degraded", false);

  std::string kinds_csv = cli.get("kinds", "drop,delay,crash");
  const int plans = static_cast<int>(cli.get_int("plans", 50));
  const std::string mode = cli.get("mode", "grid");
  const bool list = cli.get_bool("list", false);
  const double require = cli.get_double("require-survival", -1.0);
  bench::Runner run(cli, "resil");
  try {
    cli.reject_unknown();  // a misspelt gate flag must not pass silently
  } catch (const Error& e) {
    std::fprintf(stderr, "fault_campaign: %s\n", e.what());
    return EXIT_FAILURE;
  }

  std::vector<std::string> kinds;
  while (!kinds_csv.empty()) {
    const std::size_t c = kinds_csv.find(',');
    kinds.push_back(kinds_csv.substr(0, c));
    kinds_csv = c == std::string::npos ? "" : kinds_csv.substr(c + 1);
  }
  for (const std::string& k : kinds)
    BWLAB_REQUIRE(k == "drop" || k == "delay" || k == "crash",
                  "unknown fault kind '" << k << "' in --kinds");

  const std::vector<PlanCell> cells =
      make_plans(kinds, opt.ranks, opt.iterations, plans, mode, opt.seed);
  if (list) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      std::printf("%3zu  %s\n", i, cells[i].spec.c_str());
    return 0;
  }

  // Fault-free reference under the same policy: the checksum every
  // recovered run must reproduce to 1e-12.
  fault::clear();
  resil::install(pol);
  const apps::Result ref = dispatch(app, opt);
  std::printf("campaign: %s n=%lld iters=%d ranks=%d, %zu plans (%s), "
              "seed=%llu\n  fault-free checksum %.17g\n",
              app.c_str(), static_cast<long long>(opt.n), opt.iterations,
              opt.ranks, cells.size(), mode.c_str(),
              static_cast<unsigned long long>(opt.seed), ref.checksum);

  std::string vec;
  std::map<std::string, int> by_class;
  std::map<std::string, std::pair<int, int>> by_kind;  // kind -> (ok, total)
  double max_err = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PlanCell& c = cells[i];
    fault::install(fault::FaultPlan::parse(c.spec, opt.seed));
    resil::install(pol);  // resets the recovery counters per cell
    Outcome o = Outcome::Died;
    double err = 0;
    try {
      const apps::Result res = dispatch(app, opt);
      err = std::abs(res.checksum - ref.checksum) /
            std::max(1.0, std::abs(ref.checksum));
      if (err > max_err) max_err = err;
      const bool degraded = resil::stats().degraded_events > 0;
      o = !degraded && err <= 1e-12 ? Outcome::SurvivedClean
                                    : Outcome::SurvivedDegraded;
    } catch (const par::WatchdogError&) {
      o = Outcome::Hung;
    } catch (const Error&) {
      o = Outcome::Died;
    }
    fault::clear();
    vec.push_back(letter(o));
    by_class[to_string(o)]++;
    auto& [ok, total] = by_kind[c.kind];
    ++total;
    if (o == Outcome::SurvivedClean || o == Outcome::SurvivedDegraded) ++ok;
    std::printf("  plan %3zu  %-32s -> %-17s err %.3g\n", i, c.spec.c_str(),
                to_string(o), err);
  }

  const int survived =
      by_class["survived-clean"] + by_class["survived-degraded"];
  const double survival =
      cells.empty() ? 1.0 : static_cast<double>(survived) /
                                static_cast<double>(cells.size());
  std::printf("classification vector: %s\n", vec.c_str());
  for (const auto& [name, n] : by_class)
    std::printf("  %-17s %d\n", name.c_str(), n);
  std::printf("survival rate %.3f, max checksum err %.3g\n", survival,
              max_err);

  run.record_value("campaign.plans", "count", benchjson::Better::Higher,
                   static_cast<double>(cells.size()));
  run.record_value("campaign.survival_rate", "rate",
                   benchjson::Better::Higher, survival);
  run.record_value("campaign.survived_clean", "count",
                   benchjson::Better::Higher,
                   static_cast<double>(by_class["survived-clean"]));
  run.record_value("campaign.survived_degraded", "count",
                   benchjson::Better::Lower,
                   static_cast<double>(by_class["survived-degraded"]));
  run.record_value("campaign.hung", "count", benchjson::Better::Lower,
                   static_cast<double>(by_class["hung"]));
  run.record_value("campaign.died", "count", benchjson::Better::Lower,
                   static_cast<double>(by_class["died"]));
  run.record_value("campaign.max_checksum_err", "rel",
                   benchjson::Better::Lower, max_err);
  for (const auto& [kind, okt] : by_kind)
    run.record_value("campaign." + kind + ".survival_rate", "rate",
                     benchjson::Better::Higher,
                     okt.second == 0 ? 1.0
                                     : static_cast<double>(okt.first) /
                                           static_cast<double>(okt.second));
  run.finish();
  resil::clear();

  if (require >= 0 && survival < require) {
    std::fprintf(stderr, "FAIL: survival rate %.3f < required %.3f\n",
                 survival, require);
    return EXIT_FAILURE;
  }
  return 0;
}
