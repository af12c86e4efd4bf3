#include "core/config.hpp"

#include "apps/app_common.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/resil.hpp"

namespace bwlab::core {

const char* to_string(Compiler c) {
  switch (c) {
    case Compiler::Classic: return "Classic";
    case Compiler::OneAPI: return "OneAPI";
    case Compiler::Aocc: return "AOCC";
    case Compiler::Cuda: return "CUDA";
  }
  return "?";
}

const char* to_string(Zmm z) {
  return z == Zmm::Default ? "ZMM default" : "ZMM high";
}

const char* to_string(ParMode p) {
  switch (p) {
    case ParMode::Mpi: return "MPI";
    case ParMode::MpiVec: return "MPI vec";
    case ParMode::MpiOmp: return "MPI+OpenMP";
    case ParMode::MpiSyclFlat: return "MPI+SYCL (flat)";
    case ParMode::MpiSyclNd: return "MPI+SYCL (ndrange)";
    case ParMode::Gpu: return "CUDA";
  }
  return "?";
}

std::string Config::label() const {
  std::string s = to_string(par);
  s += ht ? " w/HT " : " w/o HT ";
  s += to_string(compiler);
  s += " (";
  s += to_string(zmm);
  s += ")";
  return s;
}

std::vector<Config> config_space(const sim::MachineModel& m, AppClass cls) {
  std::vector<Config> out;
  if (m.is_gpu) {
    out.push_back({Compiler::Cuda, Zmm::High, false, ParMode::Gpu});
    return out;
  }
  const bool intel = m.has_avx512;
  const std::vector<Compiler> compilers =
      intel ? std::vector<Compiler>{Compiler::Classic, Compiler::OneAPI}
            : std::vector<Compiler>{Compiler::Aocc};
  const std::vector<Zmm> zmms =
      intel ? std::vector<Zmm>{Zmm::Default, Zmm::High}
            : std::vector<Zmm>{Zmm::Default};
  const std::vector<bool> hts =
      m.smt > 1 ? std::vector<bool>{false, true} : std::vector<bool>{false};

  std::vector<ParMode> pars;
  switch (cls) {
    case AppClass::Structured:
      pars = {ParMode::Mpi, ParMode::MpiOmp};
      break;
    case AppClass::Unstructured:
      pars = {ParMode::Mpi, ParMode::MpiVec, ParMode::MpiOmp};
      break;
    case AppClass::ComputeBound:
      // The Classic compilers generate code that stalls on miniBUDE;
      // handled below by skipping Classic entirely.
      pars = {ParMode::Mpi, ParMode::MpiOmp};
      break;
  }

  for (Compiler comp : compilers) {
    if (cls == AppClass::ComputeBound && comp == Compiler::Classic) continue;
    for (Zmm z : zmms)
      for (bool ht : hts)
        for (ParMode p : pars) out.push_back({comp, z, ht, p});
  }
  // SYCL rows require the OneAPI toolchain.
  if (intel) {
    switch (cls) {
      case AppClass::Structured:
        for (Zmm z : zmms)
          for (bool ht : hts) {
            out.push_back({Compiler::OneAPI, z, ht, ParMode::MpiSyclFlat});
          }
        break;
      case AppClass::Unstructured:
        // Figure 4 carries a single MPI+SYCL row (OneAPI, ZMM default).
        out.push_back({Compiler::OneAPI, Zmm::Default, false,
                       ParMode::MpiSyclFlat});
        break;
      case AppClass::ComputeBound:
        out.push_back({Compiler::OneAPI, Zmm::High, false,
                       ParMode::MpiSyclFlat});
        break;
    }
  }
  return out;
}

Config default_config(const sim::MachineModel& m, AppClass cls) {
  if (m.is_gpu) return {Compiler::Cuda, Zmm::High, false, ParMode::Gpu};
  if (!m.has_avx512) {
    return {Compiler::Aocc, Zmm::Default, false,
            cls == AppClass::Unstructured ? ParMode::MpiVec : ParMode::MpiOmp};
  }
  switch (cls) {
    case AppClass::Unstructured:
      return {Compiler::OneAPI, Zmm::High, true, ParMode::MpiVec};
    case AppClass::ComputeBound:
      return {Compiler::OneAPI, Zmm::High, false, ParMode::MpiOmp};
    case AppClass::Structured:
      break;
  }
  return {Compiler::OneAPI, Zmm::High, false, ParMode::MpiOmp};
}

Layout layout(const sim::MachineModel& m, const Config& c) {
  Layout l;
  if (m.is_gpu) return l;
  const int threads_per_core = c.ht ? m.smt : 1;
  const int hw_threads = m.total_cores() * threads_per_core;
  switch (c.par) {
    case ParMode::Mpi:
    case ParMode::MpiVec:
      l.ranks = hw_threads;
      l.threads_per_rank = 1;
      break;
    case ParMode::MpiOmp:
    case ParMode::MpiSyclFlat:
    case ParMode::MpiSyclNd:
      l.ranks = m.total_numa();
      l.threads_per_rank = hw_threads / m.total_numa();
      break;
    case ParMode::Gpu:
      break;
  }
  return l;
}

void Robustness::install() const {
  if (faults.empty())
    fault::clear();
  else
    fault::install(fault::FaultPlan::parse(faults, seed));
  resil::Policy pol;
  pol.enabled = resil;
  pol.degraded = degraded;
  resil::install(pol);
}

void Robustness::apply(apps::Options& opt) const {
  opt.checkpoint_every = checkpoint_every;
  opt.nan_guard = nan_guard;
}

Robustness robustness_from_cli(const Cli& cli) {
  Robustness r;
  r.faults = cli.get("faults", "");
  r.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));
  r.checkpoint_every = static_cast<int>(cli.get_int("checkpoint-every", 0));
  r.nan_guard = static_cast<int>(cli.get_int("nan-guard", 0));
  r.resil = cli.get_bool("resil", false);
  r.degraded = cli.get_bool("degraded", false);
  return r;
}

}  // namespace bwlab::core
