// The configuration space of Section 5: compiler x ZMM policy x
// hyperthreading x parallelization. Feasibility rules follow the paper
// (SYCL requires the OneAPI toolchain; Classic stalls on miniBUDE; the
// AMD machine has no AVX-512 and SMT is disabled; the GPU runs CUDA).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace bwlab {
class Cli;
namespace apps {
struct Options;
}  // namespace apps
}  // namespace bwlab

namespace bwlab::core {

enum class Compiler {
  Classic,  ///< Intel C++ Compiler Classic (ICC/ICPC)
  OneAPI,   ///< Intel oneAPI DPC++/C++ (ICX/ICPX)
  Aocc,     ///< AMD Optimizing C/C++ Compiler (EPYC runs)
  Cuda,     ///< nvcc (A100 runs)
};

enum class Zmm { Default, High };

enum class ParMode {
  Mpi,         ///< one rank per (logical) core
  MpiVec,      ///< pure MPI with auto-vectorized gather/scatter kernels
  MpiOmp,      ///< one rank per NUMA domain + threads
  MpiSyclFlat, ///< one rank per NUMA domain + SYCL flat parallel_for
  MpiSyclNd,   ///< ... with explicit nd_range workgroups
  Gpu,         ///< CUDA (platform-comparison figures only)
};

const char* to_string(Compiler c);
const char* to_string(Zmm z);
const char* to_string(ParMode p);

struct Config {
  Compiler compiler = Compiler::OneAPI;
  Zmm zmm = Zmm::Default;
  bool ht = false;  ///< two threads/ranks per physical core
  ParMode par = ParMode::MpiOmp;

  bool is_sycl() const {
    return par == ParMode::MpiSyclFlat || par == ParMode::MpiSyclNd;
  }
  /// Row label in the style of Figures 3/4.
  std::string label() const;
};

/// Application class, deciding which config dimensions apply.
enum class AppClass { Structured, Unstructured, ComputeBound };

/// Feasible configurations on a CPU machine for an app class, mirroring
/// the rows of Figure 3 (structured: MPI / MPI+OpenMP for both compilers,
/// MPI+SYCL with OneAPI), Figure 4 (unstructured: adds MPI-vec, single
/// SYCL row) and the miniBUDE discussion.
std::vector<Config> config_space(const sim::MachineModel& m, AppClass cls);

/// The per-machine best-practice configuration the paper converges on
/// (OneAPI, ZMM high, HT off, MPI+OpenMP on Intel; AOCC on AMD; CUDA on
/// the GPU) — used where a single configuration is needed.
Config default_config(const sim::MachineModel& m, AppClass cls);

/// Ranks and threads-per-rank a configuration uses on a machine.
struct Layout {
  int ranks = 1;
  int threads_per_rank = 1;
  int total_threads() const { return ranks * threads_per_rank; }
};
Layout layout(const sim::MachineModel& m, const Config& c);

/// Runtime robustness knobs (bwfault), the configuration axis orthogonal
/// to the paper's compiler/ZMM/HT space: fault injection, the bwresil
/// policy, checkpoint/rollback and the NaN/Inf field guard. Shared by
/// every driver binary so the flags mean the same thing everywhere.
struct Robustness {
  std::string faults;          ///< fault plan spec ("" = none)
  std::uint64_t seed = 12345;  ///< seeds the plan's payload-flip masks
  int checkpoint_every = 0;    ///< rollback checkpoint cadence (0 = off)
  int nan_guard = 0;           ///< 0 off, 1 report, 2 abort

  // --- bwresil (resilient Comm policy) -------------------------------------
  bool resil = false;          ///< Comm replay-log retransmit policy
  bool degraded = false;       ///< stale-data continue when no log helps

  /// Installs the process-global pieces: parses + installs the fault
  /// plan (clears it when `faults` is empty) and installs (or clears) the
  /// bwresil policy. The NaN policy is per run: apply() copies
  /// `nan_guard` into the Options and each app's run() sets it
  /// (apps::apply_robustness).
  void install() const;
  /// Copies the per-run knobs into an application's Options.
  void apply(apps::Options& opt) const;
};

/// Parses the shared robustness flags from an already-constructed Cli:
/// --faults, --checkpoint-every, --nan-guard, --resil, --degraded (seed
/// comes from the common --seed flag).
Robustness robustness_from_cli(const Cli& cli);

}  // namespace bwlab::core
