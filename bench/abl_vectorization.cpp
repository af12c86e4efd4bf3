// Ablation: why the MPI-vec lane wins the unstructured applications —
// REAL host timings of the serial vs vec vs colored execution modes of
// the MG-CFD and Volna kernels, and the model's decomposition of the vec
// advantage (gather MLP x pack efficiency) per platform and ZMM policy.
#include "apps/mgcfd/mgcfd.hpp"
#include "apps/volna/volna.hpp"
#include "bench/bench_common.hpp"
#include "core/tuning.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "abl_vectorization");
  const idx_t mgcfd_n = cli.get_int("mgcfd-n", 24);
  const idx_t volna_n = cli.get_int("volna-n", 64);
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  cli.reject_unknown();

  Table host("Ablation — execution modes on THIS host (real runs)");
  host.set_columns({{"app / mode", 0},
                    {"seconds", 3},
                    {"checksum matches serial", 0}});
  {
    apps::Options o;
    o.n = mgcfd_n;
    o.iterations = iters;
    const apps::Result serial = apps::mgcfd::run(o);
    host.add_row({std::string("MG-CFD serial"), serial.elapsed,
                  std::string("-")});
    run.record_value("host.mgcfd.serial_s", "s", benchjson::Better::Lower,
                     serial.elapsed);
    for (auto [mode, name] : {std::pair{1, "MG-CFD vec"},
                              std::pair{2, "MG-CFD colored"}}) {
      apps::Options v = o;
      v.exec_mode = mode;
      const apps::Result r = apps::mgcfd::run(v);
      run.record_value(std::string("host.mgcfd.mode") + std::to_string(mode) +
                           "_s",
                       "s", benchjson::Better::Lower, r.elapsed);
      host.add_row({std::string(name), r.elapsed,
                    std::string(std::abs(r.checksum - serial.checksum) <
                                        1e-9 * std::abs(serial.checksum)
                                    ? "yes"
                                    : "NO")});
    }
  }
  {
    apps::Options o;
    o.n = volna_n;
    o.iterations = iters;
    const apps::Result serial = apps::volna::run(o);
    host.add_row({std::string("Volna serial"), serial.elapsed,
                  std::string("-")});
    for (auto [mode, name] :
         {std::pair{1, "Volna vec"}, std::pair{2, "Volna colored"}}) {
      apps::Options v = o;
      v.exec_mode = mode;
      const apps::Result r = apps::volna::run(v);
      host.add_row({std::string(name), r.elapsed,
                    std::string(std::abs(r.checksum - serial.checksum) <
                                        1e-4 * std::abs(serial.checksum)
                                    ? "yes"
                                    : "NO")});
    }
  }
  run.emit(host);

  Table model("Model — vec-lane ingredients per platform");
  model.set_columns({{"platform / zmm", 0},
                     {"gather speedup (lanes x pack eff)", 2},
                     {"note", 0}});
  model.add_row({std::string("MAX/8360Y, ZMM high"),
                 vec_gather_speedup(sim::max9480(), Zmm::High),
                 std::string("8 DP lanes, heavy pack/unpack")});
  model.add_row({std::string("MAX/8360Y, ZMM default"),
                 vec_gather_speedup(sim::max9480(), Zmm::Default),
                 std::string("vec wants ZMM high (paper S5)")});
  model.add_row({std::string("7V73X (AVX2)"),
                 vec_gather_speedup(sim::milanx(), Zmm::Default),
                 std::string("4 lanes, smaller pack overhead (paper S6)")});
  run.emit(model);

  // Full-app model consequence on the MAX CPU.
  Table eff("Model — MPI vec over pure MPI on MAX 9480 (paper: 1.6-1.8x)");
  eff.set_columns({{"application", 0}, {"speedup", 2}});
  for (const AppInfo* a : unstructured_apps()) {
    PerfModel pm(sim::max9480());
    const Config mpi{Compiler::OneAPI, Zmm::High, true, ParMode::Mpi};
    Config vec = mpi;
    vec.par = ParMode::MpiVec;
    const double sp = pm.predict(a->profile, mpi).total() /
                      pm.predict(a->profile, vec).total();
    eff.add_row({a->display, sp});
    run.record_value("model." + a->id + ".vec_speedup", "x",
                     benchjson::Better::Higher, sp);
  }
  run.emit(eff);
  run.finish();
  return 0;
}
