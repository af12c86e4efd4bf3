// The REAL BabelStream kernels on this host across array sizes (the
// measured counterpart of Figure 1's size sweep), on the shared
// bench::Runner harness: every kernel/size pair is timed over warmed-up
// repetitions and recorded as a GB/s metric in BENCH_gb_host_stream.json
// (--bench-json), the anchor suite of the CI performance trajectory.
#include <cstdint>

#include "bench/bench_common.hpp"
#include "microbench/babelstream.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_host_stream");

  const int threads = static_cast<int>(cli.get_int("threads", 1));
  cli.reject_unknown();
  par::ThreadPool pool(threads);
  Table t("BabelStream on THIS host (median of " + std::to_string(run.reps()) +
          " reps)");
  t.set_columns({{"kernel", 0}, {"elements", 0}, {"GB/s", 2}});

  for (const idx_t n : {idx_t{1} << 16, idx_t{1} << 20, idx_t{1} << 22}) {
    micro::BabelStream bs(n, pool);
    const double nd = static_cast<double>(n) * sizeof(double);
    const std::string tag = std::to_string(n);
    struct Kernel {
      const char* name;
      double bytes;
      void (micro::BabelStream::*fn)();
    };
    double sink = 0;
    for (const Kernel& k : {Kernel{"copy", 2 * nd, &micro::BabelStream::copy},
                            Kernel{"mul", 2 * nd, &micro::BabelStream::mul},
                            Kernel{"add", 3 * nd, &micro::BabelStream::add},
                            Kernel{"triad", 3 * nd,
                                   &micro::BabelStream::triad}}) {
      std::vector<double> gbs = run.measure(1, [&] { (bs.*k.fn)(); });
      for (double& s : gbs) s = k.bytes / s / kGB;
      const double med = run.record(std::string(k.name) + "." + tag + ".gbs",
                                    "GB/s", benchjson::Better::Higher, gbs);
      t.add_row({std::string(k.name), static_cast<double>(n), med});
    }
    std::vector<double> dot_gbs = run.measure(1, [&] { sink += bs.dot(); });
    for (double& s : dot_gbs) s = 2 * nd / s / kGB;
    const double med = run.record("dot." + tag + ".gbs", "GB/s",
                                  benchjson::Better::Higher, dot_gbs);
    t.add_row({std::string("dot"), static_cast<double>(n), med});
    (void)sink;
  }

  run.emit(t);
  run.finish();
  return 0;
}
