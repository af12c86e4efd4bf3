// Figure 1: BabelStream Triad bandwidth vs array size on the three CPU
// platforms, from one NUMA domain, one socket, and both sockets; the MAX
// CPU additionally with streaming-store-tuned flags ("SS").
//
// The platform numbers come from the calibrated bandwidth model (we have
// none of the machines); the right-hand block is the REAL BabelStream
// implementation executed on this host as a sanity lane for the benchmark
// itself.
#include "bench/bench_common.hpp"
#include "microbench/babelstream.hpp"
#include "sim/bandwidth.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig1_babelstream");
  const idx_t n = cli.get_int("host-elems", 1 << 22);
  const int reps = static_cast<int>(cli.get_int("host-reps", 5));
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  cli.reject_unknown();

  Table t("Figure 1 — BabelStream Triad bandwidth (GB/s), model");
  t.set_columns({{"array MiB", 1},
                 {"MAX 1-NUMA", 0},
                 {"MAX socket", 0},
                 {"MAX node", 0},
                 {"MAX node SS", 0},
                 {"8360Y socket", 0},
                 {"8360Y node", 0},
                 {"7V73X socket", 0},
                 {"7V73X node", 0}});

  sim::BandwidthModel mx(sim::max9480()), icx(sim::icx8360y()),
      amd(sim::milanx());
  for (double mib = 0.25; mib <= 16384.0; mib *= 2.0) {
    const double ws = 3.0 * mib * kMiB;  // triad: three resident arrays
    t.add_row({mib,
               mx.stream_bw(ws, sim::Scope::OneNuma) / kGB,
               mx.stream_bw(ws, sim::Scope::OneSocket) / kGB,
               mx.stream_bw(ws, sim::Scope::Node) / kGB,
               mx.stream_bw(ws, sim::Scope::Node, true) / kGB,
               icx.stream_bw(ws, sim::Scope::OneSocket) / kGB,
               icx.stream_bw(ws, sim::Scope::Node) / kGB,
               amd.stream_bw(ws, sim::Scope::OneSocket) / kGB,
               amd.stream_bw(ws, sim::Scope::Node) / kGB});
  }
  run.emit(t);

  // Headline plateaus into the trajectory file (deterministic model
  // outputs: one sample each, zero MAD).
  run.record_value("model.max_node.gbs", "GB/s", benchjson::Better::Higher,
                   mx.stream_bw(64 * kGiB, sim::Scope::Node) / kGB);
  run.record_value("model.max_node_ss.gbs", "GB/s", benchjson::Better::Higher,
                   mx.stream_bw(64 * kGiB, sim::Scope::Node, true) / kGB);
  run.record_value("model.icx_node.gbs", "GB/s", benchjson::Better::Higher,
                   icx.stream_bw(64 * kGiB, sim::Scope::Node) / kGB);
  run.record_value("model.amd_node.gbs", "GB/s", benchjson::Better::Higher,
                   amd.stream_bw(64 * kGiB, sim::Scope::Node) / kGB);

  Table plateau("Figure 1 plateaus — paper vs model");
  plateau.set_columns(
      {{"quantity", 0}, {"paper GB/s", 0}, {"model GB/s", 0}});
  plateau.add_row({std::string("MAX node (app flags)"), 1446.0,
                   mx.stream_bw(64 * kGiB, sim::Scope::Node) / kGB});
  plateau.add_row({std::string("MAX node (SS flags)"), 1643.0,
                   mx.stream_bw(64 * kGiB, sim::Scope::Node, true) / kGB});
  plateau.add_row({std::string("8360Y node"), 296.0,
                   icx.stream_bw(64 * kGiB, sim::Scope::Node) / kGB});
  plateau.add_row({std::string("7V73X node"), 310.0,
                   amd.stream_bw(64 * kGiB, sim::Scope::Node) / kGB});
  plateau.add_row({std::string("MAX cache:mem ratio"), 3.8,
                   mx.cache_to_mem_ratio()});
  plateau.add_row({std::string("8360Y cache:mem ratio"), 6.3,
                   icx.cache_to_mem_ratio()});
  plateau.add_row({std::string("7V73X cache:mem ratio"), 14.0,
                   amd.cache_to_mem_ratio()});
  run.emit(plateau);

  // Real host lane: run the actual BabelStream kernels here.
  par::ThreadPool pool(threads);
  micro::BabelStream bs(n, pool);
  const auto results = bs.run_all(reps);
  Table host("BabelStream on THIS host (real measurement)");
  host.set_columns({{"kernel", 0}, {"GB/s", 2}, {"verified max rel err", 12}});
  const double err = bs.verify(reps, bs.last_dot());
  for (const auto& r : results) {
    host.add_row({r.kernel, r.bandwidth() / kGB, err});
    run.record_value("host." + r.kernel + ".gbs", "GB/s",
                     benchjson::Better::Higher, r.bandwidth() / kGB);
  }
  run.emit(host);
  run.finish();
  return 0;
}
