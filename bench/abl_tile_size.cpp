// Ablation: tile-height sweep for the cache-blocking executor — REAL
// host runs of CloverLeaf 2D through the tiling executor at different
// tile heights, validating bitwise-equal results and showing how the
// choice moves host runtime; plus the model's view of what tile residency
// means on the paper's platforms.
#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "bench/bench_common.hpp"
#include "sim/bandwidth.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "abl_tile_size");
  apps::Options base;
  base.n = cli.get_int("n", 192);
  base.iterations = static_cast<int>(cli.get_int("iters", 3));
  cli.reject_unknown();

  const apps::Result eager = apps::clover2d::run(base);
  run.record_value("host.clover2d.eager_s", "s", benchjson::Better::Lower,
                   eager.elapsed);

  Table t("Ablation — tile height sweep on THIS host (CloverLeaf 2D, n=" +
          std::to_string(base.n) + ")");
  t.set_columns({{"tile height", 0},
                 {"seconds", 3},
                 {"vs eager", 2},
                 {"bitwise equal", 0}});
  t.add_row({std::string("eager (no tiling)"), eager.elapsed, 1.0,
             std::string("-")});
  for (idx_t tile : {4, 8, 16, 32, 64, 128}) {
    apps::Options o = base;
    o.tiled = true;
    o.tile_size = tile;
    const apps::Result r = apps::clover2d::run(o);
    t.add_row({double(tile), r.elapsed, eager.elapsed / r.elapsed,
               std::string(r.checksum == eager.checksum ? "yes" : "NO")});
    run.record_value("host.clover2d.tile" + std::to_string(tile) + "_s", "s",
                     benchjson::Better::Lower, r.elapsed);
  }
  // The auto-tuner's pick on this host, as one more point of the sweep.
  {
    apps::Options o = base;
    o.tiled = true;
    o.tile_size = 0;
    const apps::Result r = apps::clover2d::run(o);
    t.add_row({"auto (h=" + std::to_string(r.instr.tiling().tile_height) + ")",
               r.elapsed, eager.elapsed / r.elapsed,
               std::string(r.checksum == eager.checksum ? "yes" : "NO")});
    run.record_value("host.clover2d.tile_auto_s", "s",
                     benchjson::Better::Lower, r.elapsed);
  }
  run.emit(t);

  // Model view: which cache level a tile of given height occupies on each
  // platform (15 resident arrays at 7680 columns of doubles).
  Table m("Model — tile working set vs cache capacity at paper scale");
  m.set_columns({{"tile height", 0},
                 {"tile MiB", 1},
                 {"MAX BW GB/s", 0},
                 {"8360Y BW GB/s", 0},
                 {"7V73X BW GB/s", 0}});
  for (idx_t tile : {8, 32, 128, 512, 2048, 7680}) {
    const double bytes = 15.0 * 7680.0 * double(tile) * 8.0;
    m.add_row({double(tile), bytes / kMiB,
               sim::BandwidthModel(sim::max9480()).blocked_bw(bytes, sim::Scope::Node) / kGB,
               sim::BandwidthModel(sim::icx8360y()).blocked_bw(bytes, sim::Scope::Node) / kGB,
               sim::BandwidthModel(sim::milanx()).blocked_bw(bytes, sim::Scope::Node) / kGB});
  }
  run.emit(m);
  run.finish();
  return 0;
}
