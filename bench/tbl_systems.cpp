// Section 2 platform table: cores, clocks, peak FP32, peak and achieved
// bandwidth, flop/byte balance — the quantities the paper's system
// overview quotes (13.6-18.6 TF, 9.4 / 36 / 28 flop/byte, ...).
#include "bench/bench_common.hpp"
#include "sim/bandwidth.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "tbl_systems");
  cli.reject_unknown();
  Table t("Section 2 — modeled platform summary");
  t.set_columns({{"quantity", 0},
                 {"MAX 9480", 1},
                 {"8360Y", 1},
                 {"7V73X", 1},
                 {"A100", 1}});
  auto row = [&](const std::string& name, auto&& f) {
    t.add_row({name, f(sim::max9480()), f(sim::icx8360y()), f(sim::milanx()),
               f(sim::a100())});
  };
  row("sockets x cores", [](const sim::MachineModel& m) {
    return double(m.sockets * 1000 + m.cores_per_socket);
  });
  row("hardware threads", [](const sim::MachineModel& m) {
    return double(m.total_threads());
  });
  row("NUMA domains", [](const sim::MachineModel& m) {
    return double(m.total_numa());
  });
  row("base clock GHz", [](const sim::MachineModel& m) {
    return m.base_clock_ghz;
  });
  row("all-core turbo GHz", [](const sim::MachineModel& m) {
    return m.allcore_turbo_ghz;
  });
  row("FP32 peak @base, TFLOP/s", [](const sim::MachineModel& m) {
    return m.fp32_peak(m.base_clock_ghz) / 1e12;
  });
  row("FP32 peak @turbo, TFLOP/s", [](const sim::MachineModel& m) {
    return m.fp32_peak(m.allcore_turbo_ghz) / 1e12;
  });
  row("peak mem BW GB/s", [](const sim::MachineModel& m) {
    return m.mem_bw_peak_node() / kGB;
  });
  row("STREAM triad GB/s", [](const sim::MachineModel& m) {
    return m.stream_triad_node / kGB;
  });
  row("flop/byte (paper: 9.4/36/28)", [](const sim::MachineModel& m) {
    return m.flop_per_byte();
  });
  row("cache:mem BW ratio (paper: 3.8/6.3/14)",
      [](const sim::MachineModel& m) {
        return sim::BandwidthModel(m).cache_to_mem_ratio();
      });
  run.emit(t);
  for (const sim::MachineModel* m :
       {&sim::max9480(), &sim::icx8360y(), &sim::milanx()}) {
    run.record_value("model." + m->id + ".triad_gbs", "GB/s",
                     benchjson::Better::Higher, m->stream_triad_node / kGB);
    run.record_value("model." + m->id + ".flop_per_byte", "flop/B",
                     benchjson::Better::Higher, m->flop_per_byte());
  }
  run.finish();
  return 0;
}
