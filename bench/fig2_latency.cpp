// Figure 2: message-passing latency (one writer / one reader on many
// cache lines) between hyperthreads, adjacent cores, and cores in other
// NUMA domains / sockets, on the three CPU platforms — plus the real
// harness executed on this host.
#include "bench/bench_common.hpp"
#include "microbench/c2c_latency.hpp"
#include "sim/topology.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig2_latency");
  const auto messages =
      static_cast<count_t>(cli.get_int("messages", 100000));
  cli.reject_unknown();

  Table t("Figure 2 — core-to-core message latency (ns), model");
  t.set_columns({{"platform", 0},
                 {"HT siblings", 0},
                 {"adjacent cores", 0},
                 {"cross-NUMA", 0},
                 {"cross-socket", 0}});
  for (const sim::MachineModel* m : sim::cpu_machines()) {
    t.add_row({m->name,
               m->smt > 1 ? Cell(m->latency_ns(sim::PairClass::SmtSibling))
                          : Cell(std::string("n/a (SMT off)")),
               m->latency_ns(sim::PairClass::SameNuma),
               m->latency_ns(sim::PairClass::CrossNuma),
               m->latency_ns(sim::PairClass::CrossSocket)});
    run.record_value("model." + m->id + ".cross_socket.ns", "ns",
                     benchjson::Better::Lower,
                     m->latency_ns(sim::PairClass::CrossSocket));
  }
  run.emit(t);

  Table claims("Figure 2 claims — paper vs model");
  claims.set_columns({{"claim", 0}, {"paper", 2}, {"model", 2}});
  claims.add_row(
      {std::string("7V73X cross-socket / Intel cross-socket"), 1.6,
       sim::milanx().lat_ns_cross_socket /
           sim::icx8360y().lat_ns_cross_socket});
  claims.add_row(
      {std::string("MAX cross-socket / 8360Y cross-socket (no big gain)"),
       1.0,
       sim::max9480().lat_ns_cross_socket /
           sim::icx8360y().lat_ns_cross_socket});
  run.emit(claims);

  // Real harness on this host (single-core containers report scheduling
  // latency rather than coherence latency; the harness itself is what is
  // being demonstrated).
  Table host("One writer / one reader on THIS host (real measurement)");
  host.set_columns({{"cache lines", 0}, {"ns/message", 1}});
  for (int lines : {1, 4, 16, 64}) {
    const micro::LatencyResult r = micro::measure_host(lines, messages);
    host.add_row({double(lines), r.ns_per_message});
    run.record_value("host.lines" + std::to_string(lines) + ".ns_per_msg",
                     "ns", benchjson::Better::Lower, r.ns_per_message);
  }
  run.emit(host);
  run.finish();
  return 0;
}
