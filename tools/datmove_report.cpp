// datmove_report: offline bwmem analysis of a saved run report.
//
// Reads the "datmove" section written by `run_app --datmove --report=F`
// (or a bare datmove JSON object) and re-prints the per-loop and reuse
// tables without re-running the application. With --capacity
// it evaluates the reuse histogram at a hypothetical fast-tier size —
// the "would this working set fit in HBM?" question — reporting the
// estimated spill traffic and served fraction at that capacity.
//
// Usage:
//   datmove_report FILE.json [--capacity=BYTES] [--csv]
//
//   --capacity=BYTES  estimate spill bytes / served fraction for a fast
//                     tier of this size (e.g. --capacity=68719476736)
//   --csv             emit the per-(loop,dat) records as CSV instead of
//                     tables (loop,dat,executions,bytes_read,bytes_written)
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/datmove.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().empty()) {
    std::cout << "usage: " << cli.program()
              << " FILE.json [--capacity=BYTES] [--csv]\n";
    return cli.has("help") ? 0 : 2;
  }
  const std::string path = cli.positional().front();
  const bool csv = cli.get_bool("csv", false);
  const double cap = cli.get_double("capacity", 0.0);
  core::DatMoveReport rep;
  try {
    cli.reject_unknown();
    std::ifstream is(path);
    if (!is.good()) {
      std::cerr << "datmove_report: cannot open '" << path << "'\n";
      return 1;
    }
    rep = core::parse_datmove_json(is);
  } catch (const Error& e) {
    std::cerr << "datmove_report: " << e.what() << "\n";
    return 1;
  }

  if (csv) {
    std::cout << "loop,dat,executions,bytes_read,bytes_written\n";
    for (const DatMoveRecord& r : rep.records)
      std::cout << r.loop << ',' << r.dat << ',' << r.executions << ','
                << r.bytes_read << ',' << r.bytes_written << "\n";
    return 0;
  }

  std::cout << path << ": " << rep.total_bytes << " counted bytes across "
            << rep.loops.size() << " loops / " << rep.dats.size()
            << " dats, working set " << rep.working_set_bytes << " bytes\n\n";
  core::datmove_table(rep).print(std::cout);
  std::cout << "\n";
  core::datmove_reuse_table(rep).print(std::cout);

  if (cap > 0) {
    const count_t spill = rep.reuse.est_spill_bytes(cap);
    const count_t total = rep.reuse.total_bytes();
    const double served =
        total > 0
            ? static_cast<double>(total - spill - rep.reuse.cold_bytes) /
                  static_cast<double>(total)
            : 0.0;
    std::cout << "\nat capacity " << static_cast<count_t>(cap)
              << " bytes: est. spill " << spill << " bytes, cold "
              << rep.reuse.cold_bytes << " bytes, served fraction "
              << served << "\n";
  }
  return 0;
}
