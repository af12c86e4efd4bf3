#include "common/instrument.hpp"

#include <algorithm>

#include "common/fault.hpp"
#include "common/live.hpp"

namespace bwlab {

namespace {

struct LayerMetrics {
  Counter& invocations;
  Histogram& seconds;
};

/// Registered on a layer's first loop, so a run without op2 loops exports
/// no op2 metrics.
LayerMetrics& layer_metrics(LoopLayer layer) {
  if (layer == LoopLayer::Ops) {
    static LayerMetrics ops{
        MetricsRegistry::global().counter("ops.loop_invocations"),
        MetricsRegistry::global().histogram("ops.kernel_seconds")};
    return ops;
  }
  static LayerMetrics op2{
      MetricsRegistry::global().counter("op2.loop_invocations"),
      MetricsRegistry::global().histogram("op2.kernel_seconds")};
  return op2;
}

/// bwfault NaN guard over the dats the executor marked for scanning.
void guard(const LoopEvent& ev) {
  for (const LoopDatArg& a : ev.args) {
    if (a.scan == nullptr) continue;
    long long first = -1;
    const long long bad = a.scan(a.id, &first);
    if (bad > 0) fault::report_nonfinite(ev.rec->name, *a.name, first, bad);
  }
}

}  // namespace

void record_loop(const LoopEvent& ev) {
  LoopRecord& r = *ev.rec;
  ++r.calls;
  r.points += ev.points;
  r.bytes += ev.bytes;
  r.flops += ev.flops;
  r.host_seconds += ev.seconds;
  r.pattern = ev.pattern;
  r.max_radius = std::max(r.max_radius, ev.max_radius);
  r.ndims = ev.ndims;
  live::on_loop_bytes(ev.bytes);

  LayerMetrics& m = layer_metrics(ev.layer);
  m.invocations.inc();
  m.seconds.observe(ev.seconds);

  datmove::record(ev);
  if (fault::nan_policy() != fault::NanPolicy::Off) guard(ev);
}

void datmove::detail::record(const LoopEvent& ev) {
  Instrumentation& ins = *ev.instr;
  bool counted = false;
  for (const LoopDatArg& a : ev.args) {
    const count_t moved = a.read_bytes + a.written_bytes;
    if (moved == 0) continue;
    ins.datmove_add(ev.rec->name, *a.name, a.read_bytes, a.written_bytes);
    ins.datmove_dat(*a.name, a.alloc_bytes, moved);
    // The touch footprint is the touch's moved bytes — the convention the
    // tiled chain uses per tile, so eager and tiled reuse histograms are
    // directly comparable.
    if (ev.touch) ins.datmove_touch(a.id, moved, moved);
    counted = true;
  }
  if (counted) ins.datmove_emit_counter();
}

}  // namespace bwlab
