// Energy comparison (the Li et al. [11] motivation the paper cites):
// protection energy per scheme from a measured run — codec logic, check-bit
// array accesses, and extra write-back traffic. The structural claim: most
// L2 reads hit clean lines, where a 1-bit parity check replaces a SECDED
// decode and the 16KB parity array replaces a 128KB ECC array lookup.
//
//   energy_overhead [--benchmark=gcc] [--instructions=2M] ...
#include "bench_util.hpp"
#include "protect/energy_model.hpp"

using namespace aeep;

namespace {

protect::EnergyEvents events_from(const sim::RunResult& r,
                                  const sim::RunResult& org) {
  protect::EnergyEvents ev;
  ev.l2_reads = r.l2.reads;
  ev.l2_writes = r.l2.writes;
  ev.l2_fills = r.l2.fills;
  ev.clean_read_fraction_permille =
      static_cast<u64>((1.0 - r.avg_dirty_fraction) * 1000.0);
  ev.writebacks = r.wb_total();
  ev.baseline_writebacks = org.wb_total();
  return ev;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  bench::CommonOptions opt = bench::parse_common(args);
  const std::string bench_name = args.get("benchmark", "gcc");
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Protection energy comparison", opt);
  std::printf("benchmark: %s, cleaning interval %s\n\n", bench_name.c_str(),
              bench::interval_label(interval).c_str());

  sim::ExperimentOptions base;
  base.instructions = opt.instructions;
  base.warmup_instructions = opt.warmup;
  base.seed = opt.seed;
  bench::apply_frontend(base, opt);

  sim::ExperimentOptions org_opts = base;
  org_opts.scheme = protect::SchemeKind::kUniformEcc;
  const sim::RunResult org = sim::run_benchmark(bench_name, org_opts);

  sim::ExperimentOptions prop_opts = base;
  prop_opts.scheme = protect::SchemeKind::kSharedEccArray;
  prop_opts.cleaning_interval = interval;
  const sim::RunResult prop = sim::run_benchmark(bench_name, prop_opts);

  const auto& geom = cache::kL2Geometry;
  const auto e_org = protect::estimate_energy(
      protect::SchemeKind::kUniformEcc, events_from(org, org), geom, 1);
  const auto e_prop = protect::estimate_energy(
      protect::SchemeKind::kSharedEccArray, events_from(prop, org), geom, 1);

  TextTable table({"scheme", "codec (uJ)", "check arrays (uJ)",
                   "extra traffic (uJ)", "total (uJ)"});
  for (const auto* e : {&e_org, &e_prop}) {
    table.add_row({e->scheme, TextTable::fmt(e->codec_pj / 1e6, 2),
                   TextTable::fmt(e->check_storage_pj / 1e6, 2),
                   TextTable::fmt(e->extra_traffic_pj / 1e6, 2),
                   TextTable::fmt(e->total_pj() / 1e6, 2)});
  }
  std::printf("%s", table.render().c_str());
  const double saving = 1.0 - e_prop.total_pj() / e_org.total_pj();
  std::printf("\nprotection-energy saving: %s over %llu committed micro-ops\n",
              TextTable::pct(saving, 1).c_str(),
              static_cast<unsigned long long>(opt.instructions));
  std::printf("(per-event energies are documented assumptions in"
              " protect/energy_model.hpp — the split, not\nthe absolute"
              " numbers, is the result)\n");
  return 0;
}
