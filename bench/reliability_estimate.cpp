// Reliability projection: combines the measured dirty/clean residency
// profile of a run with standard double-strike-window arithmetic to compare
// the expected SDC and DUE FIT of parity-only, the paper's non-uniform
// scheme, and uniform ECC — i.e. what the 59% area saving costs (and does
// not cost) in reliability, and why cleaning helps reliability too (less
// dirty residency = smaller DUE window).
//
//   reliability_estimate [--benchmark=swim] [--fitlambda=1e-19] ...
#include "bench_util.hpp"
#include "fault/reliability.hpp"

using namespace aeep;

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  bench::CommonOptions opt = bench::parse_common(args);
  const std::string bench_name = args.get("benchmark", "swim");
  const double lambda = args.get_double("fitlambda", 1e-19);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Reliability projection (SDC/DUE windows)", opt);

  auto run_with = [&](Cycle clean_interval) {
    sim::ExperimentOptions eo;
    eo.scheme = protect::SchemeKind::kNonUniform;
    eo.cleaning_interval = clean_interval;
    eo.instructions = opt.instructions;
    eo.warmup_instructions = opt.warmup;
    eo.seed = opt.seed;
    bench::apply_frontend(eo, opt);
    return sim::run_benchmark(bench_name, eo);
  };
  const sim::RunResult org = run_with(0);
  const sim::RunResult cleaned = run_with(interval);

  auto profile_of = [&](const sim::RunResult& r) {
    fault::ResidencyProfile pr;
    const double total = static_cast<double>(cache::kL2Geometry.total_lines());
    pr.avg_dirty_lines = r.avg_dirty_fraction * total;
    pr.avg_clean_lines = total - pr.avg_dirty_lines;
    // Residency between validations: a line is re-validated whenever it is
    // re-fetched or written back; approximate with cycles / turnover.
    const double turnover =
        std::max<double>(1.0, static_cast<double>(r.l2.fills + r.wb_total()));
    pr.clean_residency = static_cast<double>(r.core.cycles) * total / turnover;
    pr.dirty_residency = pr.clean_residency;
    return pr;
  };

  fault::ReliabilityParams params;
  params.lambda_per_bit_cycle = lambda;

  TextTable table({"configuration", "SDC rate/cycle", "DUE rate/cycle",
                   "recovered/cycle"});
  auto add = [&](const fault::ReliabilityEstimate& e, const char* suffix) {
    char sdc[32], due[32], rec[32];
    std::snprintf(sdc, sizeof sdc, "%.3e", e.sdc_rate);
    std::snprintf(due, sizeof due, "%.3e", e.due_rate);
    std::snprintf(rec, sizeof rec, "%.3e", e.recovered_rate);
    table.add_row({e.scheme + std::string(suffix), sdc, due, rec});
  };
  const auto pr_org = profile_of(org);
  const auto pr_cln = profile_of(cleaned);
  add(fault::estimate_parity_only(pr_org, params), "");
  add(fault::estimate_uniform_ecc(pr_org, params), "");
  add(fault::estimate_non_uniform(pr_org, params), ", no cleaning");
  add(fault::estimate_non_uniform(pr_cln, params), ", 1M cleaning");
  std::printf("%s", table.render().c_str());

  std::printf("\nreading the table:\n"
              " - parity-only loses dirty data on ANY strike: the DUE column"
              " is why write-back\n   caches cannot ship with parity alone;\n"
              " - the paper's scheme matches uniform ECC's DUE and adds only"
              " the clean-line\n   same-word-double SDC term, at 59%% less"
              " storage;\n"
              " - cleaning shrinks the dirty population, cutting the DUE"
              " window further.\n");
  return 0;
}
