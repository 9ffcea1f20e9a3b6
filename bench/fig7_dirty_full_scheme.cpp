// Figure 7: percentage of dirty cache lines per cycle under the full
// proposed scheme — 1M-cycle dirty-line cleaning plus the shared ECC array
// with one entry per set. The paper's finding: every benchmark drops below
// 25% (the array caps dirty lines at one per set = 4K of 16K lines), and the
// dirty-heavy benchmarks (apsi, mesa, gap, parser) collapse because ECC
// entry evictions clean them.
//
// Three more results come from the same two cells per benchmark:
// - Figure 1, from the baselines (the conventional architecture: no
//   cleaning, uniform ECC). The paper reports a 51.6% average with apsi,
//   mesa, gap and parser dirty-heavy.
// - Figure 8: write-back traffic (% of loads/stores) under the full scheme,
//   split into Clean-WB (dirty-line cleaning), WB (normal replacement
//   write-backs) and ECC-WB (ECC-entry evictions), against the baseline
//   ("org"). The paper's finding: ECC-WB dominates; totals average 1.20%
//   (FP) and 1.19% (INT) vs the original 1.08% / 1.12% — a small increase.
// - §5.2: IPC loss of the full scheme relative to the baseline, from the
//   extra write-back traffic on the split-transaction bus. The paper
//   reports 0.14% (FP) and 0.65% (INT) average loss.
//
//   fig7_dirty_full_scheme [--instructions=2M] [--interval=1M]
//                          [--jobs=N] [--json=out.json] ...
#include "bench_util.hpp"
#include "json_reporter.hpp"

using namespace aeep;

namespace {

using Benchmarks = std::vector<std::string>;
/// Per benchmark, its baseline cell and then its proposed cell.
using Results = std::vector<sim::RunResult>;

const char* suite_of(const sim::RunResult& r) {
  return r.floating_point ? "fp" : "int";
}

void print_fig1(const Benchmarks& benchmarks, const Results& results) {
  bench::print_section("Figure 1: dirty lines per cycle, baseline L2");
  TextTable table({"benchmark", "suite", "dirty lines/cycle", "avg dirty lines",
                   "L2 miss rate", "IPC"});
  double sum = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& r = results[2 * i];
    sum += r.avg_dirty_fraction;
    const double l2_miss =
        r.l2.accesses() ? static_cast<double>(r.l2.misses()) /
                              static_cast<double>(r.l2.accesses())
                        : 0.0;
    table.add_row({benchmarks[i], suite_of(r),
                   TextTable::pct(r.avg_dirty_fraction),
                   std::to_string(r.avg_dirty_lines),
                   TextTable::pct(l2_miss), TextTable::fmt(r.ipc(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage dirty lines/cycle: %s   (paper: 51.6%%)\n",
              TextTable::pct(sum / static_cast<double>(benchmarks.size()))
                  .c_str());
}

void print_fig8(const Benchmarks& benchmarks, const Results& results) {
  bench::print_section("Figure 8: write-back breakdown, full proposed scheme");
  TextTable table({"benchmark", "suite", "Clean-WB", "WB", "ECC-WB", "total",
                   "org total"});
  double sum_total = 0.0, sum_org = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& o = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    const double ls = static_cast<double>(r.core.loads_stores());
    auto pct_of_ls = [&](u64 n) {
      return ls ? static_cast<double>(n) / ls : 0.0;
    };
    sum_total += r.wb_per_ls();
    sum_org += o.wb_per_ls();
    table.add_row({benchmarks[i], suite_of(r),
                   TextTable::pct(pct_of_ls(r.wb_cleaning), 2),
                   TextTable::pct(pct_of_ls(r.wb_replacement), 2),
                   TextTable::pct(pct_of_ls(r.wb_ecc), 2),
                   TextTable::pct(r.wb_per_ls(), 2),
                   TextTable::pct(o.wb_per_ls(), 2)});
  }
  std::printf("%s", table.render().c_str());
  const double n = static_cast<double>(benchmarks.size());
  std::printf("\naverage total: %s vs org %s   (paper: 1.20%%/1.19%% vs"
              " 1.08%%/1.12%%; ECC-WB dominates)\n",
              TextTable::pct(sum_total / n, 2).c_str(),
              TextTable::pct(sum_org / n, 2).c_str());
}

void print_ipc_loss(const Benchmarks& benchmarks, const Results& results) {
  bench::print_section("§5.2: IPC loss of the proposed scheme");
  TextTable table({"benchmark", "suite", "IPC org", "IPC proposed", "loss"});
  double fp_loss = 0.0, int_loss = 0.0;
  unsigned fp_n = 0, int_n = 0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& o = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    const double loss = (o.ipc() - r.ipc()) / o.ipc();
    if (r.floating_point) {
      fp_loss += loss;
      ++fp_n;
    } else {
      int_loss += loss;
      ++int_n;
    }
    table.add_row({benchmarks[i], suite_of(r), TextTable::fmt(o.ipc(), 3),
                   TextTable::fmt(r.ipc(), 3), TextTable::pct(loss, 2)});
  }
  std::printf("%s", table.render().c_str());
  if (fp_n)
    std::printf("\naverage FP loss : %s  (paper: 0.14%%)",
                TextTable::pct(fp_loss / fp_n, 2).c_str());
  if (int_n)
    std::printf("\naverage INT loss: %s  (paper: 0.65%%)",
                TextTable::pct(int_loss / int_n, 2).c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 interval = args.get_u64("interval", u64{1} << 20);
  reject_unknown_flags(args);
  bench::print_header("Figure 7: dirty lines per cycle, full proposed scheme",
                      opt);

  const unsigned jobs = bench::resolve_jobs(opt);
  bench::JsonReporter json("fig7_dirty_full_scheme", opt, jobs);
  json.set_config("interval", JsonValue::number(interval));

  // Two cells per benchmark: conventional baseline and the full scheme.
  const auto benchmarks = bench::suite_benchmarks(opt.suite);
  std::vector<sim::SweepJob> grid;
  for (const auto& name : benchmarks) {
    sim::ExperimentOptions base;
    base.scheme = protect::SchemeKind::kUniformEcc;
    base.instructions = opt.instructions;
    base.warmup_instructions = opt.warmup;
    base.seed = opt.seed;
    grid.push_back({name, base, "baseline"});

    sim::ExperimentOptions ours = base;
    ours.scheme = protect::SchemeKind::kSharedEccArray;
    ours.ecc_entries_per_set = 1;
    ours.cleaning_interval = interval;
    grid.push_back({name, ours, "proposed"});
  }
  const std::vector<sim::RunResult> results =
      bench::run_sweep(opt, grid);

  TextTable table({"benchmark", "suite", "baseline dirty", "proposed dirty",
                   "peak dirty lines"});
  double sum = 0.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const sim::RunResult& b = results[2 * i];
    const sim::RunResult& r = results[2 * i + 1];
    sum += r.avg_dirty_fraction;
    table.add_row({benchmarks[i], suite_of(r),
                   TextTable::pct(b.avg_dirty_fraction, 1),
                   TextTable::pct(r.avg_dirty_fraction, 1),
                   std::to_string(r.peak_dirty_lines)});
    json.add_cell(benchmarks[i], "baseline", sim::run_result_json(b));
    json.add_cell(benchmarks[i], "proposed", sim::run_result_json(r));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage proposed dirty: %s   (paper: below 25%% everywhere;"
              " 4K-line hard cap = 25%%)\n",
              TextTable::pct(sum / static_cast<double>(benchmarks.size()), 1)
                  .c_str());

  print_fig1(benchmarks, results);
  print_fig8(benchmarks, results);
  print_ipc_loss(benchmarks, results);
  return json.write(opt.json_path) ? 0 : 1;
}
