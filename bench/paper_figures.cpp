// The paper's figures, its design ablations and the energy and reliability
// extensions from one grid: every suite benchmark under the eleven distinct
// L2 configurations the tables read, each simulated once. It prints eleven
// tables:
//
// - Figures 3/4: percentage of dirty lines per cycle for each cleaning
//   interval (64K, 256K, 1M, 4M processor cycles) against no cleaning
//   ("org"). The paper's finding: smaller intervals reduce the dirty
//   percentage roughly linearly; streaming codes see little benefit at 4M.
// - Figures 5/6: write-back traffic as a percentage of all loads/stores for
//   the same cells. 1M cleaning approaches org (FP 1.13% vs 1.08%; INT
//   1.16% vs 1.12%), while small intervals inflate it with premature
//   write-backs.
// - Figure 7: dirty lines under the full proposed scheme, 1M cleaning plus
//   the shared ECC array with one entry per set. Every benchmark drops
//   below 25% (the array caps dirty lines at 4K of 16K), and the
//   dirty-heavy ones (apsi, mesa, gap, parser) collapse because ECC-entry
//   evictions clean them.
// - Figure 1: dirty lines of the conventional L2 (uniform ECC, no
//   cleaning). The paper reports a 51.6% average.
// - Figure 8: the proposed scheme's write-back traffic split into Clean-WB,
//   WB and ECC-WB, against org. ECC-WB dominates; totals average 1.20% (FP)
//   and 1.19% (INT) vs the original 1.08% / 1.12%.
// - §5.2: IPC loss of the proposed scheme against org, from the extra
//   write-back traffic on the split-transaction bus. The paper reports
//   0.14% (FP) and 0.65% (INT).
// - Cleaning policies at 1M: the paper's written bit against naive
//   write-back-everything, a cache-decay-style counter (Kaxiras et al.) and
//   eager write-back on an idle bus (Lee et al.): the dirty%-vs-traffic
//   frontier each policy reaches.
// - §3.2, per benchmark: the written bit against naive cleaning. It should
//   reach nearly the same dirty-line reduction with markedly less premature
//   traffic on rewrite-heavy workloads.
// - §3.3: shared ECC entries per set. More entries cost area linearly but
//   reduce ECC-WB traffic; k=1 trades a small traffic increase for the 4x
//   ECC storage reduction.
// - Protection energy (the Li et al. [11] motivation the paper cites): codec
//   logic, check-bit array accesses and extra write-back traffic of uniform
//   ECC (`org`) against the proposed scheme. Most L2 reads hit clean lines,
//   where a 1-bit parity check replaces a SECDED decode and the 16KB parity
//   array replaces a 128KB ECC array lookup.
// - Reliability projection: the measured dirty/clean residency of `org`
//   (no cleaning) and `1M` put through double-strike-window arithmetic,
//   comparing the SDC and DUE rates of parity only, uniform ECC and the
//   paper's scheme — what the area saving costs in reliability, and why
//   cleaning helps (a smaller dirty population is a smaller DUE window).
//
// Two identities keep the grid at eleven configurations, and
// Integration.SchemeDoesNotChangeTimingWithoutCleaning pins both. Without
// cleaning, uniform ECC times exactly like the non-uniform scheme (neither
// ever forces a write-back), so one `org` cell is every table's no-cleaning
// column. Shared ECC with k = ways entries is the non-uniform scheme, so
// §3.3's k=4 row reads the `1M` cell.
//
//   paper_figures [--suite=all|fp|int|smoke] [--instructions=2M]
//                 [--jobs=N] [--json=out.json] [--store=DIR]
//                 [--workers=HOST:PORT,... [--token=SECRET]] ...
//
// --workers computes the cells on a fleet of aeep_served workers
// (src/fabric/coordinator.hpp) instead of --jobs local threads: a worker
// that keeps failing is dropped (a "dropped worker NAME" line on stderr)
// and what is left runs locally. Every cell is seeded, so tables and --json
// cells match a local run's. With --store, the JSON config records
// store_hits and store_misses.
#include <algorithm>
#include <stdexcept>

#include "bench_util.hpp"
#include "fault/reliability.hpp"
#include "json_reporter.hpp"
#include "protect/area_model.hpp"
#include "protect/energy_model.hpp"

using namespace aeep;

namespace {

using protect::CleaningPolicy;
using protect::SchemeKind;

/// The paper's cleaning-interval ladder (Figs. 3-6): 64K to 4M cycles.
constexpr Cycle kLadder[] = {Cycle{64} << 10, Cycle{256} << 10, Cycle{1} << 20,
                             Cycle{4} << 20};
/// The cleaning interval of Figs. 7/8, §5.2 and the ablations.
constexpr Cycle kInterval = Cycle{1} << 20;

struct Config {
  std::string tag;
  sim::ExperimentOptions options;
};

/// The grid's configurations, each once, under the tag the tables read.
std::vector<Config> configurations() {
  std::vector<Config> configs;
  configs.push_back({"org", sim::ExperimentOptions{}});  // uniform ECC
  for (const Cycle interval : kLadder) {
    sim::ExperimentOptions eo;
    eo.scheme = SchemeKind::kNonUniform;  // unlimited ECC: isolates cleaning
    eo.cleaning_interval = interval;
    configs.push_back({bench::interval_label(interval), eo});
  }
  // The written bit at 1M is the ladder's `1M` cell.
  const struct {
    const char* tag;
    CleaningPolicy policy;
    unsigned decay_threshold;
  } policies[] = {
      {"naive", CleaningPolicy::kNaive, 2},
      {"decay-counter(t=2)", CleaningPolicy::kDecayCounter, 2},
      {"decay-counter(t=4)", CleaningPolicy::kDecayCounter, 4},
      {"eager-idle", CleaningPolicy::kEagerIdle, 2},
  };
  for (const auto& p : policies) {
    sim::ExperimentOptions eo;
    eo.scheme = SchemeKind::kNonUniform;
    eo.cleaning_interval = kInterval;
    eo.cleaning_policy = p.policy;
    eo.decay_threshold = p.decay_threshold;
    configs.push_back({p.tag, eo});
  }
  // k=4 = ways is the non-uniform scheme: the ladder's `1M` cell again.
  const std::pair<const char*, unsigned> shared[] = {{"proposed", 1},
                                                     {"k=2", 2}};
  for (const auto& [tag, entries] : shared) {
    sim::ExperimentOptions eo;
    eo.scheme = SchemeKind::kSharedEccArray;
    eo.ecc_entries_per_set = entries;
    eo.cleaning_interval = kInterval;
    configs.push_back({tag, eo});
  }
  return configs;
}

/// The simulated grid: one result per (benchmark, configuration).
struct Grid {
  std::vector<std::string> benchmarks;
  std::vector<Config> configs;
  std::vector<sim::RunResult> results;  ///< benchmark-major

  const sim::RunResult& at(std::size_t b, const std::string& tag) const {
    const auto it =
        std::find_if(configs.begin(), configs.end(),
                     [&](const Config& c) { return c.tag == tag; });
    if (it == configs.end()) throw std::logic_error("no grid cell " + tag);
    return results.at(b * configs.size() +
                      static_cast<std::size_t>(it - configs.begin()));
  }
  double n() const { return static_cast<double>(benchmarks.size()); }
};

const char* suite_of(const sim::RunResult& r) {
  return r.floating_point ? "fp" : "int";
}

double per_ls(u64 count, const sim::RunResult& r) {
  const double ls = static_cast<double>(r.core.loads_stores());
  return ls ? static_cast<double>(count) / ls : 0.0;
}

void print_fig3_to_6(const Grid& g) {
  std::vector<std::string> columns;
  for (const Cycle i : kLadder)
    columns.push_back(bench::interval_label(i));
  columns.push_back("org");
  std::vector<std::string> header{"benchmark"};
  header.insert(header.end(), columns.begin(), columns.end());
  TextTable dirty(header);
  TextTable traffic(header);

  std::vector<double> dirty_sums(columns.size(), 0.0);
  std::vector<double> traffic_sums(columns.size(), 0.0);
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    std::vector<std::string> dirty_row{g.benchmarks[b]};
    std::vector<std::string> traffic_row{g.benchmarks[b]};
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const sim::RunResult& r = g.at(b, columns[k]);
      dirty_sums[k] += r.avg_dirty_fraction;
      traffic_sums[k] += r.wb_per_ls();
      dirty_row.push_back(TextTable::pct(r.avg_dirty_fraction, 1));
      traffic_row.push_back(TextTable::pct(r.wb_per_ls(), 2));
    }
    dirty.add_row(std::move(dirty_row));
    traffic.add_row(std::move(traffic_row));
  }
  auto add_average = [&](TextTable& table, const std::vector<double>& sums,
                         int precision) {
    std::vector<std::string> avg{"average"};
    for (double s : sums) avg.push_back(TextTable::pct(s / g.n(), precision));
    table.add_row(std::move(avg));
  };
  add_average(dirty, dirty_sums, 1);
  add_average(traffic, traffic_sums, 2);

  bench::print_section(
      "Figures 3/4: dirty lines per cycle vs cleaning interval");
  std::printf("%s", dirty.render().c_str());
  std::printf(
      "\npaper: dirty%% falls roughly linearly with smaller intervals;\n"
      "       ~2K dirty lines (12.5%%) needs ~256K, ~4K lines (25%%) ~1M.\n");

  bench::print_section(
      "Figures 5/6: write-back traffic (% of loads/stores) vs interval");
  std::printf("%s", traffic.render().c_str());
  std::printf(
      "\npaper: 1M cleaning approaches org (fp: 1.13%% vs 1.08%%,"
      " int: 1.16%% vs 1.12%%); 64K is noticeably more aggressive.\n");
}

void print_fig7(const Grid& g) {
  bench::print_section("Figure 7: dirty lines per cycle, full proposed scheme");
  TextTable table({"benchmark", "suite", "baseline dirty", "proposed dirty",
                   "peak dirty lines"});
  double sum = 0.0;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& o = g.at(b, "org");
    const sim::RunResult& r = g.at(b, "proposed");
    sum += r.avg_dirty_fraction;
    table.add_row({g.benchmarks[b], suite_of(r),
                   TextTable::pct(o.avg_dirty_fraction, 1),
                   TextTable::pct(r.avg_dirty_fraction, 1),
                   std::to_string(r.peak_dirty_lines)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage proposed dirty: %s   (paper: below 25%% everywhere;"
              " 4K-line hard cap = 25%%)\n",
              TextTable::pct(sum / g.n(), 1).c_str());
}

void print_fig1(const Grid& g) {
  bench::print_section("Figure 1: dirty lines per cycle, baseline L2");
  TextTable table({"benchmark", "suite", "dirty lines/cycle", "avg dirty lines",
                   "L2 miss rate", "IPC"});
  double sum = 0.0;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& r = g.at(b, "org");
    sum += r.avg_dirty_fraction;
    const double l2_miss =
        r.l2.accesses() ? static_cast<double>(r.l2.misses()) /
                              static_cast<double>(r.l2.accesses())
                        : 0.0;
    table.add_row({g.benchmarks[b], suite_of(r),
                   TextTable::pct(r.avg_dirty_fraction),
                   std::to_string(r.avg_dirty_lines),
                   TextTable::pct(l2_miss), TextTable::fmt(r.ipc(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage dirty lines/cycle: %s   (paper: 51.6%%)\n",
              TextTable::pct(sum / g.n()).c_str());
}

void print_fig8(const Grid& g) {
  bench::print_section("Figure 8: write-back breakdown, full proposed scheme");
  TextTable table({"benchmark", "suite", "Clean-WB", "WB", "ECC-WB", "total",
                   "org total"});
  double sum_total = 0.0, sum_org = 0.0;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& o = g.at(b, "org");
    const sim::RunResult& r = g.at(b, "proposed");
    sum_total += r.wb_per_ls();
    sum_org += o.wb_per_ls();
    table.add_row({g.benchmarks[b], suite_of(r),
                   TextTable::pct(per_ls(r.wb_cleaning, r), 2),
                   TextTable::pct(per_ls(r.wb_replacement, r), 2),
                   TextTable::pct(per_ls(r.wb_ecc, r), 2),
                   TextTable::pct(r.wb_per_ls(), 2),
                   TextTable::pct(o.wb_per_ls(), 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\naverage total: %s vs org %s   (paper: 1.20%%/1.19%% vs"
              " 1.08%%/1.12%%; ECC-WB dominates)\n",
              TextTable::pct(sum_total / g.n(), 2).c_str(),
              TextTable::pct(sum_org / g.n(), 2).c_str());
}

void print_ipc_loss(const Grid& g) {
  bench::print_section("§5.2: IPC loss of the proposed scheme");
  TextTable table({"benchmark", "suite", "IPC org", "IPC proposed", "loss"});
  double fp_loss = 0.0, int_loss = 0.0;
  unsigned fp_n = 0, int_n = 0;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& o = g.at(b, "org");
    const sim::RunResult& r = g.at(b, "proposed");
    const double loss = (o.ipc() - r.ipc()) / o.ipc();
    if (r.floating_point) {
      fp_loss += loss;
      ++fp_n;
    } else {
      int_loss += loss;
      ++int_n;
    }
    table.add_row({g.benchmarks[b], suite_of(r), TextTable::fmt(o.ipc(), 3),
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

void print_cleaning_policies(const Grid& g) {
  bench::print_section("Ablation: cleaning policies");
  std::printf("cleaning interval: %s cycles\n\n",
              bench::interval_label(kInterval).c_str());
  // {row label, cell tag}: the written bit at 1M is the ladder's cell.
  const std::pair<const char*, const char*> rows[] = {
      {"written-bit", "1M"},
      {"naive", "naive"},
      {"decay-counter(t=2)", "decay-counter(t=2)"},
      {"decay-counter(t=4)", "decay-counter(t=4)"},
      {"eager-idle", "eager-idle"},
  };
  TextTable table({"policy", "avg dirty%", "Clean-WB/ls", "total WB/ls",
                   "avg IPC"});
  for (const auto& [label, tag] : rows) {
    double dirty = 0, cleanwb = 0, total = 0, ipc = 0;
    for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
      const sim::RunResult& r = g.at(b, tag);
      dirty += r.avg_dirty_fraction;
      cleanwb += per_ls(r.wb_cleaning, r);
      total += r.wb_per_ls();
      ipc += r.ipc();
    }
    table.add_row({label, TextTable::pct(dirty / g.n(), 1),
                   TextTable::pct(cleanwb / g.n(), 2),
                   TextTable::pct(total / g.n(), 2),
                   TextTable::fmt(ipc / g.n(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nwritten-bit is the paper's 1-bit decay counter: nearly the"
              " dirty reduction of naive cleaning\nwith less premature"
              " traffic; higher decay thresholds trade dirty%% for traffic.\n");
}

void print_written_bit(const Grid& g) {
  bench::print_section("Ablation: written-bit heuristic vs naive cleaning");
  std::printf("cleaning interval: %s cycles\n\n",
              bench::interval_label(kInterval).c_str());
  TextTable table({"benchmark", "dirty% written-bit", "dirty% naive",
                   "WB/ls written-bit", "WB/ls naive"});
  double sd_wb = 0, sd_nv = 0, st_wb = 0, st_nv = 0;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& with_bit = g.at(b, "1M");
    const sim::RunResult& naive = g.at(b, "naive");
    sd_wb += with_bit.avg_dirty_fraction;
    sd_nv += naive.avg_dirty_fraction;
    st_wb += with_bit.wb_per_ls();
    st_nv += naive.wb_per_ls();
    table.add_row({g.benchmarks[b],
                   TextTable::pct(with_bit.avg_dirty_fraction, 1),
                   TextTable::pct(naive.avg_dirty_fraction, 1),
                   TextTable::pct(with_bit.wb_per_ls(), 2),
                   TextTable::pct(naive.wb_per_ls(), 2)});
  }
  table.add_row({"average", TextTable::pct(sd_wb / g.n(), 1),
                 TextTable::pct(sd_nv / g.n(), 1),
                 TextTable::pct(st_wb / g.n(), 2),
                 TextTable::pct(st_nv / g.n(), 2)});
  std::printf("%s", table.render().c_str());
  std::printf("\nexpected: similar dirty%% but naive cleaning pays more"
              " write-back traffic on rewrite-heavy codes.\n");
}

void print_ecc_entries(const Grid& g) {
  bench::print_section("Ablation: shared ECC array entries per set");
  // {entries per set, cell tag}: k=4 = ways is the non-uniform `1M` cell.
  const std::pair<unsigned, const char*> rows[] = {
      {1, "proposed"}, {2, "k=2"}, {4, "1M"}};
  const auto conv = protect::conventional_area(cache::kL2Geometry);
  TextTable table({"entries/set", "area", "reduction", "avg dirty%",
                   "avg ECC-WB/ls", "avg total WB/ls", "avg IPC"});
  for (const auto& [k, tag] : rows) {
    double dirty = 0, eccwb = 0, total = 0, ipc = 0;
    for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
      const sim::RunResult& r = g.at(b, tag);
      dirty += r.avg_dirty_fraction;
      eccwb += per_ls(r.wb_ecc, r);
      total += r.wb_per_ls();
      ipc += r.ipc();
    }
    const auto area = protect::proposed_area(cache::kL2Geometry, k);
    table.add_row({std::to_string(k),
                   TextTable::fmt(area.total_kib(), 0) + "KB",
                   TextTable::pct(area.reduction_vs(conv), 1),
                   TextTable::pct(dirty / g.n(), 1),
                   TextTable::pct(eccwb / g.n(), 2),
                   TextTable::pct(total / g.n(), 2),
                   TextTable::fmt(ipc / g.n(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nexpected: k=1 (the paper) minimises area; ECC-WB traffic"
              " shrinks as k grows.\n");
}

protect::EnergyEvents energy_events(const sim::RunResult& r,
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

void print_energy(const Grid& g, u64 instructions) {
  bench::print_section("Protection energy comparison");
  std::printf("cleaning interval: %s cycles\n\n",
              bench::interval_label(kInterval).c_str());
  TextTable table({"benchmark", "scheme", "codec (uJ)", "check arrays (uJ)",
                   "extra traffic (uJ)", "total (uJ)", "saving"});
  const auto& geom = cache::kL2Geometry;
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const sim::RunResult& org = g.at(b, "org");
    const auto e_org = protect::estimate_energy(
        SchemeKind::kUniformEcc, energy_events(org, org), geom, 1);
    const auto e_prop = protect::estimate_energy(
        SchemeKind::kSharedEccArray,
        energy_events(g.at(b, "proposed"), org), geom, 1);
    const double saving = 1.0 - e_prop.total_pj() / e_org.total_pj();
    for (const auto* e : {&e_org, &e_prop}) {
      table.add_row({g.benchmarks[b], e->scheme,
                     TextTable::fmt(e->codec_pj / 1e6, 2),
                     TextTable::fmt(e->check_storage_pj / 1e6, 2),
                     TextTable::fmt(e->extra_traffic_pj / 1e6, 2),
                     TextTable::fmt(e->total_pj() / 1e6, 2),
                     e == &e_prop ? TextTable::pct(saving, 1) : "-"});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nsaving: the proposed scheme's protection energy against"
              " uniform ECC over %llu committed\nmicro-ops (per-event"
              " energies are documented assumptions in"
              " protect/energy_model.hpp —\nthe split, not the absolute"
              " numbers, is the result)\n",
              static_cast<unsigned long long>(instructions));
}

/// A run's dirty/clean residency, the input of the reliability estimates.
fault::ResidencyProfile residency(const sim::RunResult& r) {
  fault::ResidencyProfile pr;
  const double total = static_cast<double>(cache::kL2Geometry.total_lines());
  pr.avg_dirty_lines = r.avg_dirty_fraction * total;
  pr.avg_clean_lines = total - pr.avg_dirty_lines;
  // Residency between validations, T: a line is validated whenever it is
  // filled, written back or read (a read hit runs its parity or ECC
  // check); approximate with cycles × lines / validations.
  const double validations = std::max<double>(
      1.0, static_cast<double>(r.l2.fills + r.l2.read_hits + r.wb_total()));
  pr.clean_residency = static_cast<double>(r.core.cycles) * total / validations;
  pr.dirty_residency = pr.clean_residency;
  return pr;
}

void print_reliability(const Grid& g) {
  bench::print_section("Reliability projection (SDC/DUE windows)");
  TextTable table({"benchmark", "configuration", "T (cycles)",
                   "SDC rate/cycle", "DUE rate/cycle", "recovered/cycle"});
  for (std::size_t b = 0; b < g.benchmarks.size(); ++b) {
    const auto add = [&](const fault::ReliabilityEstimate& e,
                         const fault::ResidencyProfile& pr,
                         const char* suffix) {
      char t[32], sdc[32], due[32], rec[32];
      std::snprintf(t, sizeof t, "%.3e", pr.clean_residency);
      std::snprintf(sdc, sizeof sdc, "%.3e", e.sdc_rate);
      std::snprintf(due, sizeof due, "%.3e", e.due_rate);
      std::snprintf(rec, sizeof rec, "%.3e", e.recovered_rate);
      table.add_row({g.benchmarks[b], e.scheme + suffix, t, sdc, due, rec});
    };
    // `org` is the non-uniform scheme without cleaning, by the identity
    // in the header comment.
    const fault::ResidencyProfile uncleaned = residency(g.at(b, "org"));
    const fault::ResidencyProfile cleaned = residency(g.at(b, "1M"));
    add(fault::estimate_parity_only(uncleaned), uncleaned, "");
    add(fault::estimate_uniform_ecc(uncleaned), uncleaned, "");
    add(fault::estimate_non_uniform(uncleaned), uncleaned, ", no cleaning");
    add(fault::estimate_non_uniform(cleaned), cleaned, ", 1M cleaning");
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading the table:\n"
              " - T is a line's time between validations, cycles x lines /"
              " (fills + read hits +\n   write-backs): the window a second"
              " strike has to land in;\n"
              " - parity-only loses dirty data on ANY strike: the DUE column"
              " is why write-back\n   caches cannot ship with parity alone;\n"
              " - the paper's scheme matches uniform ECC's DUE and adds only"
              " the clean-line\n   same-word-double SDC term, at 59%% less"
              " storage;\n"
              " - cleaning shrinks the dirty population, cutting the DUE"
              " window further.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  reject_unknown_flags(args);
  // The sweep's workers: the --workers fleet, or the local threads.
  const unsigned jobs = opt.workers.empty()
                            ? bench::resolve_jobs(opt)
                            : static_cast<unsigned>(opt.workers.size());
  bench::print_header(
      "Paper figures: Figs. 1 and 3-8, §5.2 IPC loss, §3.2/§3.3 ablations",
      opt, jobs);
  bench::JsonReporter json("paper_figures", opt, jobs);

  // Whole grid up front, benchmark-major, fanned out at once so the pool
  // is never starved between tables.
  Grid g{bench::suite_benchmarks(opt.suite), configurations(), {}};
  std::vector<sim::SweepJob> grid;
  for (const auto& name : g.benchmarks) {
    for (const Config& c : g.configs) {
      sim::ExperimentOptions eo = c.options;
      eo.instructions = opt.instructions;
      eo.warmup_instructions = opt.warmup;
      eo.seed = opt.seed;
      grid.push_back({name, eo, c.tag});
    }
  }
  std::vector<double> cell_walls;
  store::SweepCacheStats store_stats;
  g.results = bench::run_sweep(opt, grid, &cell_walls, &store_stats);
  for (std::size_t i = 0; i < grid.size(); ++i)
    json.add_cell(grid[i].benchmark, grid[i].tag,
                  sim::run_result_json(g.results[i]), cell_walls[i]);
  if (!opt.store_dir.empty()) {
    json.set_config("store_hits", JsonValue::number(store_stats.hits));
    json.set_config("store_misses", JsonValue::number(store_stats.misses));
  }

  print_fig3_to_6(g);
  print_fig7(g);
  print_fig1(g);
  print_fig8(g);
  print_ipc_loss(g);
  print_cleaning_policies(g);
  print_written_bit(g);
  print_ecc_entries(g);
  print_energy(g, opt.instructions);
  print_reliability(g);
  return json.write(opt.json_path) ? 0 : 1;
}
