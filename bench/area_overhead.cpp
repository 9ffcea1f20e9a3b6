// §5.2 area numbers: protection-storage overhead of the conventional
// uniform-ECC L2 (132 KB) vs the proposed scheme (54 KB) — a 59% reduction —
// with the full component breakdown, plus the §3.1 motivating estimate and
// a geometry sweep showing how the saving scales with cache size and
// associativity.
//
//   area_overhead
#include <cstdio>

#include "bench_util.hpp"
#include "protect/area_model.hpp"

using namespace aeep;

namespace {

void print_report(const protect::AreaReport& r) {
  std::printf("%s\n", r.scheme.c_str());
  for (const auto& c : r.components) {
    std::printf("  %-28s %8.1f KB\n", c.name.c_str(),
                static_cast<double>(c.bits) / 8.0 / 1024.0);
  }
  std::printf("  %-28s %8.1f KB\n", "TOTAL", r.total_kib());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  reject_unknown_flags(args);
  std::printf("=== Area overhead for error protection (paper §5.2) ===\n\n");

  const cache::CacheGeometry l2 = cache::kL2Geometry;
  const auto conv = protect::conventional_area(l2);
  const auto prop = protect::proposed_area(l2, 1);

  print_report(conv);
  std::printf("\n");
  print_report(prop);
  std::printf("\nreduction: %.1f%%   (paper: 59%%, 132KB -> 54KB)\n",
              100.0 * prop.reduction_vs(conv));

  // §3.1 motivating estimate: parity everywhere + ECC sized for the average
  // dirty population (51.6% of lines) — "saving 48KB".
  const auto motiv = protect::non_uniform_area(l2, 0.516);
  std::printf("\n§3.1 estimate with 51.6%% dirty lines: %.1f KB (vs %.1f KB"
              " conventional)\n",
              motiv.total_kib(), conv.total_kib());

  // Geometry sweep: the saving grows with associativity (one shared entry
  // replaces `ways` per-way ECC arrays) and is stable across sizes.
  std::printf("\ngeometry sweep (1 ECC entry per set):\n");
  TextTable table({"L2 size", "ways", "conventional", "proposed", "reduction"});
  for (const u64 size : {u64{512} * KiB, u64{1} * MiB, u64{2} * MiB, u64{4} * MiB}) {
    for (const unsigned ways : {2u, 4u, 8u}) {
      cache::CacheGeometry g{size, ways, 64};
      const auto c = protect::conventional_area(g);
      const auto p = protect::proposed_area(g, 1);
      table.add_row({std::to_string(size / KiB) + "KB", std::to_string(ways),
                     TextTable::fmt(c.total_kib(), 1) + "KB",
                     TextTable::fmt(p.total_kib(), 1) + "KB",
                     TextTable::pct(p.reduction_vs(c), 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
