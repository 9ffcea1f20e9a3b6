// aeep_store — inspect and maintain a result-store directory.
//
//   aeep_store info --store=DIR            — entry/byte counts, segment path
//   aeep_store ls   --store=DIR            — entries in eviction order
//   aeep_store get KEY --store=DIR         — payload JSON for a hex key
//   aeep_store gc --max-bytes=N --store=DIR — evict + compact to a budget
//
// `ls` prints one line per entry — `KEY BYTES` — in the store's eviction
// order (least recently used first): the first line is what the next gc()
// would evict first. Recency is not persisted, so in a fresh process that
// order is record order. `get` takes the 16-hex-digit key exactly as `ls`
// prints it and writes the payload JSON to stdout. `gc` reports how many
// entries were evicted and the compacted segment size; the same store
// state and budget always evict the same keys, so a scripted gc is
// reproducible.
// Exit codes: 0 ok, 2 usage, 4 key not found, 1 anything else.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "store/result_store.hpp"
#include "trace/error.hpp"

using namespace aeep;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: aeep_store <info|ls|get KEY|gc> --store=DIR "
               "[--max-bytes=N]\n"
               "  info — entries, disk bytes, recovery counts\n"
               "  ls   — entries in eviction order: KEY BYTES\n"
               "  get  — payload JSON for a key from ls\n"
               "  gc   — evict (least recently used first) + compact the "
               "segment to --max-bytes\n");
  return 2;
}

int cmd_info(store::ResultStore& rs) {
  const store::StoreStats s = rs.stats();
  std::printf("dir: %s\n", rs.dir().c_str());
  std::printf("segment: %s\n",
              store::ResultStore::segment_path(rs.dir()).c_str());
  std::printf("entries: %zu\n", rs.size());
  std::printf("disk_bytes: %llu\n",
              static_cast<unsigned long long>(rs.disk_bytes()));
  std::printf("recovered_records: %llu\n",
              static_cast<unsigned long long>(s.recovered_records));
  std::printf("dropped_records: %llu\n",
              static_cast<unsigned long long>(s.dropped_records));
  return 0;
}

int cmd_ls(store::ResultStore& rs) {
  for (const auto& e : rs.entries())
    std::printf("%s %u\n", e.key.hex().c_str(), unsigned{e.payload_bytes});
  return 0;
}

int cmd_get(store::ResultStore& rs, const std::string& key_hex) {
  const std::optional<store::Digest> key = store::Digest::from_hex(key_hex);
  if (!key) {
    std::fprintf(stderr, "aeep_store: '%s' is not a 16-hex-digit key\n",
                 key_hex.c_str());
    return 2;
  }
  const std::optional<JsonValue> payload = rs.lookup(*key);
  if (!payload) {
    std::fprintf(stderr, "aeep_store: no entry %s\n", key_hex.c_str());
    return 4;
  }
  std::printf("%s\n", payload->dump(2).c_str());
  return 0;
}

int cmd_gc(store::ResultStore& rs, u64 max_bytes) {
  const std::size_t before = rs.size();
  const u64 evicted = rs.gc(max_bytes);
  std::printf("evicted %llu of %zu entries; %zu remain in %llu bytes\n",
              static_cast<unsigned long long>(evicted), before, rs.size(),
              static_cast<unsigned long long>(rs.disk_bytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    usage();
    return 0;
  }
  const CliArgs args = parse_cli_or_exit(argc - 1, argv + 1);
  const std::string dir = args.get("store", "");
  if (dir.empty()) {
    std::fprintf(stderr, "aeep_store: need --store=DIR\n");
    return 2;
  }
  u64 max_bytes = 0;
  if (cmd == "gc") {
    if (!args.has("max-bytes")) {
      std::fprintf(stderr, "aeep_store: gc needs --max-bytes=N\n");
      return 2;
    }
    max_bytes = args.get_u64("max-bytes", 0);
  }
  reject_unknown_flags(args);
  try {
    store::ResultStore rs({dir});
    if (cmd == "info") return cmd_info(rs);
    if (cmd == "ls") return cmd_ls(rs);
    if (cmd == "get") {
      const auto& pos = args.positionals();
      if (pos.empty()) {
        std::fprintf(stderr, "aeep_store: get needs a KEY (see ls)\n");
        return 2;
      }
      return cmd_get(rs, pos.front());
    }
    if (cmd == "gc") return cmd_gc(rs, max_bytes);
    return usage();
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "aeep_store: %s\n", e.what());
    return 1;
  }
}
