// Server-side trace registry: the set of .aeept files a remote job may
// replay. Clients name traces, never paths — the registry is populated
// once at startup (scan of --trace-dir plus explicit registrations), is
// read-only while serving, and rejects unknown names with kNotFound, so a
// request can neither traverse the filesystem nor race a mutating map.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "server/error.hpp"

namespace aeep::server {

class TraceRegistry {
 public:
  /// Register every `<name>.aeept` under `dir` (non-recursive) by stem.
  /// Each file's header is validated on the spot: registering a damaged
  /// trace should fail the server at startup, not job #4711 at 3am.
  /// Returns the number of traces added. Throws ServerError(kIo) when the
  /// directory cannot be read.
  std::size_t scan_directory(const std::string& dir);

  /// Register one file under an explicit name (same header validation).
  void add(const std::string& name, const std::string& path);

  /// Path for a registered name. Throws ServerError(kNotFound).
  const std::string& path_of(const std::string& name) const;

  std::size_t size() const { return traces_.size(); }
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> traces_;  ///< name -> path
};

}  // namespace aeep::server
