// A sweep-fabric worker's address, as aeep_coord --workers and
// aeep_chaos --upstream spell it.
#pragma once

#include <string>

#include "common/types.hpp"

namespace aeep::fabric {

/// One worker's address. `name` is how it appears in logs and in
/// Coordinator::dropped(); defaults to "host:port".
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  u16 port = 0;
  std::string name;

  std::string display_name() const {
    return name.empty() ? host + ":" + std::to_string(port) : name;
  }
};

/// Parse "host:port" (or bare "port", host defaulting to 127.0.0.1).
/// Throws std::invalid_argument on garbage.
WorkerEndpoint parse_endpoint(const std::string& text);

}  // namespace aeep::fabric
