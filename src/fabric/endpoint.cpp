#include "fabric/endpoint.hpp"

#include <stdexcept>

namespace aeep::fabric {

WorkerEndpoint parse_endpoint(const std::string& text) {
  WorkerEndpoint ep;
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    ep.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (ep.host.empty())
      throw std::invalid_argument("worker endpoint '" + text +
                                  "' has an empty host");
  }
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("worker endpoint '" + text +
                                "' needs a numeric port (host:port)");
  const unsigned long port = std::stoul(port_text);
  if (port == 0 || port > 65535)
    throw std::invalid_argument("worker endpoint '" + text +
                                "' port out of range");
  ep.port = static_cast<u16>(port);
  return ep;
}

}  // namespace aeep::fabric
