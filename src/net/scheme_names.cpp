#include "net/scheme_names.hpp"

namespace nomc::net {

bool parse_scheme(const std::string& name, Scheme& out) {
  if (name == "fixed") {
    out = Scheme::kFixedCca;
  } else if (name == "dcn") {
    out = Scheme::kDcn;
  } else if (name == "carrier-sense") {
    out = Scheme::kCarrierSense;
  } else {
    return false;
  }
  return true;
}

bool valid_topology(const std::string& name) {
  return name == "dense" || name == "clustered" || name == "random" || is_rig_topology(name);
}

bool is_rig_topology(const std::string& name) {
  return name == "fig5" || name == "fig5-cochannel";
}

}  // namespace nomc::net
