// Shared option vocabulary for the nomc driver tools.
//
// Every tool that exposes a channel-access scheme or a deployment topology
// declares it through these helpers, so the choice strings and help text
// live in exactly one place (nomc-sim is the consumer).
// The values are validated where a spec's are: exp::apply_param.
#pragma once

#include <optional>
#include <string>

#include "cli/args.hpp"
#include "net/scheme_names.hpp"

namespace nomc::cli {

// The names themselves live with the scenario vocabulary in
// net/scheme_names.hpp; re-exported here so option-centric code keeps
// reading cli::parse_scheme.
using net::kSchemeChoices;
using net::kTopologyChoices;
using net::parse_scheme;
using net::valid_topology;

/// Declare a scheme option named `option` (e.g. "scheme").
void add_scheme_option(ArgParser& args, const std::string& option,
                       const std::string& default_value);

/// Declare a topology option (default name "topology").
void add_topology_option(ArgParser& args, const std::string& option = "topology",
                         const std::string& default_value = "dense");

/// The tools' shared main() prologue: parse `argv[first..argc-1]`, print the
/// error + usage on failure (exit code 2) or the help text on --help (exit
/// code 0). Returns nullopt when the tool should proceed.
[[nodiscard]] std::optional<int> parse_standard(ArgParser& args, int argc,
                                                const char* const* argv,
                                                const std::string& program, int first = 1);

}  // namespace nomc::cli
