#include "cli/options.hpp"

#include <cstdio>

namespace nomc::cli {

void add_scheme_option(ArgParser& args, const std::string& option,
                       const std::string& default_value) {
  args.add_string(option, default_value, "channel access scheme: " + std::string{kSchemeChoices});
}

void add_topology_option(ArgParser& args, const std::string& option,
                         const std::string& default_value) {
  args.add_string(option, default_value, "deployment: " + std::string{kTopologyChoices});
}

std::optional<int> parse_standard(ArgParser& args, int argc, const char* const* argv,
                                  const std::string& program, int first) {
  if (!args.parse(argc - first, argv + first)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.help(program).c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help(program).c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

}  // namespace nomc::cli
