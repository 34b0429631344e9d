#include "cli/options.hpp"

#include <gtest/gtest.h>

namespace nomc::cli {
namespace {

TEST(Options, ParseSchemeCoversAllChoices) {
  net::Scheme scheme{};
  ASSERT_TRUE(parse_scheme("fixed", scheme));
  EXPECT_EQ(scheme, net::Scheme::kFixedCca);
  ASSERT_TRUE(parse_scheme("dcn", scheme));
  EXPECT_EQ(scheme, net::Scheme::kDcn);
  ASSERT_TRUE(parse_scheme("carrier-sense", scheme));
  EXPECT_EQ(scheme, net::Scheme::kCarrierSense);
  EXPECT_FALSE(parse_scheme("zigbee", scheme));
  EXPECT_FALSE(parse_scheme("", scheme));
  EXPECT_FALSE(parse_scheme("Fixed", scheme));  // case-sensitive, like the tools
}

TEST(Options, ValidTopologyCoversAllCases) {
  EXPECT_TRUE(valid_topology("dense"));
  EXPECT_TRUE(valid_topology("clustered"));
  EXPECT_TRUE(valid_topology("random"));
  EXPECT_TRUE(valid_topology("fig5"));
  EXPECT_TRUE(valid_topology("fig5-cochannel"));
  EXPECT_FALSE(valid_topology("fig5-"));
  EXPECT_FALSE(valid_topology("grid"));
  EXPECT_FALSE(valid_topology(""));
}

TEST(Options, SchemeOptionRoundTrip) {
  ArgParser args;
  add_scheme_option(args, "scheme", "dcn");
  const char* argv[] = {"--scheme", "fixed"};
  ASSERT_TRUE(args.parse(2, argv));
  net::Scheme scheme{};
  ASSERT_TRUE(parse_scheme(args.get_string("scheme"), scheme));
  EXPECT_EQ(scheme, net::Scheme::kFixedCca);
}

TEST(Options, HelpTextListsChoices) {
  ArgParser args;
  add_scheme_option(args, "scheme", "dcn");
  add_topology_option(args);
  const std::string help = args.help("tool");
  EXPECT_NE(help.find(kSchemeChoices), std::string::npos);
  EXPECT_NE(help.find(kTopologyChoices), std::string::npos);
}

TEST(Options, ParseStandardHandlesErrorHelpAndSuccess) {
  {
    ArgParser args;
    add_scheme_option(args, "scheme", "dcn");
    const char* argv[] = {"tool", "--bogus"};
    const std::optional<int> exit_code = parse_standard(args, 2, argv, "tool");
    ASSERT_TRUE(exit_code.has_value());
    EXPECT_EQ(*exit_code, 2);
  }
  {
    ArgParser args;
    add_scheme_option(args, "scheme", "dcn");
    const char* argv[] = {"tool", "--help"};
    const std::optional<int> exit_code = parse_standard(args, 2, argv, "tool");
    ASSERT_TRUE(exit_code.has_value());
    EXPECT_EQ(*exit_code, 0);
  }
  {
    ArgParser args;
    add_scheme_option(args, "scheme", "dcn");
    const char* argv[] = {"tool", "--scheme", "fixed"};
    EXPECT_FALSE(parse_standard(args, 3, argv, "tool").has_value());
    EXPECT_EQ(args.get_string("scheme"), "fixed");
  }
}

}  // namespace
}  // namespace nomc::cli
