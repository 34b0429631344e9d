// Canonical names for the scenario vocabulary: channel-access schemes and
// deployment topologies.
//
// The strings live here — next to the enums and topology generators they
// name — so every consumer (the CLI option helpers, the exp spec parser,
// the campaign engine) parses and validates them identically. cli/ wraps
// these in ArgParser declarations; exp/ uses them directly, without a
// dependency on the flag-parsing layer.
#pragma once

#include <string>

#include "net/scenario.hpp"

namespace nomc::net {

inline constexpr const char* kSchemeChoices = "fixed | dcn | carrier-sense";
inline constexpr const char* kTopologyChoices =
    "dense | clustered | random | fig5 | fig5-cochannel";

/// "fixed" | "dcn" | "carrier-sense" → Scheme. False on anything else.
[[nodiscard]] bool parse_scheme(const std::string& name, Scheme& out);

/// True for "dense" | "clustered" | "random" (Cases I-III) and the Fig. 5
/// rig, "fig5" | "fig5-cochannel" (the latter with Fig. 8's co-channel links).
[[nodiscard]] bool valid_topology(const std::string& name);

/// True for the two Fig. 5 rig topologies, which place exactly
/// kFig5Channels channels; the Cases take any count.
[[nodiscard]] bool is_rig_topology(const std::string& name);

}  // namespace nomc::net
