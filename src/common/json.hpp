// Small JSON emission helpers shared by every writer of JSON in src/
// (sim::Trace, SpanTracer, TraceExporter, GaugeSampler).
//
// This is deliberately not a JSON library: the program only ever *writes*
// JSON, and writing through an ostream keeps the exporters allocation-lean
// and byte-deterministic (fixed formatting, no map iteration ambiguity).
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace griphon {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included): ", \, newline, tab, and other control characters.
void json_escape(std::ostream& os, std::string_view s);

/// `s` escaped and wrapped in double quotes.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace griphon
