// JSONL wire format for obs::Event (DESIGN.md §12).
//
// One event per line, one JSON object per event. Fields that still hold
// their default value are omitted; doubles are printed with %.17g so binary64
// values round-trip bit-exactly (the replay-parity tests depend on this).
// The parser is schema-tolerant: unknown keys and unknown kinds are skipped,
// so newer logs remain readable by older tools within a schema version.
#pragma once

#include <optional>
#include <string>

#include "obs/event.h"

namespace chopper::obs {

/// Header line written at the top of every JSONL log file.
std::string jsonl_header();
/// True when `line` is a log header with a schema version we can read.
bool parse_jsonl_header(const std::string& line);

/// Serialize one event as a single JSON object (no trailing newline).
std::string to_jsonl(const Event& e);
/// Append the serialization of `e` (plus '\n') to `out` — the allocation-free
/// path the JSONL sink uses for its stripe buffers.
void append_jsonl(const Event& e, std::string& out);

/// Parse one JSONL line. Returns nullopt on malformed JSON, a number that is
/// not a whole in-range token of its field (a sign or exponent on a count,
/// nan/inf on a double), or an unknown event kind (tolerated: the caller
/// skips the line).
std::optional<Event> from_jsonl(const std::string& line);

/// As above, but distinguishes the two skip reasons: `*unknown_kind` is set
/// true when the line was well-formed JSON whose "k" names an event kind
/// this binary does not know (a log written by a newer tool), and false for
/// genuinely malformed input. Old readers stay usable against newer logs.
std::optional<Event> from_jsonl(const std::string& line, bool* unknown_kind);

/// Append `s` to `out` as a quoted, escaped JSON string (shared by the
/// Chrome trace exporter).
void append_json_quoted(const std::string& s, std::string& out);

}  // namespace chopper::obs
