// Trace serialization: CSV export/import so profiled traces can be inspected with external tools
// and plans can be synthesized out-of-process (the paper ships the Plan Synthesizer as a
// standalone tool, §8).
//
// All readers return status instead of aborting: production traces come from disk, and a
// truncated copy or a stray editor save must surface as a tool error (exit 2), not a crash.
// On failure the TraceIoError carries a message plus the approximate byte offset of the
// offending input.

#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/trace/trace.h"

namespace stalloc {

// Error report from a failed trace read. `byte_offset` is the position in the input stream
// where the problem was detected (best effort: for CSV it is the start of the offending line).
struct TraceIoError {
  std::string message;
  uint64_t byte_offset = 0;

  std::string ToString() const {
    return message + " (at byte " + std::to_string(byte_offset) + ")";
  }
};

// Writes the trace as CSV with a header comment block carrying phase/layer tables.
void WriteTraceCsv(const Trace& trace, std::ostream& os);
bool WriteTraceCsvFile(const Trace& trace, const std::string& path);

// Parses a trace produced by WriteTraceCsv. Returns false and fills `err` (may be null) on
// malformed input; `*out` is unspecified on failure.
bool ReadTraceCsv(std::istream& is, Trace* out, TraceIoError* err);
bool ReadTraceCsvFile(const std::string& path, Trace* out, TraceIoError* err);

// Reads a trace of any supported format, sniffing the leading magic: "STLC" → columnar v2
// (src/trace/trace_v2.h; fully materialized here — use TraceView directly for streaming
// replay), anything else → CSV.
bool ReadTraceAnyFile(const std::string& path, Trace* out, TraceIoError* err);

}  // namespace stalloc

#endif  // SRC_TRACE_TRACE_IO_H_
