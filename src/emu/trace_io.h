// Power-trace serialisation: the CSV interchange format for recorded
// device power draws (the paper fed 100 Hz instrumented measurements into
// its emulator; this is the equivalent ingestion path for real traces).
//
// Format: a header line `seconds,watts`, then one row per segment giving
// its duration and constant power. Lines starting with '#' are comments.
#ifndef SRC_EMU_TRACE_IO_H_
#define SRC_EMU_TRACE_IO_H_

#include <string>

#include "src/emu/trace.h"
#include "src/util/status.h"

namespace sdb {

// Renders a trace to CSV text.
std::string FormatPowerTraceCsv(const PowerTrace& trace);

// Parses CSV text into a trace. Rejects malformed rows, non-positive
// durations and negative powers with a descriptive error.
StatusOr<PowerTrace> ParsePowerTraceCsv(const std::string& text);

// File convenience wrappers.
Status WritePowerTraceFile(const PowerTrace& trace, const std::string& path);
StatusOr<PowerTrace> ReadPowerTraceFile(const std::string& path);

}  // namespace sdb

#endif  // SRC_EMU_TRACE_IO_H_
