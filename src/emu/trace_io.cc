#include "src/emu/trace_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace sdb {

std::string FormatPowerTraceCsv(const PowerTrace& trace) {
  std::ostringstream os;
  os << "seconds,watts\n";
  char buf[64];
  const std::vector<TraceSegment>& segments = trace.segments();
  for (size_t i = 0; i < segments.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6g,%.6g\n",
                  (trace.SegmentEnd(i) - segments[i].start).value(), segments[i].power.value());
    os << buf;
  }
  return os.str();
}

StatusOr<PowerTrace> ParsePowerTraceCsv(const std::string& text) {
  PowerTrace trace;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_no;
    // Trim trailing CR (Windows files) and surrounding spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) {
      continue;  // Blank line.
    }
    line = line.substr(start);
    if (line[0] == '#') {
      continue;  // Comment.
    }
    if (!header_seen) {
      if (line != "seconds,watts") {
        return InvalidArgumentError("trace CSV line 1: expected header 'seconds,watts'");
      }
      header_seen = true;
      continue;
    }
    if (line == "seconds,watts") {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": duplicate header");
    }
    size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": missing comma");
    }
    char* end = nullptr;
    std::string left = line.substr(0, comma);
    std::string right = line.substr(comma + 1);
    double seconds = std::strtod(left.c_str(), &end);
    if (end == left.c_str() || *end != '\0') {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": bad duration '" + left + "'");
    }
    double watts = std::strtod(right.c_str(), &end);
    if (end == right.c_str() || *end != '\0') {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": bad power '" + right + "'");
    }
    if (seconds <= 0.0) {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": duration must be positive");
    }
    if (watts < 0.0) {
      return InvalidArgumentError("trace CSV line " + std::to_string(line_no) +
                                  ": power must be non-negative");
    }
    trace.Append(Seconds(seconds), Watts(watts));
  }
  if (!header_seen) {
    return InvalidArgumentError("trace CSV: empty input");
  }
  trace.ShrinkToFit();
  return trace;
}

Status WritePowerTraceFile(const PowerTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return UnavailableError("cannot open for writing: " + path);
  }
  out << FormatPowerTraceCsv(trace);
  if (!out) {
    return UnavailableError("write failed: " + path);
  }
  return Status::Ok();
}

StatusOr<PowerTrace> ReadPowerTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open: " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return ParsePowerTraceCsv(os.str());
}

}  // namespace sdb
