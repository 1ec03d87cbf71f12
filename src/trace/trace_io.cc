#include "src/trace/trace_io.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/trace/trace_v2.h"

namespace stalloc {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

void SetError(TraceIoError* err, std::string message, uint64_t byte_offset) {
  if (err != nullptr) {
    err->message = std::move(message);
    err->byte_offset = byte_offset;
  }
}

// Safe numeric parsing: the std::sto* family throws on garbage, which turns a malformed trace
// row into an uncaught exception. These accept the whole field or nothing.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseI32(const std::string& s, int32_t* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() ||
      v < std::numeric_limits<int32_t>::min() || v > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int32_t>(v);
  return true;
}

}  // namespace

void WriteTraceCsv(const Trace& trace, std::ostream& os) {
  os << "# stalloc-trace v1\n";
  os << "# name," << trace.name() << "\n";
  for (size_t i = 0; i < trace.phases().size(); ++i) {
    const auto& p = trace.phases()[i];
    os << "# phase," << i << "," << static_cast<int>(p.kind) << "," << p.microbatch << ","
       << p.chunk << "," << p.start << "," << p.end << "\n";
  }
  for (size_t i = 0; i < trace.layers().size(); ++i) {
    const auto& l = trace.layers()[i];
    os << "# layer," << i << "," << l.name << "," << l.start << "," << l.end << "\n";
  }
  os << "id,size,ts,te,ps,pe,dyn,ls,le,stream\n";
  for (const auto& e : trace.events()) {
    os << e.id << "," << e.size << "," << e.ts << "," << e.te << "," << e.ps << "," << e.pe << ","
       << (e.dyn ? 1 : 0) << "," << e.ls << "," << e.le << ","
       << static_cast<int>(e.stream) << "\n";
  }
}

bool WriteTraceCsvFile(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WriteTraceCsv(trace, os);
  return static_cast<bool>(os);
}

bool ReadTraceCsv(std::istream& is, Trace* out, TraceIoError* err) {
  *out = Trace();
  std::string line;
  bool header_seen = false;
  uint64_t offset = 0;       // byte offset of the start of the current line
  uint64_t next_offset = 0;  // byte offset just past the current line
  while (std::getline(is, line)) {
    offset = next_offset;
    next_offset += line.size() + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      auto fields = SplitCsvLine(line.size() >= 2 ? line.substr(2) : std::string());
      if (fields.empty()) {
        continue;
      }
      if (fields[0] == "name" && fields.size() >= 2) {
        out->set_name(fields[1]);
      } else if (fields[0] == "phase") {
        PhaseInfo p;
        int32_t kind = 0;
        if (fields.size() < 7 || !ParseI32(fields[2], &kind) ||
            !ParseI32(fields[3], &p.microbatch) || !ParseI32(fields[4], &p.chunk) ||
            !ParseU64(fields[5], &p.start) || !ParseU64(fields[6], &p.end)) {
          SetError(err, "malformed phase row: " + line, offset);
          return false;
        }
        p.kind = static_cast<PhaseKind>(kind);
        out->AddPhase(p);
      } else if (fields[0] == "layer") {
        LayerInfo l;
        if (fields.size() < 5 || !ParseU64(fields[3], &l.start) ||
            !ParseU64(fields[4], &l.end)) {
          SetError(err, "malformed layer row: " + line, offset);
          return false;
        }
        l.name = fields[2];
        out->AddLayer(std::move(l));
      }
      continue;
    }
    if (!header_seen) {
      // Column header row.
      header_seen = true;
      if (line.rfind("id,", 0) != 0) {
        SetError(err, "unexpected trace CSV header: " + line, offset);
        return false;
      }
      continue;
    }
    auto fields = SplitCsvLine(line);
    MemoryEvent e;
    int32_t dyn = 0;
    if (fields.size() < 9 || !ParseU64(fields[1], &e.size) || !ParseU64(fields[2], &e.ts) ||
        !ParseU64(fields[3], &e.te) || !ParseI32(fields[4], &e.ps) ||
        !ParseI32(fields[5], &e.pe) || !ParseI32(fields[6], &dyn) ||
        !ParseI32(fields[7], &e.ls) || !ParseI32(fields[8], &e.le)) {
      SetError(err, "malformed trace CSV row: " + line, offset);
      return false;
    }
    e.dyn = dyn != 0;
    if (fields.size() >= 10) {
      int32_t stream = 0;
      if (!ParseI32(fields[9], &stream) || stream < 0 || stream > 255) {
        SetError(err, "malformed stream field in row: " + line, offset);
        return false;
      }
      e.stream = static_cast<StreamId>(stream);
    }
    if (e.ts >= e.te) {  // AddEvent CHECK-aborts on this; reject gracefully instead
      SetError(err, "event with non-positive lifespan in row: " + line, offset);
      return false;
    }
    out->AddEvent(e);
  }
  std::string validation;
  if (!out->Valid(&validation)) {
    SetError(err, "invalid trace: " + validation, next_offset);
    return false;
  }
  return true;
}

bool ReadTraceCsvFile(const std::string& path, Trace* out, TraceIoError* err) {
  std::ifstream is(path);
  if (!is) {
    SetError(err, "cannot open trace file " + path, 0);
    return false;
  }
  return ReadTraceCsv(is, out, err);
}

bool ReadTraceAnyFile(const std::string& path, Trace* out, TraceIoError* err) {
  char magic[4] = {0, 0, 0, 0};
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      SetError(err, "cannot open trace file " + path, 0);
      return false;
    }
    is.read(magic, sizeof(magic));  // short files fall through to the CSV branch
  }
  if (std::memcmp(magic, kTraceV2Magic, 4) == 0) {
    TraceView view;
    if (!view.Open(path, err)) {
      return false;
    }
    *out = view.Materialize();
    return true;
  }
  return ReadTraceCsvFile(path, out, err);
}

}  // namespace stalloc
