#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name, uint64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.request = request;
  rec.start = Now();
  spans_.push_back(rec);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end = Now();
  // Spans close innermost-first; tolerate an out-of-order close by
  // removing exactly the named span.
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i] == span) {
      open_.erase(open_.begin() + static_cast<int64_t>(i));
      break;
    }
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
