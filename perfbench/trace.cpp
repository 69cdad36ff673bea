#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<double> Recorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.dur_ns) * 1e-6);
  return out;
}

std::map<std::uint64_t, double> Recorder::by_id_ms(
    const std::string& name) const {
  std::map<std::uint64_t, double> out;
  for (const auto& s : spans_)
    if (s.name == name) out[s.id] += static_cast<double>(s.dur_ns) * 1e-6;
  return out;
}

std::map<std::string, double> self_ms(
    const std::vector<telemetry::Span>& spans,
    const std::set<std::string>& modules) {
  // Spans on one thread nest properly (they are scoped timers), so a
  // start-ordered walk with a stack of open spans recovers the tree.
  std::map<std::uint64_t, std::vector<const telemetry::Span*>> by_tid;
  for (const auto& s : spans) by_tid[s.tid].push_back(&s);
  std::map<std::string, std::int64_t> self_ns;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->dur_ns > b->dur_ns;  // parent before a same-start child
    });
    struct Open {
      const telemetry::Span* span;
      bool module;
    };
    std::vector<Open> stack;
    for (const auto* s : list) {
      while (!stack.empty() &&
             stack.back().span->start_ns + stack.back().span->dur_ns <=
                 s->start_ns)
        stack.pop_back();
      const bool module = modules.count(s->name) > 0;
      if (module) {
        self_ns[s->name] += s->dur_ns;
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
          if (it->module) {
            self_ns[it->span->name] -= s->dur_ns;
            break;
          }
      }
      stack.push_back({s, module});
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns)
    out[name] = static_cast<double>(ns) * 1e-6;
  return out;
}

namespace {

void json_escape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\')
      std::fprintf(f, "\\%c", c);
    else if (static_cast<unsigned char>(c) < 0x20)
      std::fprintf(f, "\\u%04x", c);
    else
      std::fputc(c, f);
  }
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<BenchSpan>& bench,
                        const std::vector<telemetry::Span>& program) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  bool first = true;
  for (const auto& s : bench)
    if (first || s.start_ns < t0) t0 = s.start_ns, first = false;
  for (const auto& s : program)
    if (first || s.start_ns < t0) t0 = s.start_ns, first = false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool comma = false;
  const auto event = [&](const std::string& name, int pid, std::uint64_t tid,
                         std::int64_t start, std::int64_t dur,
                         const std::uint64_t* id) {
    std::fprintf(f, "%s{\"name\": \"", comma ? ",\n" : "");
    json_escape(f, name);
    std::fprintf(f,
                 "\", \"ph\": \"X\", \"pid\": %d, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f",
                 pid, static_cast<unsigned long long>(tid),
                 static_cast<double>(start - t0) * 1e-3,
                 static_cast<double>(dur) * 1e-3);
    if (id != nullptr)
      std::fprintf(f, ", \"args\": {\"id\": %llu}",
                   static_cast<unsigned long long>(*id));
    std::fputc('}', f);
    comma = true;
  };
  for (const auto& s : bench) event(s.name, 1, 0, s.start_ns, s.dur_ns, &s.id);
  for (const auto& s : program)
    event(s.name, 2, s.tid, s.start_ns, s.dur_ns, nullptr);
  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
