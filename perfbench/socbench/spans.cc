#include "spans.hh"

#include <cassert>
#include <cstdio>
#include <map>

namespace socbench
{

Spans::Spans(bool enabled, std::size_t reserve)
    : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_) {
        spans_.reserve(reserve);
        stack_.reserve(64);
    }
}

std::int64_t
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Spans::open(const char *name)
{
    const int id = static_cast<int>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, nowNs(), -1});
    stack_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    assert(!stack_.empty() && stack_.back() == id);
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    stack_.pop_back();
}

double
Spans::seconds(int id) const
{
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

bool
Spans::write(const std::string &path, const std::string &envJson) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;

    // Self time: a span's duration minus its children's durations
    // (children nest inside their parent on this one thread).
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[i] += s.endNs - s.startNs;
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                s.endNs - s.startNs;
    }
    std::map<std::string, std::pair<std::int64_t, std::uint64_t>>
        by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &entry = by_name[spans_[i].name];
        entry.first += self[i];
        ++entry.second;
    }

    std::fprintf(out, "{\"env\": %s,\n\"self_s\": {", envJson.c_str());
    bool first = true;
    for (const auto &[name, entry] : by_name) {
        std::fprintf(out, "%s\n  \"%s\": {\"self_s\": %.9f, \"count\": %llu}",
                     first ? "" : ",", name.c_str(),
                     static_cast<double>(entry.first) * 1e-9,
                     static_cast<unsigned long long>(entry.second));
        first = false;
    }
    std::fprintf(out, "},\n\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}",
                     i == 0 ? "" : ",", i, s.name, s.parent,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

} // namespace socbench
