/**
 * @file
 * In-memory span recorder for the traced run.  Spans are opened and
 * closed on the benchmark's own thread around its calls into each
 * layer's public functions, kept in a preallocated vector, and
 * written as one JSON file when the run ends.  Each span records its
 * name, start, end and parent, so a layer's self time (its duration
 * minus what its children cover) can be derived; the file carries
 * that derivation per span name as well.
 *
 * A disabled recorder (the untraced run) does nothing: Scope checks
 * one flag and reads no clock.
 */

#ifndef SOCBENCH_SPANS_HH
#define SOCBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace socbench
{

class Spans
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span {
        /** A string literal: spans never own their names. */
        const char *name;
        std::int32_t parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    explicit Spans(bool enabled, std::size_t reserve = 0);

    bool enabled() const { return enabled_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Open a child of the innermost open span; returns its id. */
    int open(const char *name);
    /** Close span @p id (must be the innermost open one). */
    void close(int id);

    /** Duration of closed span @p id in seconds. */
    double seconds(int id) const;

    /** Open/close around a scope; no-op when disabled. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name)
            : spans_(spans), id_(spans.enabled_ ? spans.open(name) : -1)
        {
        }
        ~Scope()
        {
            if (id_ >= 0)
                spans_.close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        int id_;
    };

    /**
     * Write {"env": @p envJson, "spans": [...], "self_s": {...}} to
     * @p path.  Returns false if the file cannot be written.
     */
    bool write(const std::string &path,
               const std::string &envJson) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace socbench

#endif // SOCBENCH_SPANS_HH
