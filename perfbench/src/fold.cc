#include "fold.hh"

#include <algorithm>

#include "obs/json_reader.hh"

namespace hnbench {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

std::vector<Span>
foldTrace(const hnlpu::obs::Tracer &tracer, double from_us)
{
    using hnlpu::obs::JsonValue;
    const JsonValue doc =
        hnlpu::obs::JsonReader::parseOrDie(tracer.toJson(), "trace");
    std::vector<Span> spans;
    for (const JsonValue &ev : doc["traceEvents"].elements()) {
        Span s;
        s.name = ev["name"].asString();
        s.ts = ev["ts"].asDouble();
        if (s.ts < from_us || endsWith(s.name, ".sim"))
            continue;
        s.dur = ev["dur"].asDouble();
        s.tid = std::uint32_t(ev["tid"].asUint());
        if (const JsonValue *args = ev.find("args")) {
            if (const JsonValue *batch = args->find("batch"))
                s.batch = std::int64_t(batch->asUint());
        }
        s.selfUs = s.dur;
        spans.push_back(std::move(s));
    }

    // Nesting per thread: visit spans by start time (outer span first on
    // ties) and keep the chain of open spans on a stack.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "pool.chunk")
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Span &x = spans[a], &y = spans[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.ts != y.ts)
            return x.ts < y.ts;
        return x.dur > y.dur;
    });
    std::vector<std::size_t> open;
    std::uint32_t tid = 0;
    for (const std::size_t i : order) {
        Span &s = spans[i];
        if (open.empty() || s.tid != tid) {
            open.clear();
            tid = s.tid;
        }
        while (!open.empty() &&
               spans[open.back()].ts + spans[open.back()].dur <= s.ts)
            open.pop_back();
        if (open.empty()) {
            s.root = std::int64_t(i);
        } else {
            Span &parent = spans[open.back()];
            s.root = parent.root;
            parent.selfUs -= s.dur;
        }
        open.push_back(i);
    }
    return spans;
}

std::map<std::string, NameTotals>
totalsUnder(const std::vector<Span> &spans,
            const std::vector<std::string> &roots)
{
    std::map<std::string, NameTotals> totals;
    for (const Span &s : spans) {
        if (s.root < 0 ||
            std::find(roots.begin(), roots.end(),
                      spans[std::size_t(s.root)].name) == roots.end())
            continue;
        NameTotals &t = totals[s.name];
        ++t.count;
        t.durUs += s.dur;
        t.selfUs += s.selfUs;
    }
    return totals;
}

} // namespace hnbench
