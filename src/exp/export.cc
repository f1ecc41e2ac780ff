#include "src/exp/export.hh"

#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "src/flow/fidelity.hh"

namespace netcrafter::exp {

namespace {

/** Render @p v with round-trip precision (no locale, no padding). */
std::string
num(double v)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

/** One exported cell: its column and rendered value. */
struct Cell
{
    std::string column;
    std::string text;
    bool quoted = false; // JSON: emit as string rather than number
};

/** Render one metric: integers exactly, doubles at round-trip
 *  precision, the fidelity by name. */
template <typename T>
Cell
metricCell(const std::string &column, const T &value)
{
    if constexpr (std::is_same_v<T, flow::Fidelity>)
        return {column, flow::fidelityName(value), true};
    else if constexpr (std::is_floating_point_v<T>)
        return {column, num(value)};
    else
        return {column, std::to_string(value)};
}

/** The columns of @p r: its identity, then the metric table's. */
std::vector<Cell>
cells(const ExportRecord &r)
{
    std::vector<Cell> out = {
        {"job", r.label, true},
        {"workload", r.result.workload, true},
        {"config_digest", config::digestHex(r.configDigest), true},
        {"scale", num(r.scale)},
    };
    harness::forEachMetric(
        r.result, [&](const std::string &column, const auto &value) {
            out.push_back(metricCell(column, value));
        });
    return out;
}

/** CSV-quote @p s only when it contains a delimiter or quote. */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::vector<ExportRecord>
recordsFromSweep(const SweepSpec &spec, const SweepResult &result)
{
    std::vector<ExportRecord> out;
    out.reserve(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const Job &job = spec.jobs()[i];
        out.push_back(ExportRecord{job.name, job.config.digest(),
                                   job.scale, result.results.at(i)});
    }
    return out;
}

std::vector<ExportRecord>
recordsFromScheduler(const Scheduler &scheduler)
{
    std::vector<ExportRecord> out;
    out.reserve(scheduler.history().size());
    for (const auto &[job, result] : scheduler.history())
        out.push_back(ExportRecord{job.name, job.config.digest(),
                                   job.scale, result});
    return out;
}

std::vector<ExportRecord>
recordsFromCache(const ResultCache &cache)
{
    std::vector<ExportRecord> out;
    for (auto &[key, result] : cache.snapshot()) {
        out.push_back(
            ExportRecord{"", key.configDigest, key.scale, result});
    }
    return out;
}

void
writeCsv(const std::vector<ExportRecord> &records, std::ostream &os)
{
    const std::vector<Cell> header = cells(ExportRecord{});
    for (std::size_t i = 0; i < header.size(); ++i)
        os << (i ? "," : "") << header[i].column;
    os << "\n";
    for (const auto &r : records) {
        const std::vector<Cell> row = cells(r);
        for (std::size_t i = 0; i < row.size(); ++i)
            os << (i ? "," : "") << csvCell(row[i].text);
        os << "\n";
    }
}

void
writeJson(const std::vector<ExportRecord> &records, std::ostream &os)
{
    os << "{\n  \"results\": [";
    for (std::size_t r = 0; r < records.size(); ++r) {
        os << (r ? ",\n    {" : "\n    {");
        const std::vector<Cell> row = cells(records[r]);
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << (i ? ", " : "") << "\"" << row[i].column << "\": ";
            if (row[i].quoted)
                os << "\"" << jsonEscape(row[i].text) << "\"";
            else
                os << row[i].text;
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

void
writeRegistryJson(const stats::Registry &registry, std::ostream &os)
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : registry.counters()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c.value();
        first = false;
    }
    os << "\n  },\n  \"averages\": {";
    first = true;
    for (const auto &[name, a] : registry.averages()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"mean\": " << num(a.mean())
           << ", \"min\": " << num(a.min())
           << ", \"max\": " << num(a.max())
           << ", \"count\": " << a.count() << "}";
        first = false;
    }
    os << "\n  },\n  \"distributions\": {";
    first = true;
    for (const auto &[name, d] : registry.distributions()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"total\": " << d.total() << ", \"bounds\": [";
        for (std::size_t i = 0; i < d.bounds().size(); ++i)
            os << (i ? ", " : "") << num(d.bounds()[i]);
        os << "], \"counts\": [";
        for (std::size_t i = 0; i < d.bounds().size() + 1; ++i)
            os << (i ? ", " : "") << d.bucket(i);
        os << "]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace netcrafter::exp
