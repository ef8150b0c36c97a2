#include "results_io.hh"

#include <cstdlib>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "util/fileio.hh"
#include "util/logging.hh"

namespace dopp
{

std::vector<std::string>
resultStatColumns(const std::vector<RunResult> &results)
{
    std::vector<std::string> columns;
    std::unordered_set<std::string> seen;
    for (const RunResult &r : results) {
        for (const StatValue &v : r.stats.values()) {
            if (seen.insert(v.name).second)
                columns.push_back(v.name);
        }
    }
    return columns;
}

std::string
runResultCsvHeader(const RunResult &result)
{
    std::string out = "workload,organization";
    for (const StatValue &v : result.stats.values()) {
        out += ',';
        out += v.name;
    }
    return out;
}

std::string
runResultCsvRow(const RunResult &result)
{
    std::string out = result.workload + ',' + result.organization;
    for (const StatValue &v : result.stats.values()) {
        out += ',';
        out += v.str();
    }
    return out;
}

void
writeResultsCsv(const std::string &path,
                const std::vector<RunResult> &results)
{
    // Build the whole file in memory, then write-to-temp + rename so
    // a crash never leaves a truncated CSV behind (util/fileio.hh).
    const std::vector<std::string> columns = resultStatColumns(results);
    std::string out = "workload,organization";
    for (const std::string &c : columns) {
        out += ',';
        out += c;
    }
    out += '\n';

    for (const RunResult &r : results) {
        std::unordered_map<std::string, const StatValue *> byName;
        byName.reserve(r.stats.size());
        for (const StatValue &v : r.stats.values())
            byName.emplace(v.name, &v);
        out += r.workload + ',' + r.organization;
        for (const std::string &c : columns) {
            out += ',';
            // A run whose organization never registered this column
            // gets an *empty* cell, not 0: a fabricated zero reads as
            // a measured value (e.g. "0% compression" for an
            // organization that has no compression counters at all).
            auto it = byName.find(c);
            if (it != byName.end())
                out += it->second->str();
        }
        out += '\n';
    }
    atomicWriteFile(path, out);
}

std::string
runResultJson(const RunResult &result)
{
    std::string out = "{\"workload\":\"" + result.workload +
        "\",\"organization\":\"" + result.organization +
        "\",\"stats\":" + result.stats.json() + '}';
    return out;
}

double
LoadedRunRow::value(const std::string &name) const
{
    for (const auto &[col, v] : values) {
        if (col == name)
            return v;
    }
    fatal("results row for %s/%s has no column '%s'",
          workload.c_str(), organization.c_str(), name.c_str());
    return 0.0;
}

namespace
{

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(cell);
            cell.clear();
        } else if (c != '\r') {
            cell += c;
        }
    }
    cells.push_back(cell);
    return cells;
}

} // namespace

std::vector<LoadedRunRow>
loadResultsCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("results csv '%s': cannot open for reading",
              path.c_str());

    std::string line;
    if (!std::getline(in, line))
        fatal("results csv '%s': line 1: empty file, expected a "
              "header row", path.c_str());

    const std::vector<std::string> header = splitCsvLine(line);
    if (header.size() < 3 || header[0] != "workload" ||
        header[1] != "organization") {
        fatal("results csv '%s': line 1: malformed header, expected "
              "'workload,organization,...' but got '%s'",
              path.c_str(), line.c_str());
    }

    std::vector<LoadedRunRow> rows;
    u64 lineNo = 1;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        const std::vector<std::string> cells = splitCsvLine(line);
        if (cells.size() != header.size()) {
            fatal("results csv '%s': line %llu: %zu cells but the "
                  "header declares %zu columns",
                  path.c_str(),
                  static_cast<unsigned long long>(lineNo),
                  cells.size(), header.size());
        }
        LoadedRunRow row;
        row.workload = cells[0];
        row.organization = cells[1];
        for (size_t i = 2; i < cells.size(); ++i) {
            // Empty cell: this organization never registered the
            // column (writeResultsCsv's union schema). The row simply
            // has no such value — LoadedRunRow::value() on it fatals
            // with a clear message instead of returning a bogus 0.
            if (cells[i].empty())
                continue;
            const char *text = cells[i].c_str();
            char *end = nullptr;
            const double v = std::strtod(text, &end);
            if (end == text || *end != '\0') {
                fatal("results csv '%s': line %llu: column '%s': "
                      "'%s' is not a number",
                      path.c_str(),
                      static_cast<unsigned long long>(lineNo),
                      header[i].c_str(), cells[i].c_str());
            }
            row.values.emplace_back(header[i], v);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace dopp
