/**
 * @file
 * Result export: write RunResults as CSV, or one as a JSON object (the
 * DOPP_STATS_JSON line), so figure data can be post-processed outside
 * the simulator (plots, spreadsheets, CI dashboards). Columns are
 * derived from the run's StatRegistry schema (RunResult::stats): every
 * counter any layer registered appears under its dotted name, so a new
 * counter shows up in the export the moment it is registered — there
 * is no separate serialization table to keep in sync.
 */

#ifndef DOPP_HARNESS_RESULTS_IO_HH
#define DOPP_HARNESS_RESULTS_IO_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace dopp
{

/**
 * Stat columns for @p results: the union of every result's snapshot
 * names, in first-seen order. Runs with different stat schemas (e.g.
 * a fault campaign next to a clean run) merge into one column set;
 * a row serializes an *empty* cell for columns its own schema lacks
 * (a fabricated 0 would read as a measured value — e.g. 0% compression
 * for an organization with no compression counters).
 */
std::vector<std::string>
resultStatColumns(const std::vector<RunResult> &results);

/** The CSV header row for @p result's own schema. */
std::string runResultCsvHeader(const RunResult &result);

/** One RunResult as a CSV row against its own schema (matches
 * runResultCsvHeader(result); no trailing newline). */
std::string runResultCsvRow(const RunResult &result);

/** Write @p results (with a union-schema header) to @p path. Fatal on
 * I/O errors. */
void writeResultsCsv(const std::string &path,
                     const std::vector<RunResult> &results);

/** One RunResult as a JSON object string: workload, organization and
 * the hierarchical stats object (StatSnapshot::json()). */
std::string runResultJson(const RunResult &result);

/**
 * One row of a results CSV read back for post-processing (campaign
 * aggregation, regression checks). Numeric cells are paired with the
 * header's column names in file order.
 */
struct LoadedRunRow
{
    std::string workload;
    std::string organization;
    std::vector<std::pair<std::string, double>> values;

    /** Value of column @p name. Fatal if the column is absent. */
    double value(const std::string &name) const;
};

/**
 * Load a results CSV written by writeResultsCsv. Hardened against
 * malformed input: a missing file, an empty file, a header without the
 * leading workload/organization columns, a row whose cell count
 * disagrees with the header, or a non-numeric cell are all fatal with
 * the file name, the 1-based line number and the reason. Empty cells
 * (union-schema columns this row's organization never registered) are
 * skipped — the column is simply absent from that row's values.
 */
std::vector<LoadedRunRow> loadResultsCsv(const std::string &path);

} // namespace dopp

#endif // DOPP_HARNESS_RESULTS_IO_HH
