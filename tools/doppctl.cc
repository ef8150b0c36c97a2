/**
 * @file
 * doppctl — client for the doppd campaign daemon (DESIGN.md §16).
 *
 *   doppctl submit --spool DIR --file F --name BATCH
 *       validate F (every line must parse and fingerprint-check) and
 *       place it in the spool atomically
 *   doppctl status --spool DIR [--name BATCH]
 *       print the daemon or batch status JSON
 *   doppctl wait --spool DIR --name BATCH [--timeout-ms N]
 *       block until the batch completes or fails; exit 0 / 1
 *   doppctl results --spool DIR --name BATCH
 *       print the completed batch's results CSV to stdout
 *   doppctl serial --spool-file F --out CSV
 *       run a batch file's configs serially *in this process* and
 *       write the results CSV — the clean reference the CI smoke
 *       diffs the daemon's CSV against (they must be byte-identical)
 *   doppctl drain --spool DIR     finish pending work, then exit
 *   doppctl stop --spool DIR      finish in-flight runs, then exit;
 *                                 queued configs stay unrun
 *
 * wait exits 1 for a "failed" batch: some config's attempts all
 * failed, and its journal record says why.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "harness/campaign_service.hh"
#include "harness/results_io.hh"
#include "util/env.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

using namespace dopp;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: doppctl submit --spool DIR --file F --name BATCH\n"
        "       doppctl status --spool DIR [--name BATCH]\n"
        "       doppctl wait --spool DIR --name BATCH"
        " [--timeout-ms N]\n"
        "       doppctl results --spool DIR --name BATCH\n"
        "       doppctl serial --spool-file F --out CSV\n"
        "       doppctl drain --spool DIR\n"
        "       doppctl stop --spool DIR\n");
    std::exit(2);
}

struct Args
{
    std::string spool, file, name, out;
    u64 timeoutMs = 600000;
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--spool")
            a.spool = value();
        else if (arg == "--file" || arg == "--spool-file")
            a.file = value();
        else if (arg == "--name")
            a.name = value();
        else if (arg == "--out")
            a.out = value();
        else if (arg == "--timeout-ms")
            a.timeoutMs = parseU64("--timeout-ms", value(), 0,
                                   std::numeric_limits<u64>::max());
        else
            usage();
    }
    return a;
}

void
printFile(const std::string &path)
{
    std::string text;
    if (!readFileIfExists(path, text))
        fatal("'%s' does not exist", path.c_str());
    std::fwrite(text.data(), 1, text.size(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    const Args a = parseArgs(argc, argv, 2);

    if (cmd == "serial") {
        if (a.file.empty() || a.out.empty())
            usage();
        CampaignBatch batch;
        std::string why;
        if (!loadCampaignBatch(a.file, "serial", batch, why))
            fatal("batch '%s' invalid: %s", a.file.c_str(),
                  why.c_str());
        std::vector<RunResult> results;
        results.reserve(batch.configs.size());
        for (size_t i = 0; i < batch.configs.size(); ++i) {
            inform("serial run %zu/%zu: %s", i + 1,
                   batch.configs.size(),
                   batch.fingerprints[i].c_str());
            results.push_back(runWorkload(batch.configs[i]));
            if (results.back().failed) {
                fatal("config '%s' failed: %s",
                      batch.fingerprints[i].c_str(),
                      results.back().error.c_str());
            }
        }
        writeResultsCsv(a.out, results);
        inform("wrote %s", a.out.c_str());
        return 0;
    }

    if (a.spool.empty())
        usage();
    SpoolPaths paths{a.spool};

    if (cmd == "submit") {
        if (a.file.empty() || a.name.empty())
            usage();
        submitCampaignBatch(paths, a.file, a.name);
        inform("submitted batch '%s'", a.name.c_str());
        return 0;
    }
    if (cmd == "status") {
        printFile(a.name.empty() ? paths.daemonStatusPath()
                                 : paths.batchStatusPath(a.name));
        return 0;
    }
    if (cmd == "wait") {
        if (a.name.empty())
            usage();
        BatchStatus st;
        if (!waitForBatch(paths, a.name, a.timeoutMs, st)) {
            std::fprintf(stderr,
                         "timed out waiting for batch '%s'\n",
                         a.name.c_str());
            return 1;
        }
        std::printf("%s\n", st.state.c_str());
        return st.state == "complete" ? 0 : 1;
    }
    if (cmd == "results") {
        if (a.name.empty())
            usage();
        printFile(paths.batchResultsPath(a.name));
        return 0;
    }
    if (cmd == "drain") {
        requestDrain(paths);
        return 0;
    }
    if (cmd == "stop") {
        requestStop(paths);
        return 0;
    }
    usage();
}
