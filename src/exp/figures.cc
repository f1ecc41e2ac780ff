#include "src/exp/figures.hh"

#include <iostream>
#include <string>
#include <vector>

#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "src/obs/telemetry.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::exp {

namespace {

using harness::Table;

std::vector<std::string>
apps()
{
    return workloads::workloadNames();
}

// --- Figure 3: ideal vs baseline --------------------------------------

void
runFig03(FigureContext &ctx)
{
    banner(ctx.out, "Figure 3",
           "ideal (all-high-bandwidth) speedup over baseline");

    SweepSpec spec("fig03");
    spec.addGrid(apps(), {{"base", config::baselineConfig()},
                          {"ideal", config::idealConfig()}});
    const SweepResult res = ctx.scheduler.run(spec);

    Table table(
        {"app", "baseline cycles", "ideal cycles", "ideal speedup"});
    std::vector<double> speedups;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        const auto &ideal = res.at("ideal/" + app);
        const double s = speedup(base, ideal);
        speedups.push_back(s);
        table.addRow({app, std::to_string(base.cycles),
                      std::to_string(ideal.cycles), Table::fmt(s)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean ideal speedup: "
            << Table::fmt(harness::geomean(speedups))
            << "x   (paper: ~1.5x average)\n";
}

// --- Figure 9: PTW vs data traffic share -------------------------------

void
runFig09(FigureContext &ctx)
{
    banner(ctx.out, "Figure 9",
           "PTW-related vs data bytes on the inter-cluster "
           "network (baseline)");

    SweepSpec spec("fig09");
    spec.addGrid(apps(), {{"base", config::baselineConfig()}});
    const SweepResult res = ctx.scheduler.run(spec);

    Table table({"app", "PTW share", "data share"});
    double sum = 0;
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interUsefulBytes == 0) {
            table.addRow({app, "-", "-"});
            continue;
        }
        sum += base.ptwByteFraction;
        ++n;
        table.addRow({app, Table::pct(base.ptwByteFraction),
                      Table::pct(1.0 - base.ptwByteFraction)});
    }
    table.print(ctx.out);
    if (n > 0) {
        ctx.out << "\nmean PTW share: " << Table::pct(sum / n)
                << "  (paper: ~13% average)\n";
    }
}

// --- Figure 14: overall performance (headline) -------------------------

void
runFig14(FigureContext &ctx)
{
    banner(ctx.out, "Figure 14",
           "speedup over the non-uniform baseline (cumulative "
           "mechanisms)");

    SweepSpec spec("fig14");
    spec.addGrid(apps(), {{"base", config::baselineConfig()},
                          {"stitch", stitchSelective32()},
                          {"trim", stitchTrim()},
                          {"full", fullNetcrafter()},
                          {"sector", config::sectorCacheConfig(16)}});
    const SweepResult res = ctx.scheduler.run(spec);

    Table table({"app", "Stitching", "+Trimming",
                 "+Sequencing (NetCrafter)", "SectorCache16B"});
    std::vector<double> s1, s2, s3, s4;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        s1.push_back(speedup(base, res.at("stitch/" + app)));
        s2.push_back(speedup(base, res.at("trim/" + app)));
        s3.push_back(speedup(base, res.at("full/" + app)));
        s4.push_back(speedup(base, res.at("sector/" + app)));
        table.addRow({app, Table::fmt(s1.back()), Table::fmt(s2.back()),
                      Table::fmt(s3.back()), Table::fmt(s4.back())});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean speedup: stitching "
            << Table::fmt(harness::geomean(s1)) << "x, +trimming "
            << Table::fmt(harness::geomean(s2))
            << "x, full NetCrafter "
            << Table::fmt(harness::geomean(s3)) << "x, sector-cache "
            << Table::fmt(harness::geomean(s4)) << "x\n"
            << "(paper: full NetCrafter up to 1.64x, avg 1.16x; "
               "sector cache helps <=16B apps, hurts coarse-grained "
               "ones)\n";
}

// --- Figure 20: wire-byte reduction ------------------------------------

void
runFig20(FigureContext &ctx)
{
    banner(ctx.out, "Figure 20",
           "inter-cluster wire bytes, normalized to baseline");

    const std::vector<Tick> windows = {32, 64, 96, 128};
    SweepSpec spec("fig20");
    std::vector<ConfigPoint> configs = {
        {"base", config::baselineConfig()},
        {"stitch", config::stitchingConfig(false)}};
    for (Tick w : windows) {
        configs.push_back({"selpool" + std::to_string(w),
                           config::stitchingConfig(true, true, w)});
    }
    spec.addGrid(apps(), configs);
    const SweepResult res = ctx.scheduler.run(spec);

    std::vector<std::string> headers = {"app", "stitch only"};
    for (Tick w : windows)
        headers.push_back("selpool " + std::to_string(w));
    Table table(headers);

    std::vector<double> sums(windows.size() + 1, 0.0);
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interWireBytes == 0) {
            table.addRow({app, "-"});
            continue;
        }
        ++n;
        std::vector<std::string> row{app};

        const auto &alone = res.at("stitch/" + app);
        double ratio = static_cast<double>(alone.interWireBytes) /
                       static_cast<double>(base.interWireBytes);
        sums[0] += ratio;
        row.push_back(Table::fmt(ratio, 3));

        for (std::size_t i = 0; i < windows.size(); ++i) {
            const auto &pooled = res.at(
                "selpool" + std::to_string(windows[i]) + "/" + app);
            ratio = static_cast<double>(pooled.interWireBytes) /
                    static_cast<double>(base.interWireBytes);
            sums[i + 1] += ratio;
            row.push_back(Table::fmt(ratio, 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    if (n > 0) {
        ctx.out << "\nmean byte ratio: stitch-only "
                << Table::fmt(sums[0] / n, 3);
        for (std::size_t i = 0; i < windows.size(); ++i) {
            ctx.out << ", selpool-" << windows[i] << " "
                    << Table::fmt(sums[i + 1] / n, 3);
        }
        ctx.out << "\n(paper: pooling deepens savings; the curve "
                   "flattens past a 32-cycle window)\n";
    }
}

// --- Figure 22: bandwidth sweep ----------------------------------------

struct BwPoint
{
    const char *label;
    double intra;
    double inter;
};

const std::vector<BwPoint> &
bwPoints()
{
    static const std::vector<BwPoint> points = {
        {"128:16 (8:1, baseline)", 128, 16},
        {"256:32 (8:1)", 256, 32},
        {"512:64 (8:1)", 512, 64},
        {"128:32 (4:1)", 128, 32},
        {"128:64 (2:1)", 128, 64},
        {"32:32 (homogeneous)", 32, 32},
    };
    return points;
}

void
runFig22(FigureContext &ctx)
{
    banner(ctx.out, "Figure 22",
           "NetCrafter speedup across bandwidth configurations");

    const auto &points = bwPoints();
    SweepSpec spec("fig22");
    std::vector<ConfigPoint> configs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        config::SystemConfig base = config::baselineConfig();
        base.intraClusterGBps = points[i].intra;
        base.interClusterGBps = points[i].inter;
        config::SystemConfig nc = fullNetcrafter();
        nc.intraClusterGBps = points[i].intra;
        nc.interClusterGBps = points[i].inter;
        configs.push_back({"base" + std::to_string(i), base});
        configs.push_back({"nc" + std::to_string(i), nc});
    }
    spec.addGrid(apps(), configs);
    const SweepResult res = ctx.scheduler.run(spec);

    std::vector<std::string> headers = {"app"};
    for (const auto &p : points)
        headers.push_back(p.label);
    Table table(headers);

    std::vector<std::vector<double>> speedups(points.size());
    for (const auto &app : apps()) {
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto &b = res.at("base" + std::to_string(i) + "/" + app);
            const auto &v = res.at("nc" + std::to_string(i) + "/" + app);
            speedups[i].push_back(speedup(b, v));
            row.push_back(Table::fmt(speedups[i].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    ctx.out << "\ngeomean per configuration:";
    for (std::size_t i = 0; i < points.size(); ++i) {
        ctx.out << "  [" << points[i].label << "] "
                << Table::fmt(harness::geomean(speedups[i]), 3);
    }
    ctx.out << "\n(paper: consistent gains across every ratio, "
               "largest under the tightest bandwidth)\n";
}

} // namespace

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> figures = {
        {"fig03", "ideal (all-high-bandwidth) speedup over baseline",
         runFig03},
        {"fig09",
         "PTW-related vs data bytes on the inter-cluster network",
         runFig09},
        {"fig14",
         "overall speedup of NetCrafter's cumulative mechanisms",
         runFig14},
        {"fig20", "inter-cluster wire bytes, normalized to baseline",
         runFig20},
        {"fig22", "NetCrafter speedup across bandwidth configurations",
         runFig22},
    };
    return figures;
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &fig : figureRegistry()) {
        if (name == fig.name)
            return &fig;
    }
    return nullptr;
}

int
figureMain(const std::string &name, int argc, char **argv)
{
    const Figure *fig = findFigure(name);
    if (fig == nullptr) {
        std::cerr << "unknown figure '" << name << "'\n";
        return 1;
    }
    harness::RunFlags flags;
    for (int i = 1; i < argc; ++i) {
        if (flags.consume(argc, argv, i))
            continue;
        const std::string arg = argv[i];
        std::cerr << "usage: " << name
                  << " [--jobs N] [--shards N] [--trace-out DIR]"
                     " [--trace-level off|links|packets|full]"
                     " [--sample-interval TICKS]"
                     " [--fidelity cycle|flow|hybrid]\n";
        return arg == "--help" || arg == "-h" ? 0 : 1;
    }
    SchedulerOptions opts;
    harness::overlayEnv(opts.run, flags, &opts.workers);
    obs::Telemetry::instance().start(obs::TelemetryOptions::fromEnv());
    ResultCache cache;
    Scheduler scheduler(opts, &cache);
    FigureContext ctx{scheduler, std::cout};
    fig->run(ctx);
    return 0;
}

config::SystemConfig
stitchSelective32()
{
    return config::stitchingConfig(true, true, 32);
}

config::SystemConfig
stitchTrim()
{
    config::SystemConfig cfg = stitchSelective32();
    cfg.netcrafter.trimming = true;
    cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
    return cfg;
}

config::SystemConfig
fullNetcrafter()
{
    return config::netcrafterConfig();
}

void
banner(std::ostream &os, const std::string &fig,
       const std::string &caption)
{
    os << "==============================================\n"
       << fig << " - " << caption << "\n"
       << "==============================================\n";
}

double
speedup(const harness::RunResult &base, const harness::RunResult &v)
{
    return static_cast<double>(base.cycles) /
           static_cast<double>(v.cycles);
}

} // namespace netcrafter::exp
