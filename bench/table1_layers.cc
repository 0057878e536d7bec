/**
 * @file
 * Regenerates Table I (Inception v3 layer parameters) from our graph
 * and prints it against the published values. Known paper typos are
 * flagged rather than hidden (dnn::Table1Row's convsTypo /
 * filterTypo in src/dnn/inception_v3.hh).
 */

#include <cstdio>

#include "common/units.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc::dnn;

    Network net = inceptionV3();
    auto table = paperTable1();

    std::printf("=== Table I: Inception v3 layers "
                "(measured | paper) ===\n");
    std::printf("%-17s %4s %4s | %9s %9s | %7s %7s | %7s %7s\n",
                "layer", "H", "E", "convs", "paper", "filtMB",
                "paper", "inMB", "paper");
    for (size_t i = 0; i < net.stages.size(); ++i) {
        const auto &st = net.stages[i];
        const auto &row = table[i];
        const char *flag =
            (row.convsTypo || row.filterTypo) ? " [paper typo]" : "";
        std::printf("%-17s %4u %4u | %9llu %9llu | %7.3f %7.3f | "
                    "%7.3f %7.3f%s\n",
                    st.name.c_str(), st.inputHeight(),
                    st.outputHeight(),
                    static_cast<unsigned long long>(st.convCount()),
                    static_cast<unsigned long long>(row.convs),
                    nc::bytesToMiB(st.filterBytes()), row.filterMiB,
                    nc::bytesToMiB(st.inputBytes()), row.inputMiB,
                    flag);
    }
    std::printf("%-17s           | %9llu           | %7.3f         | "
                "%7.3f\n",
                "total",
                static_cast<unsigned long long>(net.convCount()),
                nc::bytesToMiB(net.filterBytes()),
                nc::bytesToMiB(net.inputBytes()));
    std::printf("\nconv sub-layers: 94 (+1 FC-as-conv); "
                "total MACs: %.2f G\n",
                static_cast<double>(net.macs()) * 1e-9);
    return 0;
}
