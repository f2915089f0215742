/**
 * @file
 * Pipelined high-bandwidth read path.
 *
 * §3.3: "RAID-II handles a read request by pipelining disk reads and
 * network sends ... the file system allocates a buffer in XBUS memory
 * ... calls the RAID driver code to read the first block of data into
 * XBUS memory.  When the read has completed, the file system calls the
 * network code to send the data from XBUS memory to the client.
 * Meanwhile, the file system allocates another XBUS buffer and reads
 * the next block of data."  PipelinedReader is that loop: a window of
 * in-flight array reads over XBUS buffers, with in-order delivery to
 * the output stage chain (network or network-buffer copy).
 */

#ifndef RAID2_SERVER_DATAPATH_HH
#define RAID2_SERVER_DATAPATH_HH

#include <cstdint>
#include <vector>

#include "config/calibration.hh"
#include "raid/sim_array.hh"
#include "xbus/xbus_board.hh"

namespace raid2::server {

/** A logical byte range on the array. */
struct Range
{
    std::uint64_t off;
    std::uint64_t len;
};

/** Windowed read pipeline from array to an output stage chain. */
class PipelinedReader
{
  public:
    struct Config
    {
        /** Concurrent buffers in flight (§3.3 "several pipeline
         *  processes"). */
        unsigned depth = cal::defaultPipelineDepth;
        /** Pipeline buffer size. */
        std::uint64_t bufferBytes = 256 * 1024;
        /** Stages each buffer passes after landing in XBUS memory. */
        std::vector<sim::Stage> outStages;
        /** Fixed cost charged before the first output transfer (e.g.
         *  HIPPI connection setup). */
        sim::Tick outSetup = 0;
        /** Track buffer use against the board's DRAM pool. */
        xbus::BufferPool *buffers = nullptr;
    };

    /** Run the pipeline over @p ranges and call @p done.  The
     *  completions in flight share the reader's state, so it is freed
     *  with the last of them, or with the event queue. */
    static void start(sim::EventQueue &eq, raid::SimArray &array,
                      std::vector<Range> ranges, Config cfg, sim::Event done);
};

} // namespace raid2::server

#endif // RAID2_SERVER_DATAPATH_HH
